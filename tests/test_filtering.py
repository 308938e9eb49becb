import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractop import filtering as flt
from fractop import mesh as fm


@pytest.fixture
def line_mesh():
    # 2x1 strip: nodes at x = 0, 1, 2 on two rows
    return fm.build_structured_mesh(2, [2, 1], [2.0, 1.0])


class TestWeights:
    def test_zero_distance(self):
        assert flt.filter_weight(0.0, 1.0) == 1.0

    def test_at_radius(self):
        assert flt.filter_weight(1.0, 1.0) == pytest.approx(np.exp(-3.0))
        assert flt.filter_weight(1.0, 1.0) == pytest.approx(0.049787, rel=1e-4)

    def test_beyond_cutoff_excluded(self, line_mesh):
        # distance 2 r_min carries weight exp(-24) < 4e-11 and is truncated
        kernel = flt.build_kernel(line_mesh, 1.0)
        w = kernel.weights.toarray()
        assert w[0, 2] == 0.0  # distance 2.0 = 2 r_min exactly
        assert w[0, 1] > 0.0   # distance 1.0 inside the cutoff
        assert flt.filter_weight(2.0, 1.0) < 4e-11


class TestFilterField:
    def test_constant_preserved_exactly(self):
        mesh = fm.build_structured_mesh(2, [6, 4], [3.0, 2.0])
        kernel = flt.build_kernel(mesh, 0.8)
        out = flt.filter_field(kernel, np.full(mesh.n_nodes, 3.7))
        assert np.allclose(out, 3.7, rtol=0, atol=1e-13)

    def test_spike_spread_hand_computed(self, line_mesh):
        # nodes on the bottom row: 0 (x=0), 1 (x=1), 2 (x=2); top row 3,4,5
        kernel = flt.build_kernel(line_mesh, 1.0)
        spike = np.zeros(line_mesh.n_nodes)
        spike[1] = 6.0
        out = flt.filter_field(kernel, spike)
        w1 = np.exp(-3.0)           # horizontal or vertical distance 1
        wd = np.exp(-3.0 * np.sqrt(2.0) ** 3)  # diagonal sqrt(2)
        # node 1 neighbors: itself, 0, 2 (w1), 4 (w1), 3, 5 (wd)
        denom_center = 1.0 + 3 * w1 + 2 * wd
        assert out[1] == pytest.approx(6.0 / denom_center)
        # corner node 0: neighbors itself, 1 (w1), 3 (w1), 4 (wd)
        denom_corner = 1.0 + 2 * w1 + wd
        assert out[0] == pytest.approx(6.0 * w1 / denom_corner)
        assert out[1] < 6.0

    def test_tiny_radius_is_identity(self):
        mesh = fm.build_structured_mesh(2, [4, 2], [2.0, 1.0])
        kernel = flt.build_kernel(mesh, 1e-6)
        rng = np.random.default_rng(0)
        field = rng.normal(size=mesh.n_nodes)
        assert np.allclose(flt.filter_field(kernel, field), field)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=15,
                    max_size=15))
    def test_bounds_preserved(self, values):
        mesh = fm.build_structured_mesh(2, [4, 2], [2.0, 1.0])
        kernel = flt.build_kernel(mesh, 0.8)
        field = np.array(values)
        out = flt.filter_field(kernel, field)
        assert out.max() <= field.max() + 1e-12
        assert out.min() >= field.min() - 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10))
    def test_filter_then_average_homogeneous(self, scale):
        mesh = fm.build_structured_mesh(2, [3, 2], [1.5, 1.0])
        kernel = flt.build_kernel(mesh, 0.6)
        rng = np.random.default_rng(1)
        a, b, c = (rng.normal(size=mesh.n_nodes) for _ in range(3))
        one = flt.history_average(flt.filter_field(kernel, a), [c, b])
        scaled = flt.history_average(flt.filter_field(kernel, scale * a),
                                     [scale * c, scale * b])
        assert np.allclose(scaled, scale * one, rtol=1e-10, atol=1e-12)

    def test_wrong_length_rejected(self, line_mesh):
        kernel = flt.build_kernel(line_mesh, 1.0)
        with pytest.raises(ValueError):
            flt.filter_field(kernel, np.zeros(3))


class TestHistoryAverage:
    def test_all_equal(self):
        g = np.array([1.0, 2.0])
        assert np.allclose(flt.history_average(g, [g, g]), g)

    def test_arithmetic(self):
        out = flt.history_average(np.array([3.0]),
                                  [np.array([0.0]), np.array([0.0])])
        assert out[0] == pytest.approx(1.0)
        # only the last two predecessors count
        out = flt.history_average(np.array([3.0]), [np.array([30.0]),
                                                    np.array([0.0]),
                                                    np.array([6.0])])
        assert out[0] == 3.0

    def test_early_iterations_passthrough(self):
        # the first two iterations have fewer than two predecessors
        cur = np.array([3.0])
        assert flt.history_average(cur, [])[0] == 3.0
        out = flt.history_average(cur, [np.array([9.0])])
        assert out[0] == 3.0 and out is not cur


def test_kernel_requires_positive_radius():
    mesh = fm.build_structured_mesh(2, [1, 1], [1.0, 1.0])
    with pytest.raises(ValueError):
        flt.build_kernel(mesh, 0.0)
