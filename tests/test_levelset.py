import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractop import levelset as ls
from fractop import mesh as fm


class TestHeaviside:
    @pytest.mark.parametrize("phi, expect", [(0.3, 1.0), (-0.2, 0.0),
                                             (0.0, 1.0)])
    def test_values(self, phi, expect):
        assert ls.heaviside_exact(phi) == expect

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-1, max_value=1), st.integers(2, 5))
    def test_idempotent_powers(self, phi, n):
        h = ls.heaviside_exact(phi)
        assert h ** n == h


class TestDirac:
    def test_peak_value(self):
        assert ls.dirac_regularized(0.0, 5.0) == pytest.approx(1.25)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0, max_value=50))
    def test_symmetry(self, a):
        assert ls.dirac_regularized(a, 5.0) == \
            pytest.approx(ls.dirac_regularized(-a, 5.0))

    def test_tails_vanish(self):
        assert ls.dirac_regularized(200.0, 5.0) == 0.0
        assert ls.dirac_regularized(-200.0, 5.0) == 0.0

    def test_overflow_safe(self):
        assert np.isfinite(ls.dirac_regularized(-1e6, 5.0))

    def test_maximum_at_zero(self):
        phis = np.linspace(-2, 2, 201)
        vals = ls.dirac_regularized(phis, 5.0)
        assert vals.argmax() == 100


class TestVolumeRatio:
    @pytest.fixture
    def mesh(self):
        return fm.build_structured_mesh(2, [4, 4], [1.0, 1.0])

    def test_fully_solid(self, mesh):
        assert ls.volume_ratio(mesh, np.ones(mesh.n_nodes)) == 1.0

    def test_fully_void(self, mesh):
        assert ls.volume_ratio(mesh, -np.ones(mesh.n_nodes)) == 0.0

    def test_half_split(self, mesh):
        # phi changes sign exactly on the x = 0.5 node line; quadrature
        # points split symmetrically
        phi = np.where(mesh.coords[:, 0] < 0.5, 1.0, -1.0)
        phi[mesh.coords[:, 0] == 0.5] = 0.0
        chi = ls.volume_ratio(mesh, phi)
        assert chi == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.5))
    def test_monotone_under_pointwise_increase(self, bump):
        mesh = fm.build_structured_mesh(2, [3, 3], [1.0, 1.0])
        rng = np.random.default_rng(0)
        phi = rng.uniform(-1, 1, mesh.n_nodes)
        assert ls.volume_ratio(mesh, phi + bump) >= ls.volume_ratio(mesh, phi)


class TestReactionDiffusion:
    @pytest.fixture
    def mesh(self):
        return fm.build_structured_mesh(2, [8, 4], [2.0, 1.0])

    def test_zero_velocity_keeps_uniform_field(self, mesh):
        params = ls.TopoParams()
        phi = 0.37 * np.ones(mesh.n_nodes)
        out = ls.solve_reaction_diffusion(mesh, phi, np.zeros(mesh.n_nodes),
                                          params)
        assert np.abs(out - phi).max() < 1e-10

    def test_uniform_velocity_shifts_by_tau_over_eta(self, mesh):
        params = ls.TopoParams(eta_phi=2.0, tau_phi=0.5)
        phi = 0.1 * np.ones(mesh.n_nodes)
        v0 = 0.8
        out = ls.solve_reaction_diffusion(mesh, phi,
                                          v0 * np.ones(mesh.n_nodes), params)
        assert np.abs(out - (0.1 + v0 * 0.5 / 2.0)).max() < 1e-10

    def test_clamped_to_bounds(self, mesh):
        params = ls.TopoParams(eta_phi=1.0, tau_phi=5.0)
        phi = np.ones(mesh.n_nodes)
        out = ls.solve_reaction_diffusion(mesh, phi,
                                          np.ones(mesh.n_nodes), params)
        assert out.max() <= 1.0
        out = ls.solve_reaction_diffusion(mesh, -phi,
                                          -np.ones(mesh.n_nodes), params)
        assert out.min() >= -1.0

    def test_checkerboard_velocity_smoothed_by_diffusion(self, mesh):
        params = ls.TopoParams(eta_phi=1.0, tau_phi=1.0, l_phi=1.0)
        i = np.arange(mesh.n_nodes)
        checker = np.where((mesh.coords[:, 0] * 4 + mesh.coords[:, 1] * 4)
                           .astype(int) % 2 == 0, 1.0, -1.0)
        phi = np.zeros(mesh.n_nodes)
        out = ls.solve_reaction_diffusion(mesh, phi, checker, params)
        naive = np.clip(phi + checker * 1.0, -1, 1)

        def tv(field):
            grid = field.reshape(5, 9)
            return (np.abs(np.diff(grid, axis=0)).sum()
                    + np.abs(np.diff(grid, axis=1)).sum())

        assert tv(out) < tv(naive)

    def test_pinned_nodes_stay_one(self, mesh):
        params = ls.TopoParams(tau_phi=1.0)
        pinned = mesh.node_sets.setdefault(
            "pin", np.array([0, 1, 2]))
        phi = np.ones(mesh.n_nodes)
        out = ls.solve_reaction_diffusion(mesh, phi,
                                          -5 * np.ones(mesh.n_nodes), params,
                                          pinned_nodes=pinned)
        assert np.all(out[pinned] == 1.0)
        free = np.setdiff1d(np.arange(mesh.n_nodes), pinned)
        assert out[free].min() < 0.0

    def test_second_solve_assembles_nothing(self, mesh, monkeypatch):
        params = ls.TopoParams(tau_phi=1.0)
        phi = np.ones(mesh.n_nodes)
        velocity = np.linspace(-1.0, 1.0, mesh.n_nodes)
        first = ls.solve_reaction_diffusion(mesh, phi, velocity, params)
        mass, laplace = mesh.mass_matrix, mesh.laplace_matrix
        calls = []
        assemble = fm.Mesh.assemble

        def counted(self, blocks):
            calls.append(blocks.shape)
            return assemble(self, blocks)

        monkeypatch.setattr(fm.Mesh, "assemble", counted)
        again = ls.solve_reaction_diffusion(mesh, phi, velocity, params)
        assert calls == []
        assert mesh.mass_matrix is mass and mesh.laplace_matrix is laplace
        assert np.array_equal(again, first)

    def test_nonfinite_velocity_rejected(self, mesh):
        with pytest.raises(FloatingPointError):
            ls.solve_reaction_diffusion(mesh, np.ones(mesh.n_nodes),
                                        np.full(mesh.n_nodes, np.inf),
                                        ls.TopoParams())


def test_dirac_volume_vector_sums_to_weighted_volume():
    mesh = fm.build_structured_mesh(2, [5, 5], [1.0, 1.0])
    phi = np.zeros(mesh.n_nodes)
    vec = ls.dirac_volume_vector(mesh, phi, 5.0)
    # sum over nodes equals int delta(phi) dx = 1.25 * volume for phi = 0
    assert vec.sum() == pytest.approx(1.25 * mesh.total_volume())
    assert np.all(vec >= 0.0)


def test_topo_params_validation():
    with pytest.raises(ValueError):
        ls.TopoParams(eta_phi=0.0)
