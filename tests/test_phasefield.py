"""The phase-field crack model: the crack surface density
(``material.crack_density``) and the crack driving force with its running
maximum (``forward.tentative_history``)."""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractop import forward as fwd
from fractop import material as mat
from fractop import mesh as fm


class TestCrackDensity:
    def test_intact(self):
        assert mat.crack_density(0.0, [0.0], 0.5) == 0.0

    def test_fully_cracked_flat(self):
        assert mat.crack_density(1.0, [0.0], 0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("l_f", [0.1, 0.5, 2.0])
    def test_exponential_profile_integrates_to_one(self, l_f):
        # d(x) = exp(-|x|/l) gives unit regularized crack surface; integrate
        # the piecewise-linear interpolant with 2-pt Gauss per interval
        half = 8.0 * l_f
        n = 4000
        x = np.linspace(-half, half, n + 1)
        d = np.exp(-np.abs(x) / l_f)
        g = 0.5 / np.sqrt(3.0)
        total = 0.0
        for q in (-g, g):
            xm = 0.5 * (x[:-1] + x[1:]) + q * np.diff(x)
            t = (xm - x[:-1]) / np.diff(x)
            dq = (1 - t) * d[:-1] + t * d[1:]
            grad = (d[1:] - d[:-1]) / np.diff(x)
            total += 0.5 * np.diff(x) @ mat.crack_density(dq, grad[:, None],
                                                          l_f)
        assert total == pytest.approx(1.0, rel=2e-2)

    def test_invalid_length_scale(self):
        with pytest.raises(ValueError):
            mat.crack_density(0.5, [0.0], 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0, max_value=1),
           st.floats(min_value=-5, max_value=5),
           st.floats(min_value=1e-3, max_value=10))
    def test_nonnegative(self, d, g, l_f):
        assert mat.crack_density(d, [g], l_f) >= 0.0


@cache
def _unit_square(psi_c, zeta):
    params = mat.MaterialParams(bulk_modulus=1.0, shear_modulus=1.0,
                                psi_c=psi_c, zeta=zeta)
    mesh = fm.build_structured_mesh(2, [1, 1], [1.0, 1.0])
    fm.tag_box(mesh, [(0, 0), (0, 1)], "left")
    fm.tag_box(mesh, [(1, 1), (0, 1)], "right")
    return fwd.Problem(mesh=mesh, params=params, supports=[("left", (0, 1))],
                       driven=("right", (0,)))


def history(psi_plus, psi_p=0.0, history_n=0.0, psi_c=2.0, zeta=1.0):
    """``tentative_history`` at every point of a 1x1 problem whose points all
    hold the given solid (f(phi) = 1) energies and previous history."""
    problem = _unit_square(psi_c, zeta)
    shape = problem.mesh.dn_dx.shape[:2]
    result = mat.StressResult(sigma=None, psi_plus=np.full(shape, psi_plus),
                              new_state=None, psi_p=np.full(shape, psi_p),
                              fphi=np.ones(shape))
    state = mat.QuadState.zeros(shape)
    state.history[:] = history_n
    h = fwd.tentative_history(problem, result, state)
    assert np.all(h == h.flat[0])
    return h.flat[0]


class TestDrivingForce:
    def test_at_threshold(self):
        assert history(2.0) == 0.0

    def test_twice_threshold(self):
        assert history(4.0) == pytest.approx(1.0)

    def test_below_threshold_clipped(self):
        assert history(1.0) == 0.0

    def test_plastic_energy_contributes(self):
        assert history(1.5, psi_p=0.5) == 0.0
        assert history(1.5, psi_p=2.5) == pytest.approx(1.0)

    def test_zeta_scales(self):
        assert history(4.0, zeta=10.0) == pytest.approx(10.0)


class TestHistory:
    # drive d is the driving force: energy (1 + d) psi_c with psi_c = 1
    @pytest.mark.parametrize("h, d, expect", [
        (0.4, 0.2, 0.4),
        (0.0, 0.0, 0.0),
        (0.1, 0.9, 0.9),
    ])
    def test_values(self, h, d, expect):
        assert history(1.0 + d, history_n=h, psi_c=1.0) == \
            pytest.approx(expect)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1,
                    max_size=20))
    def test_nondecreasing_along_any_path(self, drives):
        h = 0.0
        prev = 0.0
        for dr in drives:
            h = history(dr, history_n=h)
            assert h >= prev
            prev = h
