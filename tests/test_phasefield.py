import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractop import phasefield as pf
from fractop.material import MaterialParams


class TestCrackDensity:
    def test_intact(self):
        assert pf.crack_density(0.0, [0.0], 0.5) == 0.0

    def test_fully_cracked_flat(self):
        assert pf.crack_density(1.0, [0.0], 0.5) == pytest.approx(1.0)

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
            total += 0.5 * np.diff(x) @ pf.crack_density(dq, grad[:, None], l_f)
        assert total == pytest.approx(1.0, rel=2e-2)

    def test_invalid_length_scale(self):
        with pytest.raises(ValueError):
            pf.crack_density(0.5, [0.0], 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0, max_value=1),
           st.floats(min_value=-5, max_value=5),
           st.floats(min_value=1e-3, max_value=10))
    def test_nonnegative(self, d, g, l_f):
        assert pf.crack_density(d, [g], l_f) >= 0.0


class TestCriticalPsi:
    def test_stress_branch(self):
        assert pf.critical_psi(sigma_c=10.0, e_modulus=100.0) == \
            pytest.approx(0.5)

    def test_toughness_branch_inverse_identity(self):
        l_f = 0.18
        g_c = 0.7
        psi = pf.critical_psi(g_c=g_c, l_f=l_f)
        assert psi * 8 * l_f * np.sqrt(2.0) / 3.0 == pytest.approx(g_c)

    def test_both_sources_rejected(self):
        with pytest.raises(ValueError):
            pf.critical_psi(sigma_c=1.0, g_c=1.0, e_modulus=1.0, l_f=1.0)

    def test_neither_source_rejected(self):
        with pytest.raises(ValueError):
            pf.critical_psi()


class TestDrivingForce:
    CONST = MaterialParams(bulk_modulus=1.0, shear_modulus=1.0, psi_c=2.0,
                           zeta=1.0)

    def test_at_threshold(self):
        assert pf.driving_force(2.0, 0.0, self.CONST) == 0.0

    def test_twice_threshold(self):
        assert pf.driving_force(4.0, 0.0, self.CONST) == pytest.approx(1.0)

    def test_below_threshold_clipped(self):
        assert pf.driving_force(1.0, 0.0, self.CONST) == 0.0

    def test_plastic_energy_contributes(self):
        assert pf.driving_force(1.5, 0.5, self.CONST) == 0.0
        assert pf.driving_force(1.5, 2.5, self.CONST) == pytest.approx(1.0)

    def test_zeta_scales(self):
        c = MaterialParams(bulk_modulus=1.0, shear_modulus=1.0, psi_c=2.0,
                           zeta=10.0)
        assert pf.driving_force(4.0, 0.0, c) == pytest.approx(10.0)


class TestHistory:
    @pytest.mark.parametrize("h, d, expect", [
        (0.4, 0.2, 0.4),
        (0.0, 0.0, 0.0),
        (0.1, 0.9, 0.9),
    ])
    def test_values(self, h, d, expect):
        assert pf.update_history(h, d) == expect

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1,
                    max_size=20))
    def test_nondecreasing_along_any_path(self, drives):
        h = 0.0
        prev = 0.0
        for dr in drives:
            h = pf.update_history(h, dr)
            assert h >= prev
            prev = h
