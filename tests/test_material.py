import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractop import material as mat

KAPPA = 1e-8


def ductile():
    return mat.MaterialParams(bulk_modulus=175.0, shear_modulus=80.76,
                              hardening_modulus=200.0, yield_stress=543.0,
                              psi_c=13.0, zeta=10.0, l_f=0.18)


def full_energy(eps, p):
    dev = mat.deviator(eps)
    return (0.5 * p.bulk_modulus * mat.trace(eps) ** 2
            + p.shear_modulus * np.einsum("...i,i,...i->...", dev,
                                          mat.VOIGT_WEIGHT, dev))


class TestDegradation:
    def test_intact(self):
        assert mat.degradation_g(0.0, KAPPA) == pytest.approx(1.0)

    def test_fully_broken(self):
        assert mat.degradation_g(1.0, KAPPA) == pytest.approx(KAPPA)

    def test_quadratic_midpoint(self):
        assert mat.degradation_g(0.5, 0.0) == pytest.approx(0.25)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mat.degradation_g(1.5, KAPPA)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert mat.degradation_g(hi, KAPPA) <= mat.degradation_g(lo, KAPPA)


class TestTransition:
    def test_solid(self):
        assert mat.transition_f(0.7, KAPPA) == pytest.approx(1.0)

    def test_void(self):
        assert mat.transition_f(-0.3, KAPPA) == pytest.approx(KAPPA)

    def test_interface_convention(self):
        # phi = 0 belongs to the solid phase
        assert mat.transition_f(0.0, KAPPA) == pytest.approx(1.0)

    def test_regularized_slope_is_quadratic_chain(self):
        # numerical slope of the regularized transition matches 2 H delta
        phi, h = 0.3, 1e-6
        fp = mat.transition_f(phi + h, KAPPA, l_delta=5.0)
        fmn = mat.transition_f(phi - h, KAPPA, l_delta=5.0)
        slope = (fp - fmn) / (2 * h)
        from fractop.levelset import dirac_regularized, heaviside_regularized
        hreg = heaviside_regularized(phi, 5.0)
        expected = (1 - KAPPA) * 2.0 * hreg * dirac_regularized(phi, 5.0)
        assert slope == pytest.approx(expected, rel=1e-6)


class TestEnergySplit:
    def test_unstrained(self):
        plus, minus = mat.energy_split(np.zeros(6), ductile())
        assert plus == 0.0 and minus == 0.0

    def test_hydrostatic_tension_undamageable_part_vanishes(self):
        eps = np.array([0.01, 0.01, 0.01, 0, 0, 0.0])
        plus, minus = mat.energy_split(eps, ductile())
        assert minus == 0.0
        assert plus > 0.0

    def test_hydrostatic_compression_damageable_part_vanishes(self):
        eps = np.array([-0.01, -0.01, -0.01, 0, 0, 0.0])
        plus, minus = mat.energy_split(eps, ductile())
        assert plus == 0.0
        assert minus > 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-0.3, max_value=0.3), min_size=6,
                    max_size=6))
    def test_split_sums_to_full_energy(self, comps):
        eps = np.array(comps)
        p = ductile()
        plus, minus = mat.energy_split(eps, p)
        assert plus + minus == pytest.approx(full_energy(eps, p), abs=1e-12)
        assert plus >= 0.0 and minus >= 0.0


class TestReturnMap:
    def test_elastic_step_leaves_state_unchanged(self):
        p = ductile()
        eps = np.array([[1e-3, 0, 0, 0, 0, 0.0]])
        state = mat.QuadState.zeros(1)
        res = mat.return_map(eps, state, 0.0, 1.0, p)
        assert np.all(res.new_state.eps_p == 0.0)
        assert np.all(res.new_state.alpha == 0.0)
        # tangent equals the isotropic elastic tensor
        expected = (p.bulk_modulus * mat._J_VOL
                    + 2 * p.shear_modulus * mat.P_DEV)
        assert np.allclose(res.tangent[0], expected, rtol=1e-12)

    def test_void_points_stay_elastic(self):
        p = ductile()
        eps = 50.0 * np.ones((1, 6))  # far past yield for solid material
        res = mat.return_map(eps, mat.QuadState.zeros(1), 0.0, -1.0, p)
        assert np.all(res.new_state.alpha == 0.0)
        assert np.all(res.new_state.eps_p == 0.0)

    def test_uniaxial_bilinear_oracle(self):
        # closed-form monotonic uniaxial-strain response:
        #   elastic: s11 = (K + 4mu/3) e
        #   plastic: lam = (2 mu e - sy)/(3 mu + h), s11 = K e + 2mu(2e/3 - lam)
        p = ductile()
        K, mu = p.bulk_modulus, p.shear_modulus
        h, sy = p.hardening_modulus, p.yield_stress
        e_y = sy / (2 * mu)
        state = mat.QuadState.zeros(1)
        for e in np.linspace(0.0, 3 * e_y, 40):
            eps = np.zeros((1, 6))
            eps[0, 0] = e
            res = mat.return_map(eps, state, 0.0, 1.0, p)
            state = res.new_state
            if 2 * mu * e <= sy:
                ref = (K + 4 * mu / 3) * e
                tol = 1e-8
            else:
                lam = (2 * mu * e - sy) / (3 * mu + h)
                ref = K * e + 2 * mu * (2 * e / 3 - lam)
                tol = 1e-6
            assert res.sigma[0, 0] == pytest.approx(ref, rel=tol, abs=1e-12)

    def test_post_yield_state_consistency(self):
        p = ductile()
        rng = np.random.default_rng(7)
        eps = rng.normal(scale=8.0, size=(64, 6))
        res = mat.return_map(eps, mat.QuadState.zeros(64), 0.0, 1.0, p)
        st_new = res.new_state
        # deviatoric plastic strain
        assert np.abs(mat.trace(st_new.eps_p)).max() < 1e-10
        # yield residual scaled back by the degradation factors
        q = np.sqrt(1.5) * mat.tensor_norm(
            2 * p.shear_modulus * mat.deviator(eps - st_new.eps_p))
        beta = q - (p.yield_stress + p.hardening_modulus * st_new.alpha)
        plastic = st_new.lambda_p > 0
        assert np.abs(beta[plastic]).max() <= 1e-8 * p.yield_stress
        # KKT conditions
        assert np.all(st_new.lambda_p >= 0.0)
        assert np.all(beta <= 1e-10 * p.yield_stress)
        assert np.abs(st_new.lambda_p * beta).max() < 1e-10 * p.yield_stress

    def test_elastic_rows_do_not_depend_on_the_batch(self):
        # a batch with no yielding point skips the return; its rows equal
        # those of the same points inside a batch that does return
        p = ductile()
        rng = np.random.default_rng(5)
        prior = mat.return_map(rng.normal(scale=8.0, size=(64, 6)),
                               mat.QuadState.zeros(64), 0.0, 1.0, p)
        state = prior.new_state
        assert np.all(state.alpha > 0.0)
        eps = state.eps_p + rng.normal(scale=2.0, size=(64, 6))
        d = rng.uniform(0.0, 0.5, 64)
        mixed = mat.return_map(eps, state, d, 1.0, p)
        elastic = mixed.new_state.lambda_p == 0.0
        assert 0 < elastic.sum() < 64
        sub = mat.QuadState(state.eps_p[elastic], state.alpha[elastic],
                            state.history[elastic], state.lambda_p[elastic])
        alone = mat.return_map(eps[elastic], sub, d[elastic], 1.0, p)
        assert not np.any(alone.new_state.lambda_p)
        for name in ("sigma", "psi_plus", "sigma_eff", "sigma_plus", "psi_p",
                     "nhat", "fphi", "tangent"):
            assert np.array_equal(getattr(alone, name),
                                  getattr(mixed, name)[elastic])
        for got, ref in zip(alone.moduli, mixed.moduli):
            assert np.array_equal(got, ref[elastic])
        for name in ("eps_p", "alpha", "history", "lambda_p"):
            assert np.array_equal(getattr(alone.new_state, name),
                                  getattr(mixed.new_state, name)[elastic])

    def test_nonfinite_input_rejected(self):
        with pytest.raises(FloatingPointError):
            mat.return_map(np.full((1, 6), np.nan), mat.QuadState.zeros(1),
                           0.0, 1.0, ductile())

    def test_stress_is_energy_gradient(self):
        # FD of the degraded elastic energy w.r.t. elastic strain
        p = ductile()
        rng = np.random.default_rng(3)
        eps = rng.normal(scale=0.5, size=(50, 6))
        res = mat.return_map(eps, mat.QuadState.zeros(50), 0.3, 1.0, p)
        g = mat.degradation_g(0.3, p.kappa)
        h = 1e-7
        for j in range(6):
            dplus = eps.copy()
            dminus = eps.copy()
            step = h if j < 3 else 0.5 * h  # engineering perturbation
            dplus[:, j] += step
            dminus[:, j] -= step
            pp, pm = mat.energy_split(dplus, p)
            mp, mm = mat.energy_split(dminus, p)
            wp = g * pp + pm
            wm = g * mp + mm
            fd = (wp - wm) / (2 * h)
            scale = np.maximum(np.abs(res.sigma_eff[:, j]), 1e-3)
            assert np.max(np.abs(fd - res.sigma_eff[:, j]) / scale) < 1e-6


class TestConsistentTangent:
    def test_zero_multiplier_reduces_to_elastic(self):
        p = ductile()
        eps = np.array([[1e-3, -2e-4, 0, 1e-4, 0, 0.0]])
        res = mat.return_map(eps, mat.QuadState.zeros(1), 0.2, 1.0, p)
        assert res.new_state.lambda_p[0] == 0.0
        g = mat.degradation_g(0.2, p.kappa)
        expected = g * (p.bulk_modulus * mat._J_VOL
                        + 2 * p.shear_modulus * mat.P_DEV)
        assert np.allclose(res.tangent[0], expected, rtol=1e-9)

    def test_plastic_tangent_matches_fd(self):
        # independent central difference of the stress update
        p = ductile()
        rng = np.random.default_rng(5)
        eps = rng.normal(scale=8.0, size=(20, 6))
        state = mat.QuadState.zeros(20)
        base = mat.return_map(eps, state, 0.0, 1.0, p)
        assert np.all(base.new_state.lambda_p > 0)
        h = 1e-6 * np.abs(eps).max()
        worst = 0.0
        for j in range(6):
            step = np.zeros(6)
            step[j] = h if j < 3 else 0.5 * h
            plus = mat.return_map(eps + step, state, 0.0, 1.0, p)
            minus = mat.return_map(eps - step, state, 0.0, 1.0, p)
            fd = (plus.sigma - minus.sigma) / (2 * h)
            err = np.abs(fd - base.tangent[:, :, j]).max()
            worst = max(worst, err / np.abs(base.tangent).max())
        assert worst < 1e-5

    def test_fully_broken_tension_is_kappa_scaled(self):
        p = ductile()
        eps = np.array([[0.02, 0.01, 0.0, 0, 0, 0.0]])  # tensile I1 > 0
        res = mat.return_map(eps, mat.QuadState.zeros(1), 1.0, 1.0, p)
        tan = res.tangent[0]
        elastic = (p.bulk_modulus * mat._J_VOL
                   + 2 * p.shear_modulus * mat.P_DEV)
        assert np.linalg.norm(tan) <= (p.kappa * np.linalg.norm(elastic)
                                       + 1e-12) * (1 + 1e-6)

    def test_minor_symmetry(self):
        p = ductile()
        rng = np.random.default_rng(13)
        eps = rng.normal(scale=5.0, size=(8, 6))
        res = mat.return_map(eps, mat.QuadState.zeros(8), 0.1, 1.0, p)
        assert np.allclose(res.tangent, np.swapaxes(res.tangent, -1, -2),
                           atol=1e-10)


def test_brittle_reduction_huge_yield_stress():
    p = mat.MaterialParams(bulk_modulus=175.0, shear_modulus=80.76,
                           hardening_modulus=200.0, yield_stress=1e16,
                           psi_c=13.0, l_f=0.18)
    rng = np.random.default_rng(17)
    eps = rng.normal(scale=100.0, size=(100, 6))
    res = mat.return_map(eps, mat.QuadState.zeros(100), 0.0, 1.0, p)
    assert np.all(res.new_state.alpha == 0.0)
