"""Constitutive kernel: volumetric/deviatoric energy split, degradation and
solid/void transition functions, radial-return J2 plasticity and the
algorithmically consistent tangent.

Symmetric second-order tensors are stored in tensor Voigt order
``[11, 22, 33, 23, 13, 12]`` with *tensor* (not engineering) shear
components; double contractions therefore weight the shear entries by 2.
All operations are vectorized over a leading batch of material points.
2D analyses use plane-strain kinematics embedded in the 3D representation,
which keeps the out-of-plane plastic strain exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import expit

# double-contraction weights for tensor Voigt storage
VOIGT_WEIGHT = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

# isotropic fourth-order operators in engineering Voigt form (strain input
# [e11, e22, e33, g23, g13, g12], stress output [s11, s22, s33, s23, s13, s12])
_J_VOL = np.zeros((6, 6))
_J_VOL[:3, :3] = 1.0
_P_DEV = np.diag([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])
_P_DEV[:3, :3] -= 1.0 / 3.0


@dataclass(frozen=True)
class MaterialParams:
    """Constitutive and regularization constants (MPa / mm units)."""

    bulk_modulus: float
    shear_modulus: float
    hardening_modulus: float = 0.0
    yield_stress: float = 1e16
    psi_c: float = 1.0
    zeta: float = 1.0
    eta_f: float = 1e-6
    kappa: float = 1e-8
    l_f: float = 1.0

    def __post_init__(self):
        if self.bulk_modulus <= 0 or self.shear_modulus <= 0:
            raise ValueError("bulk and shear moduli must be positive")
        if min(self.hardening_modulus, self.yield_stress, self.psi_c,
               self.zeta, self.eta_f) < 0:
            raise ValueError("h, sigma_Y, psi_c, zeta, eta_f must be >= 0")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1)")
        if self.l_f <= 0:
            raise ValueError("l_f must be positive")

    @property
    def youngs_modulus(self) -> float:
        k, mu = self.bulk_modulus, self.shear_modulus
        return 9.0 * k * mu / (3.0 * k + mu)


@dataclass
class QuadState:
    """Path variables at quadrature points.

    ``eps_p`` is trace-free (tensor Voigt), ``alpha`` the equivalent plastic
    strain and ``history`` the running maximum of the crack driving force;
    both are nondecreasing across committed steps.  ``lambda_p`` holds the
    plastic multiplier increment of the last state update.
    """

    eps_p: np.ndarray     # (..., 6)
    alpha: np.ndarray     # (...)
    history: np.ndarray   # (...)
    lambda_p: np.ndarray  # (...)

    @classmethod
    def zeros(cls, shape) -> "QuadState":
        shape = tuple(np.atleast_1d(shape))
        return cls(eps_p=np.zeros(shape + (6,)), alpha=np.zeros(shape),
                   history=np.zeros(shape), lambda_p=np.zeros(shape))

    def copy(self) -> "QuadState":
        return QuadState(self.eps_p.copy(), self.alpha.copy(),
                         self.history.copy(), self.lambda_p.copy())


@dataclass
class StressResult:
    """Outcome of one constitutive update."""

    sigma: np.ndarray        # (..., 6) degraded stress
    psi_plus: np.ndarray     # (...) effective damageable energy
    psi_minus: np.ndarray    # (...) effective undamageable energy
    new_state: QuadState
    sigma_eff: np.ndarray = None   # (..., 6) g(d)*sigma+~ + sigma-~ (no f)
    sigma_plus: np.ndarray = None  # (..., 6) effective damageable stress
    psi_p: np.ndarray = None       # (...) effective plastic energy 0.5*h*alpha^2
    tangent_args: tuple = field(default=None, repr=False)

    @cached_property
    def tangent(self) -> np.ndarray:
        """(..., 6, 6) consistent tangent, engineering Voigt form.

        Built on first access, because most updates (Newton residual checks,
        history sweeps) never read it.  ``tangent_args`` holds the arrays the
        update itself computed, so this is the same ``_tangent`` call on the
        same values that an eager evaluation would make, and the result is
        identical to the last bit.
        """
        return _tangent(*self.tangent_args)


def trace(t6: np.ndarray) -> np.ndarray:
    return t6[..., 0] + t6[..., 1] + t6[..., 2]


def deviator(t6: np.ndarray) -> np.ndarray:
    dev = t6.copy()
    m = trace(t6) / 3.0
    dev[..., 0] -= m
    dev[..., 1] -= m
    dev[..., 2] -= m
    return dev


def tensor_norm(t6: np.ndarray) -> np.ndarray:
    """Frobenius norm of a symmetric tensor in tensor Voigt storage."""
    return np.sqrt(np.einsum("...i,i,...i->...", t6, VOIGT_WEIGHT, t6))


def degradation_g(d, kappa):
    """Quadratic stiffness degradation g(d) = (1-kappa)(1-d)^2 + kappa."""
    d = np.asarray(d, dtype=float)
    if np.any(d < -1e-12) or np.any(d > 1.0 + 1e-12):
        raise ValueError("crack field d outside [0, 1]")
    return (1.0 - kappa) * (1.0 - d) ** 2 + kappa


def transition_f(phi, kappa, regularized: bool = False, l_delta: float = 5.0):
    """Solid/void transition f = (1-kappa) H(phi)^2 + kappa.

    With the exact (idempotent) Heaviside the quadratic penalty equals the
    linear form; the finite-difference pipeline swaps in the logistic
    regularized Heaviside (``regularized=True``), keeping the square so the
    slope matches the analytic 2 H delta factor.
    """
    phi = np.asarray(phi, dtype=float)
    if regularized:
        h = heaviside_regularized(phi, l_delta)
    else:
        h = np.where(phi >= 0.0, 1.0, 0.0)
    return (1.0 - kappa) * h ** 2 + kappa


def heaviside_regularized(phi, l_delta: float = 5.0):
    """Logistic smoothing of the exact Heaviside, integral of the
    regularized Dirac."""
    return expit(l_delta * np.asarray(phi, dtype=float))


def energy_split(eps_e: np.ndarray, params: MaterialParams):
    """Additive split of the effective strain energy into damageable and
    undamageable parts.

    psi+ = H+[I1] K/2 I1^2 + mu e_dev:e_dev ,   psi- = (1 - H+[I1]) K/2 I1^2.
    H+ is 1 for I1 >= 0 (right-continuous tie-break) and 0 otherwise.
    """
    eps_e = np.asarray(eps_e, dtype=float)
    i1 = trace(eps_e)
    hplus = (i1 >= 0.0).astype(float)
    psi_vol = 0.5 * params.bulk_modulus * i1 ** 2
    dev = deviator(eps_e)
    psi_dev = params.shear_modulus * np.einsum(
        "...i,i,...i->...", dev, VOIGT_WEIGHT, dev)
    return hplus * psi_vol + psi_dev, (1.0 - hplus) * psi_vol


def return_map(eps_total: np.ndarray, state_n: QuadState, d, phi,
               params: MaterialParams, regularized_heaviside: bool = False,
               l_delta: float = 5.0) -> StressResult:
    """Radial-return state update for degraded J2 plasticity.

    The yield function compares the degraded deviatoric stress against the
    degraded yield force f(phi) g(d) (sigma_Y + h alpha); both carry the same
    factor, so the plastic multiplier equals the effective (undegraded) one.
    Void points (H(phi) = 0) stay elastic.
    """
    eps = np.asarray(eps_total, dtype=float)
    if not np.all(np.isfinite(eps)):
        raise FloatingPointError("non-finite strain passed to return_map")
    d = np.broadcast_to(np.asarray(d, dtype=float), eps.shape[:-1])
    phi = np.broadcast_to(np.asarray(phi, dtype=float), eps.shape[:-1])

    mu = params.shear_modulus
    h = params.hardening_modulus
    kappa = params.kappa
    fphi = transition_f(phi, kappa, regularized_heaviside, l_delta)
    gd = degradation_g(d, kappa)

    eps_e_tr = eps - state_n.eps_p
    s_tr = 2.0 * mu * deviator(eps_e_tr)       # effective trial deviator
    q_tr = np.sqrt(1.5) * tensor_norm(s_tr)
    beta_eff = q_tr - (params.yield_stress + h * state_n.alpha)

    solid = phi >= 0.0                          # Remark: void points are elastic
    plastic = (beta_eff > 0.0) & solid
    dlam = np.where(plastic, beta_eff / (3.0 * mu + h), 0.0)

    norm_s = tensor_norm(s_tr)
    safe = np.where(norm_s > 0.0, norm_s, 1.0)
    nhat = s_tr / safe[..., None]
    nhat = np.where(plastic[..., None], nhat, 0.0)

    eps_p = state_n.eps_p + np.sqrt(1.5) * dlam[..., None] * nhat
    alpha = state_n.alpha + dlam
    eps_e = eps - eps_p

    i1 = trace(eps_e)
    hplus = (i1 >= 0.0).astype(float)
    k = params.bulk_modulus
    dev_e = deviator(eps_e)
    sig_plus = 2.0 * mu * dev_e
    vol = (k * i1)[..., None] * np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    sig_plus = sig_plus + hplus[..., None] * vol
    sig_minus = (1.0 - hplus)[..., None] * vol
    sigma_eff = gd[..., None] * sig_plus + sig_minus
    sigma = fphi[..., None] * sigma_eff

    psi_plus, psi_minus = energy_split(eps_e, params)
    psi_p = 0.5 * h * alpha ** 2

    new_state = QuadState(eps_p=eps_p, alpha=alpha,
                          history=state_n.history.copy(), lambda_p=dlam)
    return StressResult(sigma=sigma, psi_plus=psi_plus,
                        psi_minus=psi_minus, new_state=new_state,
                        sigma_eff=sigma_eff, sigma_plus=sig_plus, psi_p=psi_p,
                        tangent_args=(params, fphi, gd, hplus, plastic,
                                      dlam, eps_e, nhat))


def _tangent(params, fphi, gd, hplus, plastic, dlam, eps_e, nhat):
    """Degraded consistent tangent in engineering Voigt form."""
    k = params.bulk_modulus
    mu = params.shear_modulus
    h = params.hardening_modulus

    batch = dlam.shape
    c_plus = np.zeros(batch + (6, 6))
    c_plus += hplus[..., None, None] * (k * _J_VOL)

    # delta_1 = dlam / (sqrt(3/2)|s_dev| + 3 mu dlam) = dlam / q_trial
    s_dev = 2.0 * mu * deviator(eps_e)
    q_post = np.sqrt(1.5) * tensor_norm(s_dev)
    denom = q_post + 3.0 * mu * dlam
    guard = (denom > 0.0) & plastic
    delta1 = np.where(guard, dlam / np.where(guard, denom, 1.0), 0.0)
    delta2 = 1.0 / (3.0 * mu + h)

    c_plus += (2.0 * mu * (1.0 - 3.0 * mu * delta1))[..., None, None] * _P_DEV
    coeff = 6.0 * mu ** 2 * np.where(guard, delta1 - delta2, 0.0)
    c_plus += coeff[..., None, None] * np.einsum("...i,...j->...ij", nhat, nhat)

    c_minus = (1.0 - hplus)[..., None, None] * (k * _J_VOL)
    return fphi[..., None, None] * (gd[..., None, None] * c_plus + c_minus)


def consistent_tangent(result: StressResult, params: MaterialParams, d, phi,
                       regularized_heaviside: bool = False,
                       l_delta: float = 5.0) -> np.ndarray:
    """Recompute the consistent tangent from a completed state update.

    Elastic points (zero plastic multiplier) reduce to the degraded elastic
    tensor; the division guard covers the simultaneous vanishing of the
    deviator norm and the multiplier.
    """
    d = np.broadcast_to(np.asarray(d, dtype=float), result.psi_plus.shape)
    phi = np.broadcast_to(np.asarray(phi, dtype=float), result.psi_plus.shape)
    fphi = transition_f(phi, params.kappa, regularized_heaviside, l_delta)
    gd = degradation_g(d, params.kappa)
    # rebuild the flow direction and trial measures from the stored state
    dlam = result.new_state.lambda_p
    plastic = dlam > 0.0
    # sigma_eff = gd*sig+ + sig-; deviatoric part is gd * 2 mu dev(eps_e)
    s_eff_dev = deviator(result.sigma_eff) / gd[..., None]
    norm_s = tensor_norm(s_eff_dev)
    safe = np.where(norm_s > 0.0, norm_s, 1.0)
    nhat = np.where(plastic[..., None], s_eff_dev / safe[..., None], 0.0)
    i1_sign = trace(result.sigma_eff)  # volumetric stress sign tracks I1
    hplus = (i1_sign >= 0.0).astype(float)
    eps_e_like = s_eff_dev / (2.0 * params.shear_modulus)
    # reuse _tangent with deviator-only eps_e (volumetric part enters via hplus)
    return _tangent(params, fphi, gd, hplus, plastic, dlam, eps_e_like, nhat)
