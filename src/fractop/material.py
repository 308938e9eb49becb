"""Constitutive kernel: volumetric/deviatoric energy split, degradation and
solid/void transition functions, the crack surface density, radial-return J2
plasticity and the algorithmically consistent tangent.

The consistent tangent of this isotropic model is fixed by three scalars per
material point, C = a (1 x 1) + b P_dev + c (n x n) with n the unit flow
direction and c = 0 at elastic points (Simo & Taylor, CMAME 48, 1985).
``tangent_moduli`` computes (a, b, c); the stiffness assembly works from
these, and the 6x6 ``StressResult.tangent`` is the same formula composed.

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

from .levelset import (dirac_regularized, heaviside_exact,
                       heaviside_regularized)

# double-contraction weights for tensor Voigt storage
VOIGT_WEIGHT = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

# isotropic fourth-order operators in engineering Voigt form (strain input
# [e11, e22, e33, g23, g13, g12], stress output [s11, s22, s33, s23, s13, s12])
_J_VOL = np.zeros((6, 6))
_J_VOL[:3, :3] = 1.0
P_DEV = np.diag([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])
P_DEV[:3, :3] -= 1.0 / 3.0


@dataclass(frozen=True)
class MaterialParams:
    """Constitutive and regularization constants (MPa / mm units); the
    crack residual's viscous term is (eta_f / tau_f)(d - d_prev)."""

    bulk_modulus: float
    shear_modulus: float
    hardening_modulus: float = 0.0
    yield_stress: float = 1e16
    psi_c: float = 1.0
    zeta: float = 1.0
    eta_f: float = 1e-6
    tau_f: float = 1e-4
    kappa: float = 1e-8
    l_f: float = 1.0

    def __post_init__(self):
        for name in ("bulk_modulus", "shear_modulus", "psi_c", "l_f", "tau_f"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("hardening_modulus", "yield_stress", "zeta", "eta_f"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        # an infinite threshold (psi_c, yield_stress) or time scale (tau_f)
        # means "never" and is solved as such; a modulus or length is not
        for name in ("bulk_modulus", "shear_modulus", "hardening_modulus",
                     "l_f", "zeta", "eta_f"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1)")

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


@dataclass
class StressResult:
    """Outcome of one constitutive update."""

    sigma: np.ndarray        # (..., 6) degraded stress
    psi_plus: np.ndarray     # (...) effective damageable energy
    new_state: QuadState
    sigma_eff: np.ndarray = None   # (..., 6) g(d)*sigma+~ + sigma-~ (no f)
    sigma_plus: np.ndarray = None  # (..., 6) effective damageable stress
    psi_p: np.ndarray = None       # (...) effective plastic energy 0.5*h*alpha^2
    nhat: np.ndarray = None        # (..., 6) unit flow direction, 0 if elastic
    fphi: np.ndarray = None        # (...) solid/void transition f(phi) applied
    tangent_args: tuple = field(default=None, repr=False)

    @cached_property
    def moduli(self) -> tuple:
        """Scalars (a, b, c) of the consistent tangent, each shaped like
        ``psi_plus``; see ``tangent_moduli``.

        Built on first access, because most updates (Newton residual checks,
        history sweeps) never read it.  ``tangent_args`` holds the arrays the
        update itself computed, so the values equal those of an eager
        evaluation to the last bit.
        """
        return tangent_moduli(*self.tangent_args)

    @cached_property
    def tangent(self) -> np.ndarray:
        """(..., 6, 6) consistent tangent, engineering Voigt form."""
        return _tangent(*self.tangent_args, self.nhat)


def trace(t6: np.ndarray) -> np.ndarray:
    return t6[..., 0] + t6[..., 1] + t6[..., 2]


def deviator(t6: np.ndarray) -> np.ndarray:
    return _trace_and_deviator(t6)[1]


def _trace_and_deviator(t6: np.ndarray):
    i1 = trace(t6)
    dev = t6.copy()
    m = i1 / 3.0
    dev[..., 0] -= m
    dev[..., 1] -= m
    dev[..., 2] -= m
    return i1, dev


def tensor_norm(t6: np.ndarray) -> np.ndarray:
    """Frobenius norm of a symmetric tensor in tensor Voigt storage."""
    return np.sqrt(np.einsum("...i,i,...i->...", t6, VOIGT_WEIGHT, t6))


def degradation_g(d, kappa):
    """Quadratic stiffness degradation g(d) = (1-kappa)(1-d)^2 + kappa."""
    d = np.asarray(d, dtype=float)
    if np.any(d < -1e-12) or np.any(d > 1.0 + 1e-12):
        raise ValueError("crack field d outside [0, 1]")
    return (1.0 - kappa) * (1.0 - d) ** 2 + kappa


def transition_f(phi, kappa, l_delta: float = None):
    """Solid/void transition f = (1-kappa) H(phi)^2 + kappa.

    With the exact (idempotent) Heaviside the quadratic penalty equals the
    linear form.  A width ``l_delta`` swaps in the logistic regularized
    Heaviside of that width, keeping the square so the slope matches the
    analytic 2 H delta factor.  The forward solver picks one of the two per
    topology layout (``forward.Problem.layout``), and only the
    finite-difference arm of the sensitivity check picks the regularized
    one.
    """
    h = (heaviside_exact(phi) if l_delta is None
         else heaviside_regularized(phi, l_delta))
    return (1.0 - kappa) * h ** 2 + kappa


def transition_slope(phi, kappa, l_delta: float):
    """Slope 2 (1-kappa) H(phi) delta(phi) of the regularized transition,
    with the logistic Heaviside and Dirac of width ``l_delta``; dR/dPhi
    takes it whichever transition the forward solve used."""
    return (2.0 * (1.0 - kappa)
            * heaviside_regularized(phi, l_delta)
            * dirac_regularized(phi, l_delta))


def crack_density(d, grad_d, l_f: float):
    """Crack surface density gamma = (d^2 / l_f + l_f |grad d|^2) / 2."""
    if l_f <= 0:
        raise ValueError("l_f must be positive")
    d = np.asarray(d, dtype=float)
    grad_d = np.asarray(grad_d, dtype=float)
    grad_sq = np.einsum("...d,...d->...", grad_d, grad_d)
    return 0.5 * (d ** 2 / l_f + l_f * grad_sq)


def energy_split(eps_e: np.ndarray, params: MaterialParams):
    """Additive split of the effective strain energy into damageable and
    undamageable parts.

    psi+ = H+[I1] K/2 I1^2 + mu e_dev:e_dev ,   psi- = (1 - H+[I1]) K/2 I1^2.
    H+ is 1 for I1 >= 0 (right-continuous tie-break) and 0 otherwise.
    """
    i1, dev = _trace_and_deviator(np.asarray(eps_e, dtype=float))
    _, psi_plus, psi_minus = _split_energy(i1, dev, params)
    return psi_plus, psi_minus


def _split_energy(i1, dev, params: MaterialParams):
    """H+[I1], psi+ and psi- of ``energy_split`` from the trace and the
    deviator of the elastic strain."""
    hplus = (i1 >= 0.0).astype(float)
    psi_vol = 0.5 * params.bulk_modulus * i1 ** 2
    psi_dev = params.shear_modulus * np.einsum(
        "...i,i,...i->...", dev, VOIGT_WEIGHT, dev)
    return hplus, hplus * psi_vol + psi_dev, (1.0 - hplus) * psi_vol


def return_map(eps_total: np.ndarray, state_n: QuadState, d, phi,
               params: MaterialParams, fphi=None) -> StressResult:
    """Radial-return state update for degraded J2 plasticity.

    The yield function compares the degraded deviatoric stress against the
    degraded yield force f(phi) g(d) (sigma_Y + h alpha); both carry the same
    factor, so the plastic multiplier equals the effective (undegraded) one.
    Void points (H(phi) = 0) stay elastic.

    ``fphi`` is the solid/void transition f(phi) at the points; ``None``
    takes the exact ``transition_f(phi, kappa)``.  The value used is kept as
    ``StressResult.fphi``.

    When no point of the batch yields, the return is skipped: the trial
    deviator, its trace and 2 mu dev are the final ones and give sigma+ and
    psi+ directly.  The values are the ones the return would compute, bit
    for bit, because at an elastic point it only adds zero increments.  The
    new state then holds ``state_n.eps_p`` and ``state_n.alpha`` themselves,
    and ``state_n.lambda_p`` too when it is all zero; ``nhat`` is a
    read-only zero view.  ``state_n`` holds one entry per point of the
    batch, so a shared array has the shape a fresh one would.
    """
    eps = np.asarray(eps_total, dtype=float)
    if not np.all(np.isfinite(eps)):
        raise FloatingPointError("non-finite strain passed to return_map")
    d = np.broadcast_to(np.asarray(d, dtype=float), eps.shape[:-1])
    phi = np.broadcast_to(np.asarray(phi, dtype=float), eps.shape[:-1])

    mu = params.shear_modulus
    h = params.hardening_modulus
    kappa = params.kappa
    if fphi is None:
        fphi = transition_f(phi, kappa)
    gd = degradation_g(d, kappa)

    eps_e = eps - state_n.eps_p                 # trial elastic strain
    i1, dev_e = _trace_and_deviator(eps_e)
    s_tr = 2.0 * mu * dev_e                     # effective trial deviator
    norm_s = tensor_norm(s_tr)
    q_tr = np.sqrt(1.5) * norm_s
    beta_eff = q_tr - (params.yield_stress + h * state_n.alpha)

    solid = phi >= 0.0                          # Remark: void points are elastic
    plastic = (beta_eff > 0.0) & solid
    if plastic.any():
        dlam = np.where(plastic, beta_eff / (3.0 * mu + h), 0.0)
        safe = np.where(norm_s > 0.0, norm_s, 1.0)
        nhat = np.where(plastic[..., None], s_tr / safe[..., None], 0.0)
        eps_p = state_n.eps_p + np.sqrt(1.5) * dlam[..., None] * nhat
        i1, dev_e = _trace_and_deviator(eps - eps_p)
        sig_plus = 2.0 * mu * dev_e
        alpha = state_n.alpha + dlam
    else:
        # the trial state is final and the plastic state is the previous
        # one.  eps_p and alpha start at +0.0, and a sum is -0.0 only when
        # both terms are, so they never hold -0.0 and x + 0.0 is x: the
        # return's zero increment would move no bit
        dlam = (state_n.lambda_p if not state_n.lambda_p.any()
                else np.zeros(plastic.shape))
        nhat = np.broadcast_to(0.0, s_tr.shape)
        eps_p = state_n.eps_p
        alpha = state_n.alpha
        sig_plus = s_tr

    k = params.bulk_modulus
    hplus, psi_plus, _ = _split_energy(i1, dev_e, params)
    vol = (k * i1)[..., None] * np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    sig_plus = sig_plus + hplus[..., None] * vol
    sig_minus = (1.0 - hplus)[..., None] * vol
    sigma_eff = gd[..., None] * sig_plus + sig_minus
    sigma = fphi[..., None] * sigma_eff
    psi_p = 0.5 * h * alpha ** 2

    new_state = QuadState(eps_p=eps_p, alpha=alpha,
                          history=state_n.history.copy(), lambda_p=dlam)
    return StressResult(sigma=sigma, psi_plus=psi_plus, new_state=new_state,
                        sigma_eff=sigma_eff, sigma_plus=sig_plus, psi_p=psi_p,
                        nhat=nhat, fphi=fphi,
                        tangent_args=(params, fphi, gd, hplus, plastic, dlam,
                                      dev_e))


def tangent_moduli(params, fphi, gd, hplus, plastic, dlam, dev_e):
    """Scalars (a, b, c) of the degraded consistent tangent
    C = a (1 x 1) + b P_dev + c (n x n), in engineering Voigt form.

    a carries the bulk modulus through the tension/compression split, b the
    (plastically reduced) shear modulus and c the radial-return correction
    along the flow direction n; c is 0 wherever the point is elastic.
    ``dev_e`` is the deviator of the elastic strain after the return.
    """
    k = params.bulk_modulus
    mu = params.shear_modulus
    h = params.hardening_modulus

    # delta_1 = dlam / (sqrt(3/2)|s_dev| + 3 mu dlam) = dlam / q_trial
    s_dev = 2.0 * mu * dev_e
    q_post = np.sqrt(1.5) * tensor_norm(s_dev)
    denom = q_post + 3.0 * mu * dlam
    guard = (denom > 0.0) & plastic
    delta1 = np.where(guard, dlam / np.where(guard, denom, 1.0), 0.0)
    delta2 = 1.0 / (3.0 * mu + h)

    fg = fphi * gd
    a = fphi * k * (gd * hplus + (1.0 - hplus))
    b = fg * (2.0 * mu * (1.0 - 3.0 * mu * delta1))
    c = fg * (6.0 * mu ** 2 * np.where(guard, delta1 - delta2, 0.0))
    return a, b, c


def _tangent(params, fphi, gd, hplus, plastic, dlam, dev_e, nhat):
    """Degraded consistent tangent in engineering Voigt form: the three
    ``tangent_moduli`` composed into (..., 6, 6)."""
    a, b, c = tangent_moduli(params, fphi, gd, hplus, plastic, dlam, dev_e)
    return (a[..., None, None] * _J_VOL + b[..., None, None] * P_DEV
            + c[..., None, None] * np.einsum("...i,...j->...ij", nhat, nhat))
