"""Crack phase-field kernel: regularized crack surface density, normalized
driving force with threshold, critical energy density and the irreversibility
history update.

The driving force is always fed with *effective* energies (no stiffness
degradation); the solid/void transition enters through the caller scaling the
energies before the threshold is applied.
"""

from __future__ import annotations

import numpy as np

from .material import MaterialParams


def crack_density(d, grad_d, l_f: float):
    """Crack surface density gamma = (d^2 / l_f + l_f |grad d|^2) / 2."""
    if l_f <= 0:
        raise ValueError("l_f must be positive")
    d = np.asarray(d, dtype=float)
    grad_d = np.asarray(grad_d, dtype=float)
    grad_sq = np.einsum("...d,...d->...", grad_d, grad_d)
    return 0.5 * (d ** 2 / l_f + l_f * grad_sq)


def critical_psi(sigma_c=None, g_c=None, e_modulus=None, l_f=None) -> float:
    """Critical fracture energy density from either the critical stress
    (sigma_c^2 / 2E) or the toughness (3 G_c / (8 l_f sqrt(2)))."""
    if (sigma_c is None) == (g_c is None):
        raise ValueError("provide exactly one of sigma_c, g_c")
    if sigma_c is not None:
        if e_modulus is None or e_modulus <= 0:
            raise ValueError("sigma_c branch needs a positive Young's modulus")
        return float(sigma_c) ** 2 / (2.0 * e_modulus)
    if l_f is None or l_f <= 0:
        raise ValueError("g_c branch needs a positive length scale")
    return 3.0 * float(g_c) / (8.0 * l_f * np.sqrt(2.0))


def driving_force(psi_plus, psi_p, params: MaterialParams):
    """Normalized crack driving force zeta * <(psi+ + psi_p)/psi_c - 1>."""
    total = np.asarray(psi_plus, dtype=float) + np.asarray(psi_p, dtype=float)
    return params.zeta * np.maximum(total / params.psi_c - 1.0, 0.0)


def update_history(history_n, d_tilde):
    """Running maximum enforcing crack irreversibility."""
    return np.maximum(np.asarray(history_n, dtype=float),
                      np.asarray(d_tilde, dtype=float))
