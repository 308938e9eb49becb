"""Geometry projection of the topological field (exact and regularized
Heaviside, regularized Dirac), volume measures and the reaction-diffusion
update of the level-set surface.

The field is held at mesh nodes in [-1, 1]; material occupies {phi >= 0}.
The Heaviside is evaluated at quadrature points from the interpolated field,
so interface-cut elements integrate partial stiffness and volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit
from scipy.sparse.linalg import spsolve

from .mesh import Mesh


@dataclass(frozen=True)
class TopoParams:
    """Reaction-diffusion evolution parameters."""

    eta_phi: float = 1.0
    l_phi: float = 1e-2
    tau_phi: float = 1e-4

    def __post_init__(self):
        for name in ("eta_phi", "l_phi", "tau_phi"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def heaviside_exact(phi):
    """Binary projection: 1 for phi >= 0, else 0."""
    return np.where(np.asarray(phi, dtype=float) >= 0.0, 1.0, 0.0)


def heaviside_regularized(phi, l_delta: float):
    """Logistic smoothing of the exact Heaviside, integral of the
    regularized Dirac."""
    return expit(l_delta * np.asarray(phi, dtype=float))


def dirac_regularized(phi, l_delta: float):
    """Logistic approximation of the interface Dirac delta.

    delta(phi) = l e^{-l phi} / (1 + e^{-l phi})^2, evaluated through |phi|
    so large arguments of either sign cannot overflow.
    """
    a = np.exp(-l_delta * np.abs(np.asarray(phi, dtype=float)))
    return l_delta * a / (1.0 + a) ** 2


def volume_ratio(mesh: Mesh, phi: np.ndarray) -> float:
    """Material volume fraction int H(phi) dx / int 1 dx by quadrature."""
    phi_qp = mesh.interpolate(phi)
    solid = (mesh.w_detj * heaviside_exact(phi_qp)).sum()
    return float(solid / mesh.total_volume())


def dirac_volume_vector(mesh: Mesh, phi: np.ndarray,
                        l_delta: float) -> np.ndarray:
    """Nodal assembly of int delta(phi) N_a dx (volume-constraint gradient)."""
    phi_qp = mesh.interpolate(phi)
    w = mesh.w_detj * dirac_regularized(phi_qp, l_delta)
    return mesh.scatter(np.einsum("eq,qa->ea", w, mesh.shape_n))


def solve_reaction_diffusion(mesh: Mesh, phi_m: np.ndarray,
                             velocity: np.ndarray, params: TopoParams,
                             pinned_nodes=()) -> np.ndarray:
    """One implicit pseudo-time step of the level-set evolution.

    Solves the weak form
        int [ (v - eta/tau (phi - phi_m)) dphi - l^2 grad phi . grad dphi ] dx = 0
    with homogeneous Neumann sides, ``phi = 1`` pinned on ``pinned_nodes``
    (the loaded region) and the result clamped to [-1, 1].  The mass and
    Laplace matrices are the mesh's cached ones.
    """
    velocity = np.asarray(velocity, dtype=float)
    if not np.all(np.isfinite(velocity)):
        raise FloatingPointError("non-finite velocity field")
    mass = mesh.mass_matrix
    coef = params.eta_phi / params.tau_phi
    lhs = (coef * mass + params.l_phi ** 2 * mesh.laplace_matrix).tocsr()
    rhs = mass @ (velocity + coef * phi_m)

    pinned = np.asarray(pinned_nodes, dtype=int)
    free = np.setdiff1d(np.arange(mesh.n_nodes), pinned)
    phi = np.empty(mesh.n_nodes)
    phi[pinned] = 1.0
    lhs_f = lhs[free]
    rhs_f = rhs[free] - lhs_f[:, pinned] @ phi[pinned]
    phi[free] = spsolve(lhs_f[:, free].tocsc(), rhs_f)
    if not np.all(np.isfinite(phi)):
        raise RuntimeError("reaction-diffusion solve produced non-finite field")
    return np.clip(phi, -1.0, 1.0)
