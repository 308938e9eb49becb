"""Geometry projection of the topological field (exact and regularized
Heaviside, regularized Dirac), volume measures and the reaction-diffusion
update of the level-set surface.

The field is held at mesh nodes in [-1, 1]; material occupies {phi >= 0}.
The Heaviside is evaluated at quadrature points from the interpolated field,
so interface-cut elements integrate partial stiffness and volume.

The update's matrix depends on the mesh and ``TopoParams`` alone, so
``reaction_diffusion_system`` factors it once (sparse LU) and each
``solve_reaction_diffusion`` call, one per bisection trial, only runs the
triangular solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit
# spsolve is unused here, but perfbench's tracer lists this
# binding in EXPECTED_BINDINGS and refuses to install without it
from scipy.sparse.linalg import splu, spsolve  # noqa: F401

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


@dataclass(frozen=True)
class ReactionDiffusionSystem:
    """The level-set update's matrix eta M / tau + l^2 L on the free nodes,
    factored by sparse LU, and what the right-hand side needs besides the
    fields: the mass matrix, ``coef = eta / tau`` and the load that the
    nodes pinned to 1 put on the free ones."""

    mass: object
    coef: float
    free: np.ndarray
    pinned: np.ndarray
    pinned_load: np.ndarray
    factors: object


def reaction_diffusion_system(mesh: Mesh, params: TopoParams,
                              pinned_nodes=()) -> ReactionDiffusionSystem:
    """Factor the reaction-diffusion matrix once for every right-hand side
    of one bisection; the mass and Laplace matrices are the mesh's cached
    ones, and ``phi = 1`` is pinned on ``pinned_nodes``."""
    mass = mesh.mass_matrix
    coef = params.eta_phi / params.tau_phi
    lhs = (coef * mass + params.l_phi ** 2 * mesh.laplace_matrix).tocsr()
    pinned = np.asarray(pinned_nodes, dtype=int)
    free = np.setdiff1d(np.arange(mesh.n_nodes), pinned)
    lhs_f = lhs[free]
    return ReactionDiffusionSystem(
        mass=mass, coef=coef, free=free, pinned=pinned,
        pinned_load=lhs_f[:, pinned] @ np.ones(pinned.size),
        factors=splu(lhs_f[:, free].tocsc()))


def solve_reaction_diffusion(system: ReactionDiffusionSystem,
                             phi_m: np.ndarray,
                             velocity: np.ndarray) -> np.ndarray:
    """One implicit pseudo-time step of the level-set evolution.

    Solves the weak form
        int [ (v - eta/tau (phi - phi_m)) dphi - l^2 grad phi . grad dphi ] dx = 0
    with homogeneous Neumann sides, ``phi = 1`` on the system's pinned nodes
    (the loaded region) and the result clamped to [-1, 1].  Only the
    triangular solves with the system's LU factors run here; they give the
    bytes ``spsolve`` gives on the same matrix.
    """
    velocity = np.asarray(velocity, dtype=float)
    if not np.all(np.isfinite(velocity)):
        raise FloatingPointError("non-finite velocity field")
    rhs = system.mass @ (velocity + system.coef * phi_m)
    phi = np.empty(rhs.size)
    phi[system.pinned] = 1.0
    phi[system.free] = system.factors.solve(rhs[system.free]
                                            - system.pinned_load)
    if not np.all(np.isfinite(phi)):
        raise RuntimeError("reaction-diffusion solve produced non-finite field")
    return np.clip(phi, -1.0, 1.0)
