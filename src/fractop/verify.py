"""Finite-difference oracles: central-difference verification of the adjoint
sensitivity (full forward re-solves per probe) and of the consistent tangent
at sampled material states.

The finite-difference arm replaces the exact Heaviside in the solid/void
transition by its regularized counterpart (the integral of the regularized
Dirac); the analytic arm keeps the exact projection.  The arm's forward
solves run on the caller's problem, so they share its mesh-only caches
(band patterns, element operators), and each load history builds its own
regularized ``Problem.layout`` (``run_load_history(..., regularized=True)``).
A probe whose forward solve fails (``SolverError``, ``FloatingPointError``)
is reported as NaN; any other error propagates.  The remaining discrepancy
sources are the perturbation size and the regularization itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import material as mat
from .forward import Problem, SolverError, SolverSettings, run_load_history
from .levelset import heaviside_exact
from .material import MaterialParams, QuadState
from .sensitivity import adjoint_sweep, objective_total, solid_sensitivity

ERROR_FLOOR = 1e-14


@dataclass
class FDReport:
    """Per-node comparison of analytic and finite-difference sensitivities."""

    nodes: np.ndarray
    analytic: np.ndarray
    fd: np.ndarray
    rel_error: np.ndarray   # one per probe, NaN where the probe failed
    delta_phi: float

    @property
    def invalid(self) -> np.ndarray:
        """Probes whose finite-difference solve failed (``fd`` is NaN)."""
        return np.isnan(self.fd)

    @property
    def max_rel_error(self) -> float:
        """Largest error over the valid probes; NaN when there are none."""
        valid = self.rel_error[~self.invalid]
        return float(np.max(valid)) if valid.size else np.nan

    @property
    def mean_rel_error(self) -> float:
        """Mean error over the valid probes; NaN when there are none."""
        valid = self.rel_error[~self.invalid]
        return float(np.mean(valid)) if valid.size else np.nan


def relative_error(a, b, floor: float = ERROR_FLOOR):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def _lagrangian(problem: Problem, phi, n_steps, du_per_step,
                settings: SolverSettings) -> float:
    """Objective at a re-solved forward state with the regularized Heaviside
    driving the transition."""
    traj = run_load_history(problem, n_steps, du_per_step, settings, phi=phi,
                            regularized=True)
    return objective_total(traj)


def fd_sensitivity(problem: Problem, index: int, delta_phi: float,
                   n_steps: int, du_per_step: float,
                   settings: SolverSettings = None, phi=None) -> float:
    """Central difference of the Lagrangian under a perturbation of the
    topological field at one node; returns the velocity estimate -dL/dPhi."""
    base = (np.ones(problem.mesh.n_nodes) if phi is None
            else np.asarray(phi, float))
    phi_plus = base.copy()
    phi_plus[index] += delta_phi
    phi_minus = base.copy()
    phi_minus[index] -= delta_phi
    l_plus = _lagrangian(problem, phi_plus, n_steps, du_per_step, settings)
    l_minus = _lagrangian(problem, phi_minus, n_steps, du_per_step, settings)
    return -(l_plus - l_minus) / (2.0 * delta_phi)


def compare_sensitivities(problem: Problem, nodes, n_steps: int,
                          du_per_step: float,
                          settings: SolverSettings = None, phi=None,
                          formulation: int = 1,
                          delta_phi: float = 1e-4) -> FDReport:
    """Run both pipelines on a probe subset and report per-node errors.

    The analytic arm runs the exact-Heaviside forward solve, the adjoint
    sweep and the assembled solid sensitivity; the FD arm re-solves the
    forward problem per probe with the regularized transition.
    """
    mesh = problem.mesh
    base = np.ones(mesh.n_nodes) if phi is None else np.asarray(phi, float)
    nodes = np.asarray(nodes, dtype=int)

    traj = run_load_history(problem, n_steps, du_per_step, settings, phi=base)
    adjoints = adjoint_sweep(problem, traj, formulation)
    analytic_v = -solid_sensitivity(adjoints)[nodes]

    fd_v = np.empty(nodes.size)
    for i, node in enumerate(nodes):
        try:
            fd_v[i] = fd_sensitivity(problem, int(node), delta_phi, n_steps,
                                     du_per_step, settings, phi=base)
        except (SolverError, FloatingPointError):
            fd_v[i] = np.nan   # a failed probe (FDReport.invalid)
    return FDReport(nodes=nodes, analytic=analytic_v, fd=fd_v,
                    rel_error=relative_error(analytic_v, fd_v),
                    delta_phi=delta_phi)


def interior_solid_nodes(problem: Problem, phi=None) -> np.ndarray:
    """Nodes away from the box boundary with a solid topological value,
    excluding the driven (phi-pinned) region."""
    mesh = problem.mesh
    phi = np.ones(mesh.n_nodes) if phi is None else np.asarray(phi, float)
    coords = mesh.coords
    tol = 1e-9
    interior = np.ones(mesh.n_nodes, dtype=bool)
    for k in range(mesh.dimension):
        interior &= coords[:, k] > tol
        interior &= coords[:, k] < mesh.extents[k] - tol
    interior &= heaviside_exact(phi) > 0.5
    interior[problem.driven_nodes] = False
    return np.flatnonzero(interior)


def fd_tangent_check(params: MaterialParams, strains, states: QuadState,
                     d, phi, h_rel: float = 1e-6):
    """Central finite difference of the return-mapped stress against the
    consistent tangent at the given material points.

    Perturbs engineering strain components, so the result is directly
    comparable to the assembled tangent columns.  Returns the max relative
    error and the per-state error array.
    """
    strains = np.atleast_2d(np.asarray(strains, dtype=float))
    n = strains.shape[0]
    d = np.broadcast_to(np.asarray(d, dtype=float), (n,))
    phi = np.broadcast_to(np.asarray(phi, dtype=float), (n,))

    base = mat.return_map(strains, states, d, phi, params)
    scale = np.maximum(np.abs(strains).max(axis=1), 1e-3)
    errors = np.zeros(n)
    fd_tan = np.zeros_like(base.tangent)
    for j in range(6):
        h = h_rel * scale
        # engineering perturbation: shear tensor components move by h/2
        step = np.zeros((n, 6))
        step[:, j] = h if j < 3 else 0.5 * h
        plus = mat.return_map(strains + step, states, d, phi, params)
        minus = mat.return_map(strains - step, states, d, phi, params)
        fd_tan[:, :, j] = (plus.sigma - minus.sigma) / (2.0 * h[:, None])
    norm = np.maximum(np.linalg.norm(base.tangent, axis=(1, 2)), ERROR_FLOOR)
    errors = np.linalg.norm(base.tangent - fd_tan, axis=(1, 2)) / norm
    return float(errors.max()), errors
