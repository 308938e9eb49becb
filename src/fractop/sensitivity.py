"""Path-dependent adjoint sensitivity of the incremental work objective with
respect to the nodal topological field, plus velocity extraction for the
level-set update.

Per load step the transposed tangent system is solved with the adjoint
pinned to half the displacement increment on prescribed DOFs; under
monotonic loading the step-(n-1) multiplier equals the previous step's
multiplier.  Formulation 1 constrains the displacement residual only,
Formulation 2 the coupled displacement/crack system.  The assembled solid
sensitivity is the total derivative dJ/dPhi of the (signed) objective
J = -sum_n (P^n + P^{n-1}) . du^n / 2, so descent velocities follow as
v = -(G_S + G_V).
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import material as mat
from .forward import (Problem, SolverSettings, Trajectory,
                      assemble_tangent_blocks, constitutive_sweep,
                      linear_solve, _element_csr, _scatter_udofs, _voigt_rows)
from .levelset import dirac_regularized

log = logging.getLogger("fractop")


@dataclass
class AdjointState:
    """Adjoint vectors of one load step (step-n lambdas, step-(n-1) mus)."""

    lambda_u: np.ndarray
    mu_u: np.ndarray
    lambda_d: np.ndarray = None
    mu_d: np.ndarray = None
    lambda_v: float = 0.0


def objective_increment(p_n, p_n_minus_1, du) -> float:
    """Trapezoidal work increment J^n = -(P^n + P^{n-1}) . du / 2."""
    p_n = np.asarray(p_n, dtype=float)
    p_m = np.asarray(p_n_minus_1, dtype=float)
    du = np.asarray(du, dtype=float)
    return float(-0.5 * (p_n + p_m) @ du)


def objective_total(trajectory: Trajectory) -> float:
    """Signed objective summed over the committed load history."""
    total = 0.0
    for n in range(1, trajectory.n_steps + 1):
        du = trajectory.fields[n].u - trajectory.fields[n - 1].u
        total += objective_increment(trajectory.fields[n].p_u,
                                     trajectory.fields[n - 1].p_u, du)
    return total


def residual_phi_derivative(problem: Problem, fields, qstate_prev,
                            settings: SolverSettings):
    """Explicit partial derivatives dR_u/dPhi and dR_d/dPhi at a committed
    state.

    The Heaviside slope is replaced by the regularized Dirac; plastic
    variables and the crack driving history are held fixed, so only the
    transition-function placements differentiate.  The quadratic transition
    penalty contributes its 2 H(phi) factor, which gates void points to
    (near) zero sensitivity.
    """
    mesh = problem.mesh
    p = problem.params
    kappa = p.kappa
    rows = _voigt_rows(mesh.dimension)

    result, d_qp, phi_qp = constitutive_sweep(
        problem, fields.u, fields.d, fields.phi, qstate_prev)
    dfac = (2.0 * (1.0 - kappa)
            * mat.heaviside_regularized(phi_qp, problem.l_delta)
            * dirac_regularized(phi_qp, problem.l_delta))

    edofs = _scatter_udofs(mesh)
    ndofe = edofs.shape[1]
    nen = mesh.nodes_per_elem

    coef = dfac[..., None] * result.sigma_eff[..., rows]
    blk = np.einsum("eqsi,eqs,qa,eq->eia", mesh.b_u, coef, mesh.shape_n,
                    mesh.w_detj)
    if problem.body_force is not None:
        fb = np.einsum("eq,qb,c,qa->ebca", dfac * mesh.w_detj, mesh.shape_n,
                       problem.body_force, mesh.shape_n)
        blk -= fb.reshape(mesh.n_elems, ndofe, nen)
    dru = _element_csr(edofs, mesh.conn, blk, (mesh.n_udof, mesh.n_nodes))

    # crack residual: with the history frozen only the gradient-term
    # transition factor depends on phi
    grad_d = mesh.qp_gradient(fields.d)
    gradw = mesh.w_detj * p.l_f ** 2 * dfac
    dblk = np.einsum("eq,eqbd,eqd,qa->eba", gradw, mesh.dn_dx, grad_d,
                     mesh.shape_n)
    drd = _element_csr(mesh.conn, mesh.conn, dblk,
                       (mesh.n_nodes, mesh.n_nodes))
    return dru, drd


def adjoint_solve(blocks, du_full: np.ndarray, problem: Problem,
                  settings: SolverSettings, formulation: int = 2):
    """Solve the transposed tangent system with prescribed-DOF entries of
    the displacement adjoint pinned to du/2.

    Returns (lambda_u, lambda_d); lambda_d is None for Formulation 1.
    """
    mesh = problem.mesh
    pres = problem.prescribed_dofs
    free = problem.free_dofs
    pinned = 0.5 * du_full[pres]

    if formulation == 1:
        kt = blocks.k_uu.T.tocsr()
        lam = np.zeros(mesh.n_udof)
        lam[pres] = pinned
        if free.size:
            rhs = -kt[free][:, pres] @ pinned
            lam[free] = linear_solve(kt[free][:, free], rhs, settings)
        return lam, None
    if formulation != 2:
        raise ValueError("formulation must be 1 or 2")

    ku = mesh.n_udof
    big = sp.bmat([[blocks.k_uu, blocks.k_ud],
                   [blocks.k_du, blocks.k_dd]], format="csr").T.tocsr()
    unknown = np.concatenate([free, ku + np.arange(mesh.n_nodes)])
    lam_full = np.zeros(ku + mesh.n_nodes)
    lam_full[pres] = pinned
    rhs = -big[unknown][:, pres] @ pinned
    lam_full[unknown] = linear_solve(big[unknown][:, unknown], rhs, settings)
    return lam_full[:ku], lam_full[ku:]


def adjoint_sweep(problem: Problem, trajectory: Trajectory,
                  settings: SolverSettings, formulation: int = 2):
    """Per-step adjoints over the whole trajectory.

    The mu multipliers reuse the previous step's lambdas (monotonic
    loading); step zero is solved at the unloaded tangent so the n = 1
    constraint is honored exactly.
    """
    adjoints = []
    lam_prev = None
    for n in range(1, trajectory.n_steps + 1):
        du = trajectory.fields[n].u - trajectory.fields[n - 1].u
        if lam_prev is None:
            blocks0 = assemble_tangent_blocks(
                problem, trajectory.fields[0], trajectory.qstates[0],
                trajectory.fields[0].d, settings)
            lam_prev = adjoint_solve(blocks0, du, problem, settings,
                                     formulation)
        blocks = assemble_tangent_blocks(
            problem, trajectory.fields[n], trajectory.qstates[n - 1],
            trajectory.fields[n - 1].d, settings)
        lam = adjoint_solve(blocks, du, problem, settings, formulation)
        adjoints.append(AdjointState(lambda_u=lam[0], lambda_d=lam[1],
                                     mu_u=lam_prev[0], mu_d=lam_prev[1]))
        lam_prev = lam
    return adjoints


def solid_sensitivity(problem: Problem, trajectory: Trajectory,
                      adjoints, settings: SolverSettings,
                      formulation: int = 2) -> np.ndarray:
    """Assemble G_S = dJ/dPhi by pairing the adjoints with the explicit
    residual derivatives of their own and the preceding step."""
    if len(adjoints) != trajectory.n_steps:
        raise ValueError("adjoint count does not match trajectory length")
    n_nodes = problem.mesh.n_nodes
    g_s = np.zeros(n_nodes)

    # cache dR/dPhi per committed level; level 0 is strain-free and vanishes
    deriv_cache = {0: None}

    def deriv(level):
        if level not in deriv_cache:
            deriv_cache[level] = residual_phi_derivative(
                problem, trajectory.fields[level],
                trajectory.qstates[level - 1], settings)
        return deriv_cache[level]

    for n in range(1, trajectory.n_steps + 1):
        adj = adjoints[n - 1]
        dn = deriv(n)
        g_s -= adj.lambda_u @ dn[0]
        if formulation == 2 and adj.lambda_d is not None:
            g_s -= adj.lambda_d @ dn[1]
        dm = deriv(n - 1)
        if dm is not None:
            g_s -= adj.mu_u @ dm[0]
            if formulation == 2 and adj.mu_d is not None:
                g_s -= adj.mu_d @ dm[1]
    return g_s


def velocity_from_sensitivity(g_total: np.ndarray) -> np.ndarray:
    """Steepest-descent interface velocity, normalized by the mean
    magnitude so the level-set step size is scale-free."""
    g_total = np.asarray(g_total, dtype=float)
    if not np.all(np.isfinite(g_total)):
        raise ValueError("sensitivity field contains non-finite entries")
    v = -g_total
    scale = np.mean(np.abs(v))
    if scale < 1e-14:
        warnings.warn("velocity normalization skipped: mean |v| below 1e-14")
        return v
    return v / scale
