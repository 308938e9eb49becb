"""Forward solver: residual/tangent assembly for the displacement and crack
fields, the staggered solution scheme per load increment, and load-history
runs that record the trajectory consumed by the adjoint sweep.

Displacement control only: Dirichlet conditions are handled by row/column
elimination and reactions are recovered from the eliminated rows of the
internal force vector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from . import material as mat
from . import phasefield as pf
from .material import MaterialParams, QuadState
from .mesh import Mesh

log = logging.getLogger("fractop")


class SolverError(RuntimeError):
    """Raised when a linear or nonlinear solve fails to produce a usable
    state; carries diagnostic payload where available."""

    def __init__(self, message, residual=None, partial_trajectory=None):
        super().__init__(message)
        self.residual = residual
        self.partial_trajectory = partial_trajectory


@dataclass(frozen=True)
class SolverSettings:
    newton_tol_abs: float = 1e-10
    newton_tol_rel: float = 1e-8
    newton_max_iter: int = 25
    stagger_tol: float = 1e-6
    stagger_tol_abs: float = 1e-11
    stagger_max_iter: int = 200
    tau_f: float = 1e-4


@dataclass
class FieldSet:
    """Nodal fields at one committed time level plus recovered reactions."""

    u: np.ndarray       # (n_udof,)
    d: np.ndarray       # (n_nodes,) in [0, 1]
    phi: np.ndarray     # (n_nodes,) in [-1, 1]
    p_u: np.ndarray     # (n_udof,) reactions, nonzero only at prescribed DOFs

    def copy(self) -> "FieldSet":
        return FieldSet(self.u.copy(), self.d.copy(), self.phi.copy(),
                        self.p_u.copy())


@dataclass
class StepStats:
    stagger_iterations: int = 0
    newton_iterations: int = 0
    newton_corrections: int = 0
    d_overshoot: float = 0.0
    residual: float = 0.0
    stalled: bool = False   # accepted at the fixed point, not the tolerance


@dataclass
class Trajectory:
    """Committed snapshots over the load history (the adjoint's tape).

    ``fields[0]`` is the unloaded initial state; entry ``n`` corresponds to
    load step ``n``.
    """

    fields: list = field(default_factory=list)      # FieldSet per level
    qstates: list = field(default_factory=list)     # QuadState per level
    load_factor: list = field(default_factory=list)  # prescribed displacement
    reaction: list = field(default_factory=list)     # summed driven reactions
    stats: list = field(default_factory=list)        # StepStats per step
    tau_f: float = 1e-4
    complete: bool = True

    @property
    def n_steps(self) -> int:
        return len(self.fields) - 1


@dataclass
class TangentBlocks:
    """Coupled tangent of the (u, d) residual system at a committed state."""

    k_uu: sp.csr_matrix
    k_ud: sp.csr_matrix
    k_du: sp.csr_matrix
    k_dd: sp.csr_matrix


@dataclass
class Problem:
    """Mesh, material, kinematic constraints and loading of one scenario.

    ``supports`` lists (node_set, components) pairs pinned to zero;
    ``driven`` is the (node_set, components) pair that receives the
    prescribed displacement (the load factor).  The topological field is
    pinned to 1 on the driven set during level-set updates.
    """

    mesh: Mesh
    params: MaterialParams
    supports: list
    driven: tuple
    body_force: np.ndarray = None
    l_delta: float = 5.0

    prescribed_dofs: np.ndarray = None
    driven_dofs: np.ndarray = None
    free_dofs: np.ndarray = None

    def __post_init__(self):
        mesh = self.mesh
        pres = []
        for set_name, comps in self.supports:
            nodes = mesh.node_sets[set_name]
            for c in comps:
                pres.append(mesh.udofs_of(nodes, c))
        set_name, comps = self.driven
        driven = [mesh.udofs_of(mesh.node_sets[set_name], c) for c in comps]
        self.driven_dofs = np.unique(np.concatenate(driven))
        pres.append(self.driven_dofs)
        self.prescribed_dofs = np.unique(np.concatenate(pres))
        self.free_dofs = np.setdiff1d(np.arange(mesh.n_udof),
                                      self.prescribed_dofs)
        if self.body_force is not None:
            self.body_force = np.asarray(self.body_force, dtype=float)
            if not np.any(self.body_force):
                self.body_force = None

    @property
    def driven_nodes(self) -> np.ndarray:
        return self.mesh.node_sets[self.driven[0]]

    def initial_fields(self, phi=None) -> FieldSet:
        mesh = self.mesh
        if phi is None:
            phi = np.ones(mesh.n_nodes)
        return FieldSet(u=np.zeros(mesh.n_udof), d=np.zeros(mesh.n_nodes),
                        phi=np.asarray(phi, dtype=float).copy(),
                        p_u=np.zeros(mesh.n_udof))

    def initial_state(self) -> QuadState:
        return QuadState.zeros((self.mesh.n_elems,
                                len(self.mesh.quad_rule.weights)))


# ---------------------------------------------------------------------------
# kinematics and constitutive sweep
# ---------------------------------------------------------------------------

def strain_tensor6(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Quadrature-point strain in tensor Voigt form (plane strain in 2D)."""
    ue = u.reshape(mesh.n_nodes, mesh.dimension)[mesh.conn]
    ue = ue.reshape(mesh.n_elems, -1)
    eng = np.einsum("eqsi,ei->eqs", mesh.b_u, ue)
    out = np.zeros(eng.shape[:2] + (6,))
    if mesh.dimension == 2:
        out[..., 0] = eng[..., 0]
        out[..., 1] = eng[..., 1]
        out[..., 5] = 0.5 * eng[..., 2]
    else:
        out[..., :3] = eng[..., :3]
        out[..., 3] = 0.5 * eng[..., 3]
        out[..., 4] = 0.5 * eng[..., 4]
        out[..., 5] = 0.5 * eng[..., 5]
    return out


def constitutive_sweep(problem: Problem, u, d, phi, qstate_prev: QuadState,
                       regularized: bool = False):
    """Return-map every quadrature point at the given nodal fields."""
    mesh = problem.mesh
    eps = strain_tensor6(mesh, u)
    d_qp = mesh.interpolate(np.clip(d, 0.0, 1.0))
    d_qp = np.clip(d_qp, 0.0, 1.0)
    phi_qp = mesh.interpolate(phi)
    result = mat.return_map(eps, qstate_prev, d_qp, phi_qp, problem.params,
                            regularized_heaviside=regularized,
                            l_delta=problem.l_delta)
    return result, d_qp, phi_qp


def driving_energy(problem: Problem, result: mat.StressResult, phi_qp,
                   regularized: bool = False):
    """Effective energy scaled by the solid/void transition; feeds the
    crack driving force."""
    fphi = mat.transition_f(phi_qp, problem.params.kappa, regularized,
                            problem.l_delta)
    return fphi * (result.psi_plus + result.psi_p)


def tentative_history(problem: Problem, result, phi_qp, qstate_prev,
                      regularized: bool = False):
    constants = pf.FractureConstants(psi_c=problem.params.psi_c,
                                     l_f=problem.params.l_f,
                                     zeta=problem.params.zeta,
                                     eta_f=problem.params.eta_f)
    d_tilde = pf.driving_force(driving_energy(problem, result, phi_qp,
                                              regularized),
                               0.0, constants)
    return pf.update_history(qstate_prev.history, d_tilde)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _scatter_udofs(mesh: Mesh):
    dofs = (mesh.conn[:, :, None] * mesh.dimension
            + np.arange(mesh.dimension)[None, None, :])
    return dofs.reshape(mesh.n_elems, -1)


def _voigt_rows(dim: int):
    return [0, 1, 5] if dim == 2 else [0, 1, 2, 3, 4, 5]


def assemble_ru(problem: Problem, fields: FieldSet, result: mat.StressResult,
                phi_qp=None, regularized: bool = False):
    """Internal-minus-external force and consistent stiffness for u.

    Returns the full residual vector (prescribed rows carry the reaction
    forces) and K_uu in CSR form.
    """
    return (_ru_residual(problem, fields, result, phi_qp, regularized),
            _kuu(problem, result))


def _ru_residual(problem: Problem, fields: FieldSet, result: mat.StressResult,
                 phi_qp=None, regularized: bool = False):
    mesh = problem.mesh
    sig = result.sigma[..., _voigt_rows(mesh.dimension)]
    edofs = _scatter_udofs(mesh)
    fe = np.einsum("eqsi,eqs,eq->ei", mesh.b_u, sig, mesh.w_detj)
    residual = np.zeros(mesh.n_udof)
    np.add.at(residual, edofs, fe)

    if problem.body_force is not None:
        if phi_qp is None:
            phi_qp = mesh.interpolate(fields.phi)
        fphi = mat.transition_f(phi_qp, problem.params.kappa, regularized,
                                problem.l_delta)
        w = mesh.w_detj * fphi
        fb = np.einsum("eq,qa,c->eac", w, mesh.shape_n, problem.body_force)
        np.add.at(residual, edofs, -fb.reshape(mesh.n_elems, -1))
    return residual


def _kuu(problem: Problem, result: mat.StressResult):
    mesh = problem.mesh
    rows = _voigt_rows(mesh.dimension)
    dmat = result.tangent[..., rows, :][..., :, rows]
    edofs = _scatter_udofs(mesh)
    ke = np.einsum("eqsi,eqst,eqtj,eq->eij", mesh.b_u, dmat, mesh.b_u,
                   mesh.w_detj, optimize=True)
    ndofe = edofs.shape[1]
    rows_i = np.repeat(edofs, ndofe, axis=1).ravel()
    cols_j = np.tile(edofs, (1, ndofe)).ravel()
    return sp.coo_matrix((ke.ravel(), (rows_i, cols_j)),
                         shape=(mesh.n_udof, mesh.n_udof)).tocsr()


def assemble_rd(problem: Problem, d, d_prev, history_qp, phi_qp,
                settings: SolverSettings, regularized: bool = False):
    """Crack-field residual and SPD system matrix.

    Residual form: [(1-kappa)(d-1)H + d + (eta_f/tau_f)(d - d_prev)] N
    + l_f^2 f(phi) grad d . grad N.
    """
    return (_rd_residual(problem, d, d_prev, history_qp, phi_qp, settings,
                         regularized),
            _kdd(problem, history_qp, phi_qp, settings, regularized))


def _rd_residual(problem: Problem, d, d_prev, history_qp, phi_qp,
                 settings: SolverSettings, regularized: bool = False):
    mesh = problem.mesh
    p = problem.params
    kappa = p.kappa
    visc = p.eta_f / settings.tau_f
    fphi = mat.transition_f(phi_qp, kappa, regularized, problem.l_delta)

    d_qp = mesh.interpolate(d)
    dprev_qp = mesh.interpolate(d_prev)
    grad_d = mesh.qp_gradient(d)

    bulk = ((1.0 - kappa) * (d_qp - 1.0) * history_qp + d_qp
            + visc * (d_qp - dprev_qp))
    contrib = np.einsum("eq,eq,qa->ea", mesh.w_detj, bulk, mesh.shape_n)
    gradw = (mesh.w_detj * p.l_f ** 2 * fphi)
    contrib += np.einsum("eq,eqad,eqd->ea", gradw, mesh.dn_dx, grad_d)
    residual = np.zeros(mesh.n_nodes)
    np.add.at(residual, mesh.conn, contrib)
    return residual


def _kdd(problem: Problem, history_qp, phi_qp, settings: SolverSettings,
         regularized: bool = False):
    mesh = problem.mesh
    p = problem.params
    kappa = p.kappa
    visc = p.eta_f / settings.tau_f
    fphi = mat.transition_f(phi_qp, kappa, regularized, problem.l_delta)
    gradw = (mesh.w_detj * p.l_f ** 2 * fphi)

    react = (1.0 - kappa) * history_qp + 1.0 + visc
    me = np.einsum("eq,eq,qa,qb->eab", mesh.w_detj, react,
                   mesh.shape_n, mesh.shape_n)
    me += np.einsum("eq,eqad,eqbd->eab", gradw, mesh.dn_dx, mesh.dn_dx)
    nen = mesh.nodes_per_elem
    rows_i = np.repeat(mesh.conn, nen, axis=1).ravel()
    cols_j = np.tile(mesh.conn, (1, nen)).ravel()
    return sp.coo_matrix((me.ravel(), (rows_i, cols_j)),
                         shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()


def assemble_coupling_blocks(problem: Problem, result: mat.StressResult,
                             qstate_prev: QuadState, phi_qp, d_qp,
                             regularized: bool = False):
    """Off-diagonal tangent blocks K_ud = dR_u/dd and K_du = dR_d/du.

    Internal plastic variables are frozen; the crack driving chain carries
    active-set indicators for both the history maximum and the threshold.
    """
    mesh = problem.mesh
    p = problem.params
    kappa = p.kappa
    rows = _voigt_rows(mesh.dimension)
    fphi = mat.transition_f(phi_qp, kappa, regularized, problem.l_delta)

    edofs = _scatter_udofs(mesh)
    ndofe = edofs.shape[1]
    nen = mesh.nodes_per_elem

    # K_ud: d sigma / d d = f(phi) g'(d) sigma+_eff
    gprime = -2.0 * (1.0 - kappa) * (1.0 - d_qp)
    coef = (fphi * gprime)[..., None] * result.sigma_plus[..., rows]
    block = np.einsum("eqsi,eqs,qa,eq->eia", mesh.b_u, coef, mesh.shape_n,
                      mesh.w_detj)
    rows_i = np.repeat(edofs, nen, axis=1).ravel()
    cols_j = np.tile(mesh.conn, (1, ndofe)).ravel()
    k_ud = sp.coo_matrix((block.ravel(), (rows_i, cols_j)),
                         shape=(mesh.n_udof, mesh.n_nodes)).tocsr()

    # K_du: dR_d/du through the history where the maximum advanced this step;
    # dH/d eps = zeta f / psi_c * sigma+_eff on the active set
    energy = driving_energy(problem, result, phi_qp, regularized)
    active = ((result.new_state.history > qstate_prev.history)
              & (energy > p.psi_c)).astype(float)
    scale = active * p.zeta * fphi / p.psi_c
    dcoef = (1.0 - kappa) * (d_qp - 1.0)
    sens = (dcoef * scale)[..., None] * result.sigma_plus[..., rows]
    blk = np.einsum("qa,eqs,eqsj,eq->eaj", mesh.shape_n, sens, mesh.b_u,
                    mesh.w_detj)
    rows_i = np.repeat(mesh.conn, ndofe, axis=1).ravel()
    cols_j = np.tile(edofs, (1, nen)).ravel()
    k_du = sp.coo_matrix((blk.ravel(), (rows_i, cols_j)),
                         shape=(mesh.n_nodes, mesh.n_udof)).tocsr()
    return k_ud, k_du


def assemble_tangent_blocks(problem: Problem, fields: FieldSet,
                            qstate_prev: QuadState, d_prev: np.ndarray,
                            settings: SolverSettings,
                            regularized: bool = False) -> TangentBlocks:
    """Re-assemble the full coupled tangent at a committed trajectory state."""
    result, d_qp, phi_qp = constitutive_sweep(problem, fields.u, fields.d,
                                              fields.phi, qstate_prev,
                                              regularized)
    history_qp = tentative_history(problem, result, phi_qp, qstate_prev,
                                   regularized)
    k_uu = _kuu(problem, result)
    k_dd = _kdd(problem, history_qp, phi_qp, settings, regularized)
    k_ud, k_du = assemble_coupling_blocks(problem, result, qstate_prev,
                                          phi_qp, d_qp, regularized)
    return TangentBlocks(k_uu=k_uu, k_ud=k_ud, k_du=k_du, k_dd=k_dd)


# ---------------------------------------------------------------------------
# linear and nonlinear solves
# ---------------------------------------------------------------------------

def linear_solve(matrix: sp.csr_matrix, rhs: np.ndarray,
                 settings: SolverSettings) -> np.ndarray:
    if rhs.size == 0:
        return np.zeros(0)
    sol = spsolve(matrix.tocsc(), rhs)
    if not np.all(np.isfinite(sol)):
        raise SolverError("linear solve produced non-finite values "
                          "(singular system after elimination?)")
    return sol


def solve_crack_field(problem: Problem, d_prev, history_qp, phi_qp,
                      settings: SolverSettings, regularized: bool = False):
    """One linear solve of the crack-field equation (it is linear in d for a
    fixed history).  Returns the clamped field and the pre-clamp overshoot."""
    mesh = problem.mesh
    zero_d = np.zeros(mesh.n_nodes)
    residual0, k_dd = assemble_rd(problem, zero_d, d_prev, history_qp, phi_qp,
                                  settings, regularized)
    d_new = linear_solve(k_dd, -residual0, settings)
    overshoot = max(float(np.max(d_new) - 1.0), float(-np.min(d_new)), 0.0)
    return np.clip(d_new, 0.0, 1.0), overshoot


def newton_displacement(problem: Problem, fields: FieldSet,
                        qstate_prev: QuadState, settings: SolverSettings,
                        regularized: bool = False):
    """Newton iteration for the displacement field at fixed d and phi.

    ``fields.u`` must already carry the prescribed values; only free DOFs
    are updated.  Returns the constitutive result, the converged full
    residual and iteration diagnostics.  The returned result is the sweep
    at the returned ``fields.u`` with ``fields.d``, ``fields.phi`` and
    ``qstate_prev``, so a caller at those same fields may reuse it.

    Each iteration builds the residual first and K_uu (with the consistent
    tangent) only when a correction follows, so the converged sweep never
    evaluates the tangent.
    """
    free = problem.free_dofs
    u = fields.u
    ref = None
    corrections = 0
    for it in range(settings.newton_max_iter + 1):
        result, _, phi_qp = constitutive_sweep(
            problem, u, fields.d, fields.phi, qstate_prev, regularized)
        residual = _ru_residual(problem, fields, result, phi_qp, regularized)
        rnorm = np.linalg.norm(residual[free]) if free.size else 0.0
        if ref is None:
            ref = max(rnorm, settings.newton_tol_abs)
        if rnorm <= max(settings.newton_tol_abs, settings.newton_tol_rel * ref):
            return result, residual, corrections, it
        if it == settings.newton_max_iter:
            break
        if free.size == 0:
            break
        k_uu = _kuu(problem, result)
        du = linear_solve(k_uu[free][:, free], -residual[free], settings)
        u[free] += du
        corrections += 1
    raise SolverError("displacement Newton failed to converge",
                      residual=rnorm)


def staggered_step(problem: Problem, fields_prev: FieldSet,
                   qstate_prev: QuadState, load_value: float,
                   settings: SolverSettings, regularized: bool = False):
    """Alternate crack-field and displacement solves until the combined
    residual drops below the staggered tolerance; commits the quadrature
    state and history on exit.

    One constitutive sweep opens the step.  Every later pass reuses the
    previous pass's final Newton sweep and the tentative history built from
    it: that sweep was taken at the current u, d and phi with the same
    ``qstate_prev``, which is exactly the sweep the pass would otherwise
    repeat, so the reuse changes no value.  A pass accepted through the
    fixed-point exit instead of the tolerance sets ``stats.stalled``.
    """
    mesh = problem.mesh
    fields = fields_prev.copy()
    fields.p_u[:] = 0.0

    stats = StepStats()
    ref = None
    u_last = None
    d_last = None
    # phase-field part of the first pass: history from the start iterate
    result, _, phi_qp = constitutive_sweep(
        problem, fields.u, fields.d, fields.phi, qstate_prev, regularized)
    history_qp = tentative_history(problem, result, phi_qp, qstate_prev,
                                   regularized)
    for k in range(1, settings.stagger_max_iter + 1):
        fields.d, overshoot = solve_crack_field(
            problem, fields_prev.d, history_qp, phi_qp, settings, regularized)
        stats.d_overshoot = max(stats.d_overshoot, overshoot)

        # mechanical part under the new prescribed values
        fields.u[problem.prescribed_dofs] = 0.0
        fields.u[problem.driven_dofs] = load_value
        result, residual, corr, nit = newton_displacement(
            problem, fields, qstate_prev, settings, regularized)
        stats.newton_corrections += corr
        stats.newton_iterations += nit
        stats.stagger_iterations = k

        # combined residual at the end of the pass; bound-active crack DOFs
        # contribute only their feasible-direction (projected) residual.
        # The history also drives the next pass's crack solve.
        history_qp = tentative_history(problem, result, phi_qp, qstate_prev,
                                       regularized)
        rd = _rd_residual(problem, fields.d, fields_prev.d, history_qp,
                          phi_qp, settings, regularized)
        rd[(fields.d <= 0.0) & (rd > 0.0)] = 0.0
        rd[(fields.d >= 1.0) & (rd < 0.0)] = 0.0
        res = (np.linalg.norm(residual[problem.free_dofs])
               + np.linalg.norm(rd))
        stats.residual = res
        if ref is None:
            ref = max(res, settings.stagger_tol_abs)
        converged = res <= max(settings.stagger_tol * ref,
                               settings.stagger_tol_abs)
        if not converged and u_last is not None:
            # the alternation has hit the fixed point the inner solves can
            # deliver; further passes cannot reduce the residual
            u_scale = max(np.linalg.norm(fields.u), 1.0)
            stats.stalled = bool(
                np.linalg.norm(fields.u - u_last) <= 1e-14 * u_scale
                and np.linalg.norm(fields.d - d_last) <= 1e-14)
            converged = stats.stalled
        if converged:
            qstate_new = result.new_state
            qstate_new.history = history_qp
            fields.p_u = np.zeros(mesh.n_udof)
            fields.p_u[problem.prescribed_dofs] = \
                residual[problem.prescribed_dofs]
            return fields, qstate_new, stats
        u_last = fields.u.copy()
        d_last = fields.d.copy()
    raise SolverError("staggered scheme failed to converge", residual=res)


def run_load_history(problem: Problem, n_steps: int, du_per_step: float,
                     settings: SolverSettings = None, phi=None,
                     regularized: bool = False) -> Trajectory:
    """March the prescribed displacement in ``n_steps`` uniform increments
    on a fixed topology, recording every committed state."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    settings = settings or SolverSettings()
    fields = problem.initial_fields(phi)
    qstate = problem.initial_state()

    traj = Trajectory(tau_f=settings.tau_f)
    traj.fields.append(fields.copy())
    traj.qstates.append(qstate.copy())
    traj.load_factor.append(0.0)
    traj.reaction.append(0.0)

    for n in range(1, n_steps + 1):
        load = n * du_per_step
        try:
            fields, qstate, stats = staggered_step(
                problem, fields, qstate, load, settings, regularized)
        except SolverError as err:
            traj.complete = False
            err.partial_trajectory = traj
            raise
        reaction = float(fields.p_u[problem.driven_dofs].sum())
        traj.fields.append(fields.copy())
        traj.qstates.append(qstate.copy())
        traj.load_factor.append(load)
        traj.reaction.append(reaction)
        traj.stats.append(stats)
        log.debug("[n=%03d] load=%.6g reaction=%.6g stagger=%d", n, load,
                  reaction, stats.stagger_iterations)
    return traj
