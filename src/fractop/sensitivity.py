"""Path-dependent adjoint sensitivity of the incremental work objective with
respect to the nodal topological field, plus velocity extraction for the
level-set update.

Per load step the transposed tangent system is solved with the adjoint
pinned to half the displacement increment on prescribed DOFs.  Formulation 1
constrains the displacement residual only, Formulation 2 the coupled
displacement/crack system.  Step n pairs its multiplier lambda^n with
dR^n/dPhi and its second multiplier mu^n with dR^(n-1)/dPhi; under
monotonic loading mu^n equals the previous step's lambda^(n-1).  So both
products that involve committed level n use lambda^n, and ``adjoint_sweep``
forms them from the one constitutive sweep of that level that also gives
its tangent.  Level 0 is strain-free, so dR^0/dPhi vanishes and mu^1 needs
no solve.  The assembled solid sensitivity is the total derivative dJ/dPhi
of the (signed) objective J = -sum_n (P^n + P^{n-1}) . du^n / 2, so descent
velocities follow as v = -(G_S + G_V).
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .forward import (Problem, SolverError, Trajectory,
                      assemble_tangent_blocks, constitutive_sweep,
                      linear_solve, stress_shape_blocks)

log = logging.getLogger("fractop")


@dataclass
class AdjointState:
    """Adjoints of one load step and their products with the step's explicit
    residual derivatives, g_u = lambda_u . dR_u/dPhi and
    g_d = lambda_d . dR_d/dPhi; lambda_d and g_d are None for Formulation 1.
    """

    lambda_u: np.ndarray
    g_u: np.ndarray
    lambda_d: np.ndarray = None
    g_d: np.ndarray = None


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


def residual_phi_derivative(problem: Problem, d, sweep):
    """Explicit partial derivatives dR_u/dPhi and dR_d/dPhi at a committed
    state, from its constitutive sweep (``forward.constitutive_sweep``) and
    its nodal crack field ``d``.  With ``d`` None only dR_u/dPhi is built
    and dR_d/dPhi is returned as None: Formulation 1 has no crack adjoint
    to pair it with.

    The transition's slope is the sweep layout's ``dfphi``: the Heaviside
    slope is replaced by the regularized Dirac, and the quadratic transition
    penalty contributes its 2 H(phi) factor, which gates void points to
    (near) zero sensitivity.  Plastic variables and the crack driving
    history are held fixed, so only the transition-function placements
    differentiate.
    """
    mesh = problem.mesh
    p = problem.params
    rows = mesh.voigt_rows

    result, _, layout = sweep
    dfac = layout.dfphi

    blk = stress_shape_blocks(problem, dfac[..., None]
                              * result.sigma_eff[..., rows])
    if problem.body_force is not None:
        fb = np.einsum("eq,qb,c,qa->ebca", dfac * mesh.w_detj, mesh.shape_n,
                       problem.body_force, mesh.shape_n)
        blk -= fb.reshape(blk.shape)
    dru = mesh.assemble(blk)
    if d is None:
        return dru, None

    # crack residual: with the history frozen only the gradient-term
    # transition factor depends on phi
    gradw = mesh.w_detj * p.l_f ** 2 * dfac
    drd = mesh.assemble(_gradient_shape_blocks(mesh, gradw,
                                               mesh.qp_gradient(d)))
    return dru, drd


def _gradient_shape_blocks(mesh, gradw, grad_d):
    """Element blocks (n_elems, nen, nen) of sum_q gradw (grad N_b . grad d)
    N_a, with the bytes of ``np.einsum("eq,eqbd,eqd,qa->eba", gradw, dn_dx,
    grad_d, shape_n)``: each term is ((gradw dN_b/dx_k) (grad d)_k) N_a,
    the terms of one point are summed over k first, and those sums are
    added to blocks that start at +0.0, one point at a time."""
    terms = (gradw[..., None, None] * mesh.dn_dx) * grad_d[:, :, None, :]
    by_point = terms[..., 0, None] * mesh.shape_n[:, None, :]
    for k in range(1, terms.shape[-1]):
        by_point += terms[..., k, None] * mesh.shape_n[:, None, :]
    blocks = np.zeros(by_point.shape[:1] + by_point.shape[2:])
    for q in range(by_point.shape[1]):
        blocks += by_point[:, q]
    return blocks


@dataclass(frozen=True)
class AdjointPattern:
    """Where the entries of one formulation's adjoint system come from.

    ``system`` (CSC) is the transposed tangent on the unknowns and
    ``coupling`` (CSR) its columns at the prescribed DOFs, each holding, in
    place of a value, the id of the entry it takes from the tangent blocks'
    CSR data concatenated in the order k_uu, k_ud, k_du, k_dd (k_uu alone
    for Formulation 1).  Their structure is what the sparse chain ``bmat``,
    ``.T.tocsr()``, row and column slices and ``tocsc`` builds from the
    blocks, so the filled matrices equal that chain's output bit for bit.

    The columns of ``system``, and ``unknown`` with them, are stored in the
    fill-reducing order COLAMD gives the chain's system, ``argsort`` of
    SuperLU's ``perm_c``, taken once from the first system filled.  The
    pattern keeps every element-pair entry, zeros included, so every step's
    system has this one structure and COLAMD, which reads the structure
    alone, would return the same order each time.  ``linear_solve`` keeps
    the given column order, and SuperLU then builds the same column
    elimination tree and pivots on the same values: each solution has the
    bytes of ``spsolve`` with COLAMD on the unordered system, without
    ordering it again.
    """

    unknown: np.ndarray
    system: sp.csc_matrix
    coupling: sp.csr_matrix
    n_entries: int      # stored entries of the blocks, all together

    def fill(self, data: np.ndarray):
        """The system on the unknowns and its prescribed columns, negated,
        from the concatenated block data."""
        if data.size != self.n_entries:
            raise ValueError("tangent blocks do not have the mesh's CSR "
                             "patterns")
        return (_with_data(self.system, data[self.system.data]),
                _with_data(self.coupling, -data[self.coupling.data]))


def _with_data(ids, data):
    return type(ids)((data, ids.indices, ids.indptr), shape=ids.shape)


def _adjoint_pattern(problem: Problem, formulation: int,
                     data: np.ndarray) -> AdjointPattern:
    """Push entry ids through the sparse chain of the adjoint system, and
    order its columns by COLAMD on the system ``data`` fills, once per
    Problem and formulation."""
    mesh = problem.mesh
    ndofe, nen = mesh.elem_udofs.shape[1], mesh.nodes_per_elem
    widths = [(ndofe, ndofe)]
    unknown = problem.free_dofs
    if formulation == 2:
        widths += [(ndofe, nen), (nen, ndofe), (nen, nen)]
        unknown = np.concatenate([unknown,
                                  mesh.n_udof + np.arange(mesh.n_nodes)])
    ids = []
    start = 0
    for row_width, col_width in widths:
        pattern = mesh.csr_pattern(row_width, col_width)
        stop = start + pattern.indices.size
        ids.append(sp.csr_matrix((np.arange(start, stop, dtype=float),
                                  pattern.indices, pattern.indptr),
                                 shape=pattern.shape))
        start = stop
    system = ids[0] if formulation == 1 else sp.bmat(
        [ids[:2], ids[2:]], format="csr")
    rows = system.T.tocsr()[unknown]
    on_pres = rows[:, problem.prescribed_dofs].astype(np.intp)
    unordered = AdjointPattern(
        unknown=unknown, system=rows[:, unknown].tocsc().astype(np.intp),
        coupling=on_pres, n_entries=start)
    try:
        perm_c = splu(unordered.fill(data)[0], permc_spec="COLAMD").perm_c
    except RuntimeError as err:     # SuperLU: the factor is singular
        raise SolverError(f"adjoint system: {err}") from err
    order = np.argsort(perm_c)
    on_unknown = unordered.system[:, order]
    for matrix in (on_unknown, on_pres):
        matrix.indices.flags.writeable = False
        matrix.indptr.flags.writeable = False
    return AdjointPattern(unknown=unknown[order], system=on_unknown,
                          coupling=on_pres, n_entries=start)


def adjoint_solve(blocks, du_full: np.ndarray, problem: Problem,
                  formulation: int = 2):
    """Solve the transposed tangent system with prescribed-DOF entries of
    the displacement adjoint pinned to du/2.

    Formulation 1 solves K_uu^T on the free DOFs, Formulation 2 the coupled
    system on the free DOFs and every crack DOF.  The system is filled from
    the blocks' CSR data through the ``AdjointPattern`` of the formulation,
    kept in ``problem.adjoint_patterns``.  Returns (lambda_u, lambda_d);
    lambda_d is None for Formulation 1.
    """
    if formulation == 1:
        parts = [blocks.k_uu]
    elif formulation == 2:
        parts = [blocks.k_uu, blocks.k_ud, blocks.k_du, blocks.k_dd]
    else:
        raise ValueError("formulation must be 1 or 2")
    data = np.concatenate([part.data for part in parts])
    pattern = problem.adjoint_patterns.get(formulation)
    if pattern is None:
        pattern = _adjoint_pattern(problem, formulation, data)
        problem.adjoint_patterns[formulation] = pattern
    system, coupling = pattern.fill(data)

    ku = problem.mesh.n_udof
    pres = problem.prescribed_dofs
    pinned = 0.5 * du_full[pres]
    lam = np.zeros(ku + (problem.mesh.n_nodes if formulation == 2 else 0))
    lam[pres] = pinned
    lam[pattern.unknown] = linear_solve(system, coupling @ pinned)
    return lam[:ku], (lam[ku:] if formulation == 2 else None)


def adjoint_sweep(problem: Problem, trajectory: Trajectory,
                  formulation: int = 2):
    """Per-step adjoints over the whole trajectory, each with its products
    against the explicit residual derivatives of its own level.

    Every level has the same phi, so one ``Problem.layout`` serves the
    sweep.  One constitutive sweep of committed level n (fields[n] on
    qstates[n-1]) feeds both the tangent blocks and dR^n/dPhi.
    """
    layout = problem.layout(trajectory.fields[0].phi)
    adjoints = []
    for n in range(1, trajectory.n_steps + 1):
        fields = trajectory.fields[n]
        qstate_prev = trajectory.qstates[n - 1]
        sweep = constitutive_sweep(problem, fields.u, fields.d, layout,
                                   qstate_prev)
        blocks = assemble_tangent_blocks(problem, sweep, qstate_prev,
                                         formulation)
        du = fields.u - trajectory.fields[n - 1].u
        lam_u, lam_d = adjoint_solve(blocks, du, problem, formulation)
        dru, drd = residual_phi_derivative(
            problem, None if lam_d is None else fields.d, sweep)
        adjoints.append(AdjointState(
            lambda_u=lam_u, g_u=lam_u @ dru, lambda_d=lam_d,
            g_d=None if drd is None else lam_d @ drd))
    return adjoints


def solid_sensitivity(adjoints) -> np.ndarray:
    """Assemble G_S = dJ/dPhi.  Step n subtracts lambda^n . dR^n/dPhi and
    then mu^n . dR^(n-1)/dPhi, which are the products stored on steps n and
    n - 1; step 1's second pair is level 0's and vanishes."""
    g_s = np.zeros(adjoints[0].g_u.size)
    for n, adj in enumerate(adjoints):
        for level in ([adj] if n == 0 else [adj, adjoints[n - 1]]):
            g_s -= level.g_u
            if level.g_d is not None:
                g_s -= level.g_d
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
