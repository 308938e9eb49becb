"""Forward solver: residual/tangent assembly for the displacement and crack
fields, the staggered solution scheme per load increment, and load-history
runs that record the trajectory consumed by the adjoint sweep.

Displacement control only: Dirichlet conditions are handled by row/column
elimination and reactions are recovered from the eliminated rows of the
internal force vector.  The grid layout is the mesh's: element arrays are
summed into global vectors and matrices by ``Mesh.scatter`` and
``Mesh.assemble``, and the rows of B map to tensor Voigt slots through
``Mesh.voigt_rows``.

The ``Problem`` alone defines the residual, the crack field's viscous term
(eta_f / tau_f)(d - d_prev) included; ``SolverSettings`` holds only the
stopping rules and caps of the Newton and staggered loops.

The two forward systems, K_uu on the free DOFs (Newton) and K_dd (crack
solve), are symmetric positive definite.  They are assembled straight into
LAPACK lower band storage and solved by banded Cholesky.  The band is narrow
because the nodes are ordered along the grid's short axes first; each
Problem builds that ordering and the scatter into the band once, on first
use.  The adjoint systems (unsymmetric for Formulation 2) stay sparse and go
through sparse LU.  Their tangent blocks are filled through the mesh's
cached CSR patterns (``Mesh.assemble``), and ``sensitivity.adjoint_solve``
gathers the blocks' data into the transposed system on the unknowns
through a pattern each Problem also builds once per formulation, so no
step converts COO to CSR, stacks, transposes or slices a sparse matrix.

The element matrices are weighted sums of quadrature-point operators that
depend on the mesh alone, which each Problem also builds once, on first use
(``ElementOperators``).  K_uu needs only the three tangent moduli (a, b, c)
of ``material.tangent_moduli`` per point, never the 6x6 tangent; K_dd is a
weighted sum of N_a N_b and grad N_a . grad N_b, and R_d(d) = K_dd d - load
is evaluated as a block mat-vec with the same element matrices.

The solid/void transition f(phi) is chosen once per problem:
``Problem.transition`` uses the exact Heaviside unless
``Problem.regularized`` is set, which only the finite-difference arm of the
sensitivity check does (``verify``).  Every solve on a problem therefore
sees one transition; the constitutive sweep stores it on the
``StressResult`` (``fphi``) and the assembly reads it from there.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solveh_banded
from scipy.sparse.linalg import spsolve

from . import material as mat
from .material import MaterialParams, QuadState
from .mesh import Mesh, csr_summation_order, element_pairs

log = logging.getLogger("fractop")

ONSET_CRACK = 0.1   # crack field value that marks fracture onset


class SolverError(RuntimeError):
    """Raised when a linear or nonlinear solve fails to produce a usable
    state; carries diagnostic payload where available."""

    def __init__(self, message, residual=None, partial_trajectory=None):
        super().__init__(message)
        self.residual = residual
        self.partial_trajectory = partial_trajectory


@dataclass(frozen=True)
class SolverSettings:
    """Stopping rules and iteration caps of the Newton and staggered loops
    only; the ``Problem`` defines the residual they drive to zero."""

    newton_tol_abs: float = 1e-10
    newton_tol_rel: float = 1e-8
    newton_max_iter: int = 25
    stagger_tol: float = 1e-6
    stagger_tol_abs: float = 1e-11
    stagger_max_iter: int = 200

    def __post_init__(self):
        for name in ("newton_tol_abs", "newton_tol_rel", "stagger_tol",
                     "stagger_tol_abs"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if self.newton_max_iter < 0:
            raise ValueError("newton_max_iter must be >= 0")
        if self.stagger_max_iter < 1:
            raise ValueError("stagger_max_iter must be >= 1")


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

    @property
    def n_steps(self) -> int:
        return len(self.fields) - 1

    @property
    def onset_step(self):
        """First level with a crack value above ``ONSET_CRACK``, or None."""
        return next((n for n, f in enumerate(self.fields)
                     if f.d.max() > ONSET_CRACK), None)


@dataclass
class TangentBlocks:
    """Coupled tangent of the (u, d) residual system at a committed state;
    Formulation 1 builds K_uu alone and leaves the other blocks None."""

    k_uu: sp.csr_matrix
    k_ud: sp.csr_matrix = None
    k_du: sp.csr_matrix = None
    k_dd: sp.csr_matrix = None


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
    l_delta: float = 5.0        # width of the regularized Heaviside and Dirac
    regularized: bool = False   # logistic Heaviside in f(phi), FD arm only

    prescribed_dofs: np.ndarray = field(init=False)
    driven_dofs: np.ndarray = field(init=False)
    free_dofs: np.ndarray = field(init=False)
    # sensitivity.AdjointPattern by formulation, each built on first use
    adjoint_patterns: dict = field(init=False, default_factory=dict,
                                   repr=False, compare=False)

    def __post_init__(self):
        if not self.l_delta > 0:
            raise ValueError("l_delta must be positive")
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

    def transition(self, phi_qp) -> np.ndarray:
        """Solid/void transition f(phi) at quadrature points, exact or
        regularized as ``regularized`` picks."""
        return mat.transition_f(phi_qp, self.params.kappa,
                                self.l_delta if self.regularized else None)

    @cached_property
    def uu_band(self) -> "BandPattern":
        """Band pattern of K_uu on the free DOFs, built on first use."""
        dofs = self.mesh.udofs_of(_structured_node_order(self.mesh))
        return _band_pattern(dofs[np.isin(dofs, self.free_dofs)],
                             self.mesh.n_udof, self.mesh.elem_udofs)

    @cached_property
    def dd_band(self) -> "BandPattern":
        """Band pattern of K_dd, built on first use."""
        return _band_pattern(_structured_node_order(self.mesh),
                             self.mesh.n_nodes, self.mesh.conn)

    @cached_property
    def operators(self) -> "ElementOperators":
        """Quadrature-point operators of the element kernels, built on first
        use."""
        return _element_operators(self.mesh)


# ---------------------------------------------------------------------------
# kinematics and constitutive sweep
# ---------------------------------------------------------------------------

def strain_tensor6(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Quadrature-point strain in tensor Voigt form (plane strain in 2D):
    the engineering rows at their ``Mesh.voigt_rows`` slots, shear halved."""
    eng = np.einsum("eqsi,ei->eqs", mesh.b_u, u[mesh.elem_udofs])
    out = np.zeros(eng.shape[:2] + (6,))
    out[..., mesh.voigt_rows] = eng * np.where(mesh.voigt_rows < 3, 1.0, 0.5)
    return out


def constitutive_sweep(problem: Problem, u, d, phi, qstate_prev: QuadState):
    """Return-map every quadrature point at the given nodal fields."""
    mesh = problem.mesh
    eps = strain_tensor6(mesh, u)
    d_qp = mesh.interpolate(np.clip(d, 0.0, 1.0))
    d_qp = np.clip(d_qp, 0.0, 1.0)
    phi_qp = mesh.interpolate(phi)
    result = mat.return_map(eps, qstate_prev, d_qp, phi_qp, problem.params,
                            fphi=problem.transition(phi_qp))
    return result, d_qp, phi_qp


def driving_energy(result: mat.StressResult):
    """Effective energy scaled by the solid/void transition; feeds the
    crack driving force."""
    return result.fphi * (result.psi_plus + result.psi_p)


def tentative_history(problem: Problem, result, qstate_prev):
    """Crack driving force H = zeta <f(phi)(psi+ + psi_p)/psi_c - 1>, kept
    as the running maximum over the load history (irreversibility)."""
    p = problem.params
    d_tilde = p.zeta * np.maximum(driving_energy(result) / p.psi_c - 1.0, 0.0)
    return np.maximum(qstate_prev.history, d_tilde)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementOperators:
    """Quadrature-point products of shape functions and strain operators;
    they depend on the mesh alone.

    - ``nn[q, a, b] = N_a N_b``, shape (nq, nen, nen);
    - ``gg[e, q, a, b] = grad N_a . grad N_b``, shape (ne, nq, nen, nen);
    - ``kuu[e, q]`` is ``m m^T`` with ``m = B^T 1`` (the normal-strain rows
      of B summed) and ``kuu[e, nq + q]`` is ``B^T P_dev B``, each flattened,
      shape (ne, 2 nq, ndofe^2).  With the tangent moduli (a, b, c) the
      element stiffness is sum_q w (a m m^T + b B^T P_dev B + c v v^T),
      v = B^T n.
    """

    nn: np.ndarray
    gg: np.ndarray
    kuu: np.ndarray


def _element_operators(mesh: Mesh) -> ElementOperators:
    rows = mesh.voigt_rows
    b_u = mesh.b_u
    m = b_u[:, :, :mesh.dimension].sum(axis=2)
    mm = m[..., :, None] * m[..., None, :]
    pdev = np.einsum("eqsi,st,eqtj->eqij", b_u, mat.P_DEV[np.ix_(rows, rows)],
                     b_u, optimize=True)
    ne, nq, ndofe = m.shape
    return ElementOperators(
        nn=np.einsum("qa,qb->qab", mesh.shape_n, mesh.shape_n),
        gg=np.einsum("eqad,eqbd->eqab", mesh.dn_dx, mesh.dn_dx),
        kuu=np.concatenate([mm, pdev], axis=1).reshape(ne, 2 * nq,
                                                       ndofe * ndofe))


def _structured_node_order(mesh: Mesh) -> np.ndarray:
    """Nodes sorted by coordinate, the axis with the most elements slowest
    and the one with the fewest fastest (ties keep the mesh's own order).

    On an ``nx`` x ``ny`` grid with ``ny <= nx`` the node half-bandwidth of
    a Q1 matrix is then ``ny + 2``, against ``nx + 2`` in the mesh's own
    x-fastest numbering (Cuthill & McKee 1969)."""
    axes = np.argsort(mesh.counts, kind="stable")
    return np.lexsort(mesh.coords[:, axes].T)


@dataclass(frozen=True)
class BandPattern:
    """Scatter of element matrices into the lower band of an SPD matrix.

    Band row/column ``k`` is global index ``order[k]`` (a free DOF or a
    node); indices outside ``order`` are eliminated.  ``entries`` picks the
    lower-triangle entries of the flattened element matrices and ``slots``
    gives the flat position of each in the C-ordered ``(n, bandwidth + 1)``
    transpose of LAPACK's lower band storage, so ``assemble`` returns the
    Fortran-ordered array LAPACK works on, with no transposing copy.
    """

    order: np.ndarray
    entries: np.ndarray
    slots: np.ndarray
    bandwidth: int

    def assemble(self, blocks: np.ndarray) -> np.ndarray:
        """Lower band, shape ``(bandwidth + 1, n)``, of the matrix the
        element ``blocks`` sum to; its entry ``[i - j, j]`` is ``A[i, j]``.
        Only the lower triangle is read, so the matrix is taken symmetric.
        Each entry equals, bit for bit, the one ``Mesh.assemble`` sums from
        the same blocks."""
        n = self.order.size
        band = np.bincount(self.slots,
                           weights=blocks.reshape(-1)[self.entries],
                           minlength=n * (self.bandwidth + 1))
        return band.reshape(n, self.bandwidth + 1).T


def _band_pattern(order, n_global, element_idx) -> BandPattern:
    """Band pattern of the matrix summed from element blocks at global
    indices ``element_idx[e, a]``, restricted and permuted to ``order``.

    The kept entries are listed in the order ``tocsr`` sums them, so the
    band repeats the CSR values (and so the rounding) of ``Mesh.assemble``.
    """
    rows, cols = element_pairs(element_idx, element_idx)
    summation = csr_summation_order(rows, cols, (n_global, n_global))
    position = np.full(n_global, -1)
    position[order] = np.arange(order.size)
    row = position[rows[summation]]
    col = position[cols[summation]]
    keep = (row >= col) & (col >= 0)
    offset = row[keep] - col[keep]
    band_width = int(offset.max(initial=0)) + 1
    return BandPattern(order=order, entries=summation[keep],
                       slots=col[keep] * band_width + offset,
                       bandwidth=band_width - 1)


def assemble_ru(problem: Problem, result: mat.StressResult):
    """Internal-minus-external force of the displacement field: the full
    residual vector, whose prescribed rows carry the reaction forces."""
    mesh = problem.mesh
    sig = result.sigma[..., mesh.voigt_rows]
    fe = np.einsum("eqsi,eqs,eq->ei", mesh.b_u, sig, mesh.w_detj)
    if problem.body_force is None:
        return mesh.scatter(fe)
    w = mesh.w_detj * result.fphi
    fb = np.einsum("eq,qa,c->eac", w, mesh.shape_n, problem.body_force)
    return mesh.scatter(fe, -fb.reshape(mesh.n_elems, -1))


def _kuu_blocks(problem: Problem, result: mat.StressResult):
    """Element stiffness matrices (n_elems, ndofe, ndofe) of the consistent
    tangent, from its three moduli and ``Problem.operators``."""
    mesh = problem.mesh
    a, b, c = result.moduli
    w = mesh.w_detj
    ndofe = mesh.b_u.shape[-1]
    coef = np.concatenate([w * a, w * b], axis=1)
    blocks = np.einsum("eq,eqk->ek", coef,
                       problem.operators.kuu).reshape(-1, ndofe, ndofe)
    # the radial-return term lives only on elements with a plastic point
    plastic = np.flatnonzero(np.any(c != 0.0, axis=1))
    if plastic.size:
        nhat = result.nhat[plastic][..., mesh.voigt_rows]
        v = np.einsum("eqsi,eqs->eqi", mesh.b_u[plastic], nhat)
        blocks[plastic] += np.einsum("eq,eqi,eqj->eij", (w * c)[plastic],
                                     v, v)
    return blocks


def assemble_rd(problem: Problem, d, d_prev, history_qp, phi_qp):
    """Crack-field residual K_dd d - load, one element block at a time.

    Residual form: [(1-kappa)(d-1)H + d + (eta_f/tau_f)(d - d_prev)] N
    + l_f^2 f(phi) grad d . grad N.
    """
    mesh = problem.mesh
    blocks = _kdd_blocks(problem, history_qp, phi_qp)
    contrib = (blocks @ d[mesh.conn][..., None])[..., 0]
    contrib -= _crack_load(problem, d_prev, history_qp)
    return mesh.scatter(contrib)


def _crack_load(problem: Problem, d_prev, history_qp):
    """Element load vectors (n_elems, nen) of the crack-field system,
    sum_q w ((1 - kappa) H + (eta_f / tau_f) d_prev) N_a."""
    mesh = problem.mesh
    p = problem.params
    visc = p.eta_f / p.tau_f
    source = (1.0 - p.kappa) * history_qp + visc * mesh.interpolate(d_prev)
    return (mesh.w_detj * source) @ mesh.shape_n


def _kdd_blocks(problem: Problem, history_qp, phi_qp):
    """Element matrices (n_elems, nen, nen) of the crack-field system."""
    mesh = problem.mesh
    p = problem.params
    ops = problem.operators
    visc = p.eta_f / p.tau_f
    gradw = mesh.w_detj * p.l_f ** 2 * problem.transition(phi_qp)
    react = (1.0 - p.kappa) * history_qp + 1.0 + visc

    nq, nen, _ = ops.nn.shape
    blocks = (mesh.w_detj * react) @ ops.nn.reshape(nq, -1)
    blocks += (gradw[:, None, :] @ ops.gg.reshape(-1, nq, nen * nen))[:, 0]
    return blocks.reshape(-1, nen, nen)


def stress_shape_blocks(mesh: Mesh, s: np.ndarray,
                        elements=slice(None)) -> np.ndarray:
    """Element blocks (n_elems, ndofe, nen) of sum_q w (B^T s)_i N_a for a
    quadrature-point field ``s`` in the rows of B: the kernel of K_ud, of
    K_du (transposed) and of dR_u/dPhi.  With ``elements`` an index array,
    ``s`` and the blocks cover those elements only."""
    return np.einsum("eqsi,eqs,qa,eq->eia", mesh.b_u[elements], s,
                     mesh.shape_n, mesh.w_detj[elements])


def assemble_coupling_blocks(problem: Problem, result: mat.StressResult,
                             qstate_prev: QuadState, d_qp):
    """Off-diagonal tangent blocks K_ud = dR_u/dd and K_du = dR_d/du.

    Internal plastic variables are frozen; the crack driving chain carries
    active-set indicators for both the history maximum and the threshold.
    """
    mesh = problem.mesh
    p = problem.params
    kappa = p.kappa
    rows = mesh.voigt_rows
    fphi = result.fphi

    # K_ud: d sigma / d d = f(phi) g'(d) sigma+_eff
    gprime = -2.0 * (1.0 - kappa) * (1.0 - d_qp)
    coef = (fphi * gprime)[..., None] * result.sigma_plus[..., rows]
    k_ud = mesh.assemble(stress_shape_blocks(mesh, coef))

    # K_du: dR_d/du through the history where the maximum advanced this step;
    # dH/d eps = zeta f / psi_c * sigma+_eff on the active set.  Its element
    # blocks are built only on elements with an active point.
    energy = driving_energy(result)
    active = ((result.new_state.history > qstate_prev.history)
              & (energy > p.psi_c))
    blocks = np.zeros((mesh.n_elems, mesh.nodes_per_elem,
                       mesh.b_u.shape[-1]))
    hot = np.flatnonzero(np.any(active, axis=1))
    if hot.size:
        scale = active[hot] * p.zeta * fphi[hot] / p.psi_c
        dcoef = (1.0 - kappa) * (d_qp[hot] - 1.0)
        sens = (dcoef * scale)[..., None] * result.sigma_plus[hot][..., rows]
        blocks[hot] = stress_shape_blocks(mesh, sens, hot).transpose(0, 2, 1)
    k_du = mesh.assemble(blocks)
    return k_ud, k_du


def assemble_tangent_blocks(problem: Problem, sweep, qstate_prev: QuadState,
                            formulation: int = 2) -> TangentBlocks:
    """Re-assemble the tangent that the adjoint of ``formulation`` solves at
    a committed trajectory state from its constitutive sweep, the return
    value of ``constitutive_sweep`` on that state and ``qstate_prev``."""
    result, d_qp, phi_qp = sweep
    k_uu = problem.mesh.assemble(_kuu_blocks(problem, result))
    if formulation == 1:
        return TangentBlocks(k_uu=k_uu)
    history_qp = tentative_history(problem, result, qstate_prev)
    k_dd = problem.mesh.assemble(_kdd_blocks(problem, history_qp, phi_qp))
    k_ud, k_du = assemble_coupling_blocks(problem, result, qstate_prev, d_qp)
    return TangentBlocks(k_uu=k_uu, k_ud=k_ud, k_du=k_du, k_dd=k_dd)


# ---------------------------------------------------------------------------
# linear and nonlinear solves
# ---------------------------------------------------------------------------

def linear_solve(matrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by one of two direct methods.

    - ``matrix`` an ndarray: the lower band of a symmetric positive definite
      matrix, as ``BandPattern.assemble`` returns it, solved by banded
      Cholesky (LAPACK ``pbsv``).  The forward solves take this path: K_uu
      on the free DOFs in Newton and K_dd in the crack solve.  A band that
      is not positive definite raises SolverError; there is no LU fallback.
    - ``matrix`` a scipy sparse matrix: solved by sparse LU (SuperLU),
      ``spsolve`` on its CSC form.  The adjoint solves take this path,
      since the Formulation-2 system is unsymmetric; they pass the CSC
      system that ``sensitivity.AdjointPattern.fill`` builds.
    """
    if rhs.size == 0:
        return np.zeros(0)
    if isinstance(matrix, np.ndarray):
        try:
            sol = solveh_banded(matrix, rhs, lower=True, check_finite=False)
        except np.linalg.LinAlgError as err:
            raise SolverError(f"banded Cholesky failed, matrix not positive "
                              f"definite: {err}") from err
    else:
        sol = spsolve(matrix.tocsc(), rhs)
    if not np.all(np.isfinite(sol)):
        raise SolverError("linear solve produced non-finite values "
                          "(singular system after elimination?)")
    return sol


def solve_crack_field(problem: Problem, d_prev, history_qp, phi_qp):
    """One linear solve of the crack-field equation (it is linear in d for a
    fixed history), projected onto [d_prev, 1] so the crack never heals.

    Returns the projected field and the overshoot of the unconstrained solve
    past those bounds, ``max(d - 1, d_prev - d, 0)``; it is nonzero exactly
    when the projection changed a value."""
    mesh = problem.mesh
    band = problem.dd_band
    load = mesh.scatter(_crack_load(problem, d_prev, history_qp))
    k_dd = band.assemble(_kdd_blocks(problem, history_qp, phi_qp))
    d_new = np.empty(mesh.n_nodes)
    d_new[band.order] = linear_solve(k_dd, load[band.order])
    overshoot = max(float(np.max(d_new) - 1.0), float(np.max(d_prev - d_new)),
                    0.0)
    return np.clip(d_new, d_prev, 1.0), overshoot


def newton_displacement(problem: Problem, fields: FieldSet,
                        qstate_prev: QuadState, settings: SolverSettings):
    """Newton iteration for the displacement field at fixed d and phi.

    ``fields.u`` must already carry the prescribed values; only free DOFs
    are updated.  Returns the constitutive result, the converged full
    residual and iteration diagnostics.  The returned result is the sweep
    at the returned ``fields.u`` with ``fields.d``, ``fields.phi`` and
    ``qstate_prev``, so a caller at those same fields may reuse it.

    Each iteration builds the residual first and K_uu (with the tangent
    moduli) only when a correction follows, so the converged sweep never
    evaluates the tangent.
    """
    free = problem.free_dofs
    u = fields.u
    ref = None
    corrections = 0
    for it in range(settings.newton_max_iter + 1):
        result, _, _ = constitutive_sweep(problem, u, fields.d, fields.phi,
                                          qstate_prev)
        residual = assemble_ru(problem, result)
        rnorm = np.linalg.norm(residual[free]) if free.size else 0.0
        if ref is None:
            ref = max(rnorm, settings.newton_tol_abs)
        if rnorm <= max(settings.newton_tol_abs, settings.newton_tol_rel * ref):
            return result, residual, corrections, it
        if it == settings.newton_max_iter:
            break
        band = problem.uu_band
        k_uu = band.assemble(_kuu_blocks(problem, result))
        u[band.order] += linear_solve(k_uu, -residual[band.order])
        corrections += 1
    raise SolverError("displacement Newton failed to converge",
                      residual=rnorm)


def staggered_step(problem: Problem, fields_prev: FieldSet,
                   qstate_prev: QuadState, load_value: float,
                   settings: SolverSettings):
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

    stats = StepStats()
    ref = None
    u_last = None
    d_last = None
    # phase-field part of the first pass: history from the start iterate
    result, _, phi_qp = constitutive_sweep(
        problem, fields.u, fields.d, fields.phi, qstate_prev)
    history_qp = tentative_history(problem, result, qstate_prev)
    for k in range(1, settings.stagger_max_iter + 1):
        fields.d, overshoot = solve_crack_field(
            problem, fields_prev.d, history_qp, phi_qp)
        stats.d_overshoot = max(stats.d_overshoot, overshoot)

        # mechanical part under the new prescribed values
        fields.u[problem.prescribed_dofs] = 0.0
        fields.u[problem.driven_dofs] = load_value
        result, residual, corr, nit = newton_displacement(
            problem, fields, qstate_prev, settings)
        stats.newton_corrections += corr
        stats.newton_iterations += nit
        stats.stagger_iterations = k

        # combined residual at the end of the pass; bound-active crack DOFs
        # contribute only their feasible-direction (projected) residual.
        # The history also drives the next pass's crack solve.
        history_qp = tentative_history(problem, result, qstate_prev)
        rd = assemble_rd(problem, fields.d, fields_prev.d, history_qp,
                         phi_qp)
        rd[(fields.d <= fields_prev.d) & (rd > 0.0)] = 0.0
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
                     settings: SolverSettings = None, phi=None) -> Trajectory:
    """March the prescribed displacement in ``n_steps`` uniform increments
    on a fixed topology, recording every committed state."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    settings = settings or SolverSettings()
    fields = problem.initial_fields(phi)
    qstate = problem.initial_state()

    traj = Trajectory()
    traj.fields.append(fields.copy())
    traj.qstates.append(qstate.copy())
    traj.load_factor.append(0.0)
    traj.reaction.append(0.0)

    for n in range(1, n_steps + 1):
        load = n * du_per_step
        try:
            fields, qstate, stats = staggered_step(
                problem, fields, qstate, load, settings)
        except SolverError as err:
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
