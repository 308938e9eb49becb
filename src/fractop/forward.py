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
(eta_f / tau_f)(d - d_prev) included.  The stopping rules of the Newton and
staggered loops are the module constants below; ``SolverSettings`` holds
only the cap on staggered passes, the one rule that configurations vary.

The two forward systems, K_uu on the free DOFs (Newton) and K_dd (crack
solve), are symmetric positive definite.  They are assembled straight into
LAPACK lower band storage through the mesh's band patterns
(``Mesh.band_pattern``), which each Problem builds once, on first use, and
solved by banded Cholesky, LAPACK ``pbsv`` looked up once at import and
called without ``solveh_banded``'s per-call checks (same routine, same
bits).  The adjoint systems (unsymmetric for Formulation 2) stay sparse and
go through sparse LU, in the column order the caller gives.

The element matrices are weighted sums of quadrature-point operators that
depend on the mesh alone, which each Problem also builds once, on first use
(``ElementOperators``).  K_uu needs only the three tangent moduli (a, b, c)
of ``material.tangent_moduli`` per point, never the 6x6 tangent; K_dd is a
weighted sum of N_a N_b and grad N_a . grad N_b, and R_d(d) = K_dd d - load
is evaluated as a block mat-vec with the same element matrices.  The kernel
of K_ud, K_du and dR_u/dPhi (``stress_shape_blocks``) reads B without its
structural zeros from the same operators and sums in the order of the
einsum it replaces, so its bytes are that einsum's.

What phi fixes is computed once per topology: ``Problem.layout`` returns
phi, the solid/void transition f(phi) and its regularized slope at the
quadrature points, and the l_f^2 f(phi) grad N . grad N term of the K_dd
element blocks (``TopologyLayout``).  It is the one place that picks the
transition: the exact Heaviside, or with ``regularized`` its logistic
counterpart, which only the finite-difference arm of the sensitivity check
asks for (``run_load_history(..., regularized=True)`` in ``verify``).  A
load history builds its layout once and passes it to every sweep and crack
assembly; an adjoint sweep does the same.  The constitutive sweep stores
f(phi) on the ``StressResult`` (``fphi``) and the assembly reads it from
there.  A layout is passed, never cached on the Problem, so one Problem
serves both transitions.

Within a staggered pass the end-of-pass residual and the next pass's crack
solve read one ``crack_operator`` (K_dd element blocks and crack load) of
the same history.  A load history also skips a step's opening constitutive
sweep after a level with no plastic increment: the sweep would repeat that
level's last one, so its tentative history is the committed history
(``run_load_history``).  None of this moves a value: every committed state
equals, bit for bit, what the sweeps and operators computed afresh give.

What a history keeps: one copy of each state.  A committed level shares
every array its step left unchanged with the level before: ``phi``, fixed
for the whole history, and after an elastic step the plastic strain, the
equivalent plastic strain and an all-zero multiplier, which
``material.return_map`` then returns as they were.  Every array of every
level is read-only, so a write raises instead of editing each level that
shares it.  While a step runs, Newton and the staggered pass hold one
constitutive sweep at a time, dropping the last before they take the next,
and each band solve consumes its band: LAPACK factors it in place.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import spsolve

from . import material as mat
from .material import MaterialParams, QuadState
from .mesh import Mesh

log = logging.getLogger("fractop")

ONSET_CRACK = 0.1   # crack field value that marks fracture onset

# Newton on u stops at |R_u| <= max(NEWTON_TOL_ABS, NEWTON_TOL_REL |R_u^0|)
NEWTON_TOL_ABS = 1e-10
NEWTON_TOL_REL = 1e-8
NEWTON_MAX_ITER = 25
# a staggered pass converges at |R| <= max(STAGGER_TOL |R^1|, STAGGER_TOL_ABS)
STAGGER_TOL = 1e-6
STAGGER_TOL_ABS = 1e-11

# LAPACK's banded Cholesky solve, the routine ``scipy.linalg.solveh_banded``
# calls for a band of three or more rows, looked up once
_PBSV, = get_lapack_funcs(("pbsv",), dtype=np.float64)


class SolverError(RuntimeError):
    """Raised when a linear or nonlinear solve fails to produce a usable
    state.  A load history that fails sets ``partial_trajectory`` to the
    steps it committed."""

    partial_trajectory = None


@dataclass(frozen=True)
class SolverSettings:
    """Cap on the staggered passes of one load step; the other stopping
    rules are module constants, and the ``Problem`` defines the residual
    they drive to zero."""

    stagger_max_iter: int = 200

    def __post_init__(self):
        if self.stagger_max_iter < 1:
            raise ValueError("stagger_max_iter must be >= 1")


@dataclass
class FieldSet:
    """Nodal fields at one committed time level plus recovered reactions.

    ``copy`` copies ``u``, ``d`` and ``p_u`` and shares ``phi``, which is
    fixed for a whole load history."""

    u: np.ndarray       # (n_udof,)
    d: np.ndarray       # (n_nodes,) in [0, 1]
    phi: np.ndarray     # (n_nodes,) in [-1, 1]
    p_u: np.ndarray     # (n_udof,) reactions, nonzero only at prescribed DOFs

    def copy(self) -> "FieldSet":
        return FieldSet(self.u.copy(), self.d.copy(), self.phi,
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
    load step ``n``.  Every array of every level is read-only, and a level
    shares the arrays its step left unchanged with the level before: ``phi``
    always, and ``eps_p``, ``alpha`` and ``lambda_p`` after an elastic step
    (see the module docstring).
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

    prescribed_dofs: np.ndarray = field(init=False)
    driven_dofs: np.ndarray = field(init=False)
    free_dofs: np.ndarray = field(init=False)
    # sensitivity.AdjointPattern by formulation, each built on first use
    adjoint_patterns: dict = field(init=False, default_factory=dict,
                                   repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.l_delta < np.inf:
            raise ValueError("l_delta must be positive and finite")
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

    def layout(self, phi, regularized: bool = False) -> "TopologyLayout":
        """What the nodal topological field ``phi`` fixes for every solve on
        it, with the exact Heaviside in f(phi) or, if ``regularized``, the
        logistic one of width ``l_delta``; see ``TopologyLayout``."""
        mesh = self.mesh
        kappa = self.params.kappa
        gg = self.operators.gg
        phi_qp = mesh.interpolate(phi)
        fphi = mat.transition_f(phi_qp, kappa,
                                self.l_delta if regularized else None)
        dfphi = mat.transition_slope(phi_qp, kappa, self.l_delta)
        gradw = mesh.w_detj * self.params.l_f ** 2 * fphi
        kdd_grad = (gradw[:, None, :]
                    @ gg.reshape(mesh.n_elems, gg.shape[1], -1))[:, 0]
        return TopologyLayout(phi_qp=phi_qp, fphi=fphi, dfphi=dfphi,
                              kdd_grad=kdd_grad)

    @cached_property
    def uu_band(self):
        """``mesh.BandPattern`` of K_uu on the free DOFs, built on first
        use."""
        mesh = self.mesh
        dofs = mesh.udofs_of(mesh.structured_order)
        return mesh.band_pattern(dofs[np.isin(dofs, self.free_dofs)],
                                 mesh.elem_udofs.shape[1])

    @cached_property
    def dd_band(self):
        """``mesh.BandPattern`` of K_dd, built on first use."""
        return self.mesh.band_pattern(self.mesh.structured_order,
                                      self.mesh.nodes_per_elem)

    @cached_property
    def operators(self) -> "ElementOperators":
        """Quadrature-point operators of the element kernels, built on first
        use."""
        return _element_operators(self.mesh)


@dataclass(frozen=True)
class TopologyLayout:
    """The parts of the forward and adjoint systems that depend on the
    topological field alone, built by ``Problem.layout`` once per load
    history or adjoint sweep.

    ``phi_qp`` is phi at the quadrature points, ``fphi`` the transition
    f(phi) there, exact or regularized as the layout was asked for, and
    ``dfphi`` the slope 2 (1 - kappa) H(phi) delta(phi) of the regularized
    transition, which stands in for the slope in dR/dPhi whichever f(phi)
    the forward used.  ``kdd_grad[e]`` is the flattened gradient term
    sum_q w l_f^2 f(phi) grad N_a . grad N_b of the element K_dd blocks.
    """

    phi_qp: np.ndarray
    fphi: np.ndarray
    dfphi: np.ndarray
    kdd_grad: np.ndarray


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


def constitutive_sweep(problem: Problem, u, d, layout: TopologyLayout,
                       qstate_prev: QuadState):
    """Return-map every quadrature point at the nodal fields ``u`` and ``d``
    on ``layout``.  Returns the result, the crack field at the points and
    the layout: the triple, a *sweep*, that the tangent and dR/dPhi
    assemblies read."""
    mesh = problem.mesh
    eps = strain_tensor6(mesh, u)
    d_qp = mesh.interpolate(np.clip(d, 0.0, 1.0))
    d_qp = np.clip(d_qp, 0.0, 1.0)
    result = mat.return_map(eps, qstate_prev, d_qp, layout.phi_qp,
                            problem.params, fphi=layout.fphi)
    return result, d_qp, layout


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
      v = B^T n;
    - ``b_rows[k, i]`` is the k-th row of B that is not zero throughout
      column i (DOF i), in increasing order, shape (K, ndofe) with K = dim,
      and ``b_kept[e, q, k, i] = B[e, q, b_rows[k, i], i]``, shape
      (ne, nq, K, ndofe): B without its structural zeros.  Only
      ``stress_shape_blocks`` reads ``b_kept``, which the adjoint and
      dR/dPhi call, so it is built from the mesh's ``b_u`` on first use.
    """

    nn: np.ndarray
    gg: np.ndarray
    kuu: np.ndarray
    b_rows: np.ndarray
    b_u: np.ndarray = field(repr=False)   # the mesh's B, not a copy

    @cached_property
    def b_kept(self) -> np.ndarray:
        return self.b_u[:, :, self.b_rows, np.arange(self.b_u.shape[-1])]


def _element_operators(mesh: Mesh) -> ElementOperators:
    rows = mesh.voigt_rows
    b_u = mesh.b_u
    m = b_u[:, :, :mesh.dimension].sum(axis=2)
    mm = m[..., :, None] * m[..., None, :]
    pdev = np.einsum("eqsi,st,eqtj->eqij", b_u, mat.P_DEV[np.ix_(rows, rows)],
                     b_u, optimize=True)
    ne, nq, ndofe = m.shape
    # each DOF moves its own component's normal strain and the shears that
    # involve that component: dim rows of B, the same in every element
    nonzero = np.any(b_u != 0.0, axis=(0, 1))
    b_rows = np.stack([np.flatnonzero(col) for col in nonzero.T], axis=1)
    return ElementOperators(
        nn=np.einsum("qa,qb->qab", mesh.shape_n, mesh.shape_n),
        gg=np.einsum("eqad,eqbd->eqab", mesh.dn_dx, mesh.dn_dx),
        kuu=np.concatenate([mm, pdev], axis=1).reshape(ne, 2 * nq,
                                                       ndofe * ndofe),
        b_rows=b_rows, b_u=b_u)


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


def crack_operator(problem: Problem, d_prev, history_qp,
                   layout: TopologyLayout):
    """Element matrices (n_elems, nen, nen) and load vectors (n_elems, nen)
    of the crack-field system K_dd d = load at one history and ``d_prev``.
    A staggered pass builds them once for its end-of-pass residual and the
    next pass's crack solve."""
    return (_kdd_blocks(problem, history_qp, layout),
            _crack_load(problem, d_prev, history_qp))


def assemble_rd(problem: Problem, d, operator):
    """Crack-field residual K_dd d - load of a ``crack_operator``, one
    element block at a time.

    Residual form: [(1-kappa)(d-1)H + d + (eta_f/tau_f)(d - d_prev)] N
    + l_f^2 f(phi) grad d . grad N.
    """
    mesh = problem.mesh
    blocks, load = operator
    contrib = (blocks @ d[mesh.conn][..., None])[..., 0]
    contrib -= load
    return mesh.scatter(contrib)


def _crack_load(problem: Problem, d_prev, history_qp):
    """Element load vectors (n_elems, nen) of the crack-field system,
    sum_q w ((1 - kappa) H + (eta_f / tau_f) d_prev) N_a."""
    mesh = problem.mesh
    p = problem.params
    visc = p.eta_f / p.tau_f
    source = (1.0 - p.kappa) * history_qp + visc * mesh.interpolate(d_prev)
    return (mesh.w_detj * source) @ mesh.shape_n


def _kdd_blocks(problem: Problem, history_qp, layout: TopologyLayout):
    """Element matrices (n_elems, nen, nen) of the crack-field system."""
    mesh = problem.mesh
    p = problem.params
    nn = problem.operators.nn
    visc = p.eta_f / p.tau_f
    react = (1.0 - p.kappa) * history_qp + 1.0 + visc

    nq, nen, _ = nn.shape
    blocks = (mesh.w_detj * react) @ nn.reshape(nq, -1)
    blocks += layout.kdd_grad
    return blocks.reshape(-1, nen, nen)


def stress_shape_blocks(problem: Problem, s: np.ndarray,
                        elements=slice(None)) -> np.ndarray:
    """Element blocks (n_elems, ndofe, nen) of sum_q w (B^T s)_i N_a for a
    quadrature-point field ``s`` in the rows of B: the kernel of K_ud, of
    K_du (transposed) and of dR_u/dPhi.  With ``elements`` an index array,
    ``s`` and the blocks cover those elements only.

    The sum is written out in the order of ``np.einsum("eqsi,eqs,qa,eq->eia",
    b_u, s, shape_n, w_detj)``, whose bytes it repeats: each term is
    ((B s) N) w, and the terms are added to blocks that start at +0.0, q
    outer and the rows of B inner.  The rows where B is structurally zero
    (``ElementOperators.b_rows``) are skipped: their terms are +-0, and
    adding +-0 to a sum that starts at +0.0 changes no bit.
    """
    ops = problem.operators
    w = problem.mesh.w_detj[elements]
    terms = ops.b_kept[elements] * np.take(s, ops.b_rows, axis=2)
    terms = terms[..., None] * problem.mesh.shape_n[:, None, None, :]
    terms *= w[:, :, None, None, None]
    blocks = np.zeros(terms.shape[:1] + terms.shape[3:])
    for q in range(terms.shape[1]):
        for k in range(terms.shape[2]):
            blocks += terms[:, q, k]
    return blocks


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
    k_ud = mesh.assemble(stress_shape_blocks(problem, coef))

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
        blocks[hot] = stress_shape_blocks(problem, sens,
                                          hot).transpose(0, 2, 1)
    k_du = mesh.assemble(blocks)
    return k_ud, k_du


def assemble_tangent_blocks(problem: Problem, sweep, qstate_prev: QuadState,
                            formulation: int = 2) -> TangentBlocks:
    """Re-assemble the tangent that the adjoint of ``formulation`` solves at
    a committed trajectory state from its constitutive sweep, the return
    value of ``constitutive_sweep`` on that state and ``qstate_prev``."""
    result, d_qp, layout = sweep
    k_uu = problem.mesh.assemble(_kuu_blocks(problem, result))
    if formulation == 1:
        return TangentBlocks(k_uu=k_uu)
    history_qp = tentative_history(problem, result, qstate_prev)
    k_dd = problem.mesh.assemble(_kdd_blocks(problem, history_qp, layout))
    k_ud, k_du = assemble_coupling_blocks(problem, result, qstate_prev, d_qp)
    return TangentBlocks(k_uu=k_uu, k_ud=k_ud, k_du=k_du, k_dd=k_dd)


# ---------------------------------------------------------------------------
# linear and nonlinear solves
# ---------------------------------------------------------------------------

def linear_solve(matrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by one of two direct methods.

    - ``matrix`` an ndarray: the lower band of a symmetric positive definite
      matrix, as ``mesh.BandPattern.assemble`` returns it, solved by banded
      Cholesky (LAPACK ``pbsv``, called directly).  The band is consumed:
      LAPACK overwrites it with its Cholesky factor, so pass a band that is
      not read again.  The forward solves take this path, each on a fresh
      band: K_uu on the free DOFs in Newton and K_dd in the crack solve.  A
      band that is not positive definite raises SolverError; there is no LU
      fallback.
    - ``matrix`` a scipy sparse matrix: solved by sparse LU (SuperLU),
      ``spsolve`` on its CSC form in the column order given
      (``permc_spec="NATURAL"``): the caller's order is trusted to be
      fill-reducing.  The adjoint solves take this path, since the
      Formulation-2 system is unsymmetric; they pass the CSC system that
      ``sensitivity.AdjointPattern.fill`` builds, whose columns are already
      in COLAMD's order.
    """
    if rhs.size == 0:
        return np.zeros(0)
    if isinstance(matrix, np.ndarray):
        _, sol, info = _PBSV(matrix, rhs, lower=True, overwrite_ab=True)
        if info > 0:
            raise SolverError(f"banded Cholesky failed, matrix not positive "
                              f"definite: {info}th leading minor")
        if info < 0:
            raise SolverError(f"banded Cholesky rejected argument {-info}")
    else:
        sol = spsolve(matrix.tocsc(), rhs, permc_spec="NATURAL")
    if not np.all(np.isfinite(sol)):
        raise SolverError("linear solve produced non-finite values "
                          "(singular system after elimination?)")
    return sol


def solve_crack_field(problem: Problem, d_prev, operator):
    """One linear solve of the crack-field equation of a ``crack_operator``
    (it is linear in d for a fixed history), projected onto [d_prev, 1] so
    the crack never heals.

    Returns the projected field and the overshoot of the unconstrained solve
    past those bounds, ``max(d - 1, d_prev - d, 0)``; it is nonzero exactly
    when the projection changed a value."""
    mesh = problem.mesh
    band = problem.dd_band
    blocks, element_load = operator
    load = mesh.scatter(element_load)
    k_dd = band.assemble(blocks)
    d_new = np.empty(mesh.n_nodes)
    d_new[band.order] = linear_solve(k_dd, load[band.order])
    overshoot = max(float(np.max(d_new) - 1.0), float(np.max(d_prev - d_new)),
                    0.0)
    return np.clip(d_new, d_prev, 1.0), overshoot


def newton_displacement(problem: Problem, fields: FieldSet,
                        layout: TopologyLayout, qstate_prev: QuadState):
    """Newton iteration for the displacement field at fixed d and phi.

    ``fields.u`` must already carry the prescribed values; only free DOFs
    are updated.  Returns the constitutive result, the converged full
    residual and iteration diagnostics.  The returned result is the sweep
    at the returned ``fields.u`` with ``fields.d``, ``layout`` and
    ``qstate_prev``, so a caller at those same fields may reuse it.

    Each iteration builds the residual first and K_uu (with the tangent
    moduli) only when a correction follows, so the converged sweep never
    evaluates the tangent.
    """
    free = problem.free_dofs
    u = fields.u
    ref = None
    corrections = 0
    for it in range(NEWTON_MAX_ITER + 1):
        result, _, _ = constitutive_sweep(problem, u, fields.d, layout,
                                          qstate_prev)
        residual = assemble_ru(problem, result)
        rnorm = np.linalg.norm(residual[free]) if free.size else 0.0
        if ref is None:
            ref = max(rnorm, NEWTON_TOL_ABS)
        if rnorm <= max(NEWTON_TOL_ABS, NEWTON_TOL_REL * ref):
            return result, residual, corrections, it
        if it == NEWTON_MAX_ITER:
            break
        band = problem.uu_band
        k_uu = band.assemble(_kuu_blocks(problem, result))
        rhs = -residual[band.order]
        # hold one sweep and one band at a time: this sweep goes before the
        # next is computed, and the band once LAPACK has factored it
        del result, residual
        u[band.order] += linear_solve(k_uu, rhs)
        del k_uu
        corrections += 1
    raise SolverError(f"displacement Newton failed to converge: residual "
                      f"{rnorm:.3e}")


def staggered_step(problem: Problem, fields_prev: FieldSet,
                   qstate_prev: QuadState, load_value: float,
                   settings: SolverSettings, layout: TopologyLayout,
                   opening_history=None):
    """Alternate crack-field and displacement solves until the combined
    residual drops below the staggered tolerance; commits the quadrature
    state and history on exit.

    ``layout`` is the ``Problem.layout`` of ``fields_prev.phi``.  One
    constitutive sweep opens the step, unless the caller passes its
    tentative history as ``opening_history``.  Every later pass reuses
    the previous pass's final Newton sweep and the tentative history built
    from it: that sweep was taken at the current u, d and phi with the same
    ``qstate_prev``, which is exactly the sweep the pass would otherwise
    repeat, so the reuse changes no value.  The crack operator of that
    history serves both the end-of-pass residual and the next crack solve.
    A pass accepted through the fixed-point exit instead of the tolerance
    sets ``stats.stalled``.
    """
    mesh = problem.mesh
    fields = fields_prev.copy()

    stats = StepStats()
    ref = None
    u_last = None
    d_last = None
    # phase-field part of the first pass: history from the start iterate
    history_qp = opening_history
    if history_qp is None:
        result, _, _ = constitutive_sweep(
            problem, fields.u, fields.d, layout, qstate_prev)
        history_qp = tentative_history(problem, result, qstate_prev)
        del result
    operator = crack_operator(problem, fields_prev.d, history_qp, layout)
    for k in range(1, settings.stagger_max_iter + 1):
        fields.d, overshoot = solve_crack_field(problem, fields_prev.d,
                                                operator)
        stats.d_overshoot = max(stats.d_overshoot, overshoot)

        # mechanical part under the new prescribed values
        fields.u[problem.prescribed_dofs] = 0.0
        fields.u[problem.driven_dofs] = load_value
        result, residual, corr, nit = newton_displacement(
            problem, fields, layout, qstate_prev)
        stats.newton_corrections += corr
        stats.newton_iterations += nit
        stats.stagger_iterations = k

        # combined residual at the end of the pass; bound-active crack DOFs
        # contribute only their feasible-direction (projected) residual.
        # The history and its operator also drive the next pass's crack
        # solve.
        history_qp = tentative_history(problem, result, qstate_prev)
        operator = crack_operator(problem, fields_prev.d, history_qp, layout)
        rd = assemble_rd(problem, fields.d, operator)
        rd[(fields.d <= fields_prev.d) & (rd > 0.0)] = 0.0
        rd[(fields.d >= 1.0) & (rd < 0.0)] = 0.0
        res = (np.linalg.norm(residual[problem.free_dofs])
               + np.linalg.norm(rd))
        stats.residual = res
        if ref is None:
            ref = max(res, STAGGER_TOL_ABS)
        converged = res <= max(STAGGER_TOL * ref, STAGGER_TOL_ABS)
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
        del result, residual   # the next pass holds its own sweep only
        u_last = fields.u.copy()
        d_last = fields.d.copy()
    raise SolverError(f"staggered scheme failed to converge: residual "
                      f"{res:.3e}")


def run_load_history(problem: Problem, n_steps: int, du_per_step: float,
                     settings: SolverSettings = None, phi=None,
                     regularized: bool = False) -> Trajectory:
    """March the prescribed displacement in ``n_steps`` uniform increments
    on a fixed topology, recording every committed state.

    The topology's layout is built once, with the regularized transition if
    ``regularized`` (``Problem.layout``).  A step that follows a level with
    no plastic increment skips its opening sweep: that sweep would repeat
    the last sweep of the step before (same u, d and phi; the plastic state
    it starts from is the one that sweep started from), whose tentative
    history the level already holds, so max(H^(n-1), H~) is H^(n-1).  Level
    0 holds zero history, which is also what a sweep at zero strain gives.
    Each level goes on the tape as the step returned it, made read-only.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    settings = settings or SolverSettings()
    fields = problem.initial_fields(phi)
    qstate = problem.initial_state()
    layout = problem.layout(fields.phi, regularized)

    traj = Trajectory()
    _commit(traj, fields, qstate)
    traj.load_factor.append(0.0)
    traj.reaction.append(0.0)

    for n in range(1, n_steps + 1):
        load = n * du_per_step
        opening = None if np.any(qstate.lambda_p) else qstate.history
        try:
            fields, qstate, stats = staggered_step(
                problem, fields, qstate, load, settings, layout=layout,
                opening_history=opening)
        except SolverError as err:
            err.partial_trajectory = traj
            raise
        reaction = float(fields.p_u[problem.driven_dofs].sum())
        _commit(traj, fields, qstate)
        traj.load_factor.append(load)
        traj.reaction.append(reaction)
        traj.stats.append(stats)
        log.debug("[n=%03d] load=%.6g reaction=%.6g stagger=%d", n, load,
                  reaction, stats.stagger_iterations)
    return traj


def _commit(traj: Trajectory, fields: FieldSet, qstate: QuadState):
    """Append a level to the tape as it is, every array made read-only: the
    next step copies what it changes, and a write into a shared array
    raises instead of editing every level that holds it."""
    for array in (fields.u, fields.d, fields.phi, fields.p_u, qstate.eps_p,
                  qstate.alpha, qstate.history, qstate.lambda_p):
        array.flags.writeable = False
    traj.fields.append(fields)
    traj.qstates.append(qstate)
