"""Outer optimization loop: incremental volume targeting, bi-sectioning of
the volume Lagrange multiplier and the termination rule.

Each outer iteration re-runs the full load history on the current topology
(path history is invalid after a topology change), sweeps the adjoints,
filters the solid sensitivity and then brackets the volume multiplier until
the expected-volume target of the iteration is met: one bisection per outer
iteration, with the level-set pseudo-time step annealed once the final
volume has been reached.  The stopping rules of the bisection and of the
outer loop are the module constants below.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import filtering, levelset, sensitivity
from .forward import Problem, SolverError, SolverSettings, run_load_history
from .levelset import TopoParams

log = logging.getLogger("fractop")

BISECTION_TOL = 1e-3      # relative change of the multiplier at which to stop
BISECTION_MAX_ITER = 60
VOLUME_TOL = 1e-2         # |chi - target| at which the volume constraint holds
STAGNATION_TOL = 1e-4     # relative change of J that counts as stalled
STAGNATION_WINDOW = 3     # stalled outer iterations that end the loop


@dataclass
class OptimizationSettings:
    target_volume: float
    r_min: float
    theta_v: float = 0.05
    formulation: int = 2
    max_outer_iterations: int = 300
    n_steps: int = 1
    du_per_step: float = 0.0
    # CFL-style saturation of the normalized velocity: bounds the level-set
    # front motion to O(1) element layers per outer iteration
    velocity_cap: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.target_volume <= 1.0:
            raise ValueError("target_volume must lie in (0, 1]")
        if self.formulation not in (1, 2):
            raise ValueError("formulation must be 1 or 2")
        if not self.r_min > 0:
            raise ValueError("r_min must be positive")
        if not 0.0 < self.theta_v <= 1.0:
            raise ValueError("theta_v must lie in (0, 1]")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be >= 1")
        if not self.velocity_cap >= 0:
            raise ValueError("velocity_cap must be >= 0 (0: no cap)")


@dataclass
class OptimizerState:
    """Mutable state of the outer loop: current topology, accepted
    multiplier, and the filtered-sensitivity history buffer (depth 3)."""

    phi: np.ndarray
    lambda_v: float = 0.0
    expected_volume: float = 1.0
    sensitivity_history: list = field(default_factory=list)


@dataclass
class ConvergenceRecord:
    iteration: int
    objective: float
    volume_ratio: float
    lambda_v: float
    bisection_iterations: int


@dataclass
class OptimizationResult:
    phi: np.ndarray
    records: list
    converged: bool
    trajectory: object = None    # forward history of the last analyzed layout
    bracket_ok: bool = True      # multiplier bracket invariant over all outers
    expected_volumes: list = None  # per-iteration incremental volume targets


def expected_volume(chi_prev: float, target: float, theta_v: float) -> float:
    """Geometric approach of the per-iteration volume target toward the
    final fraction; fixed point at chi_prev = target."""
    return chi_prev - theta_v * (chi_prev - target)


def bisection_step(problem: Problem, state: OptimizerState,
                   g_s_filtered: np.ndarray, topo: TopoParams,
                   settings: OptimizationSettings):
    """Bracket the volume multiplier until the candidate topology meets the
    expected volume of this outer iteration.

    The Dirac weights of the volume sensitivity are anchored at the
    incoming topology so the candidate volume is monotone in the
    multiplier.  The level-set matrix is factored once; each trial only
    solves with it.  Returns (phi_new, lambda_v, diagnostics).
    """
    mesh = problem.mesh
    lam_l = 1e-8
    lam_u = max(1e8, 1e4 * state.lambda_v)
    system = levelset.reaction_diffusion_system(mesh, topo,
                                                problem.driven_nodes)
    w_dirac = levelset.dirac_volume_vector(mesh, state.phi, problem.l_delta)

    lam = None
    converged = False
    bracket_ok = True
    iterations = 0
    # accept the candidate closest to the expected volume, preferring the
    # from-above side: a jumpy chi(lambda) must never strip much more than
    # the iteration's quota in one accept.  Near the final target the mesh
    # granularity of chi can exceed the shrinking per-iteration quota, so
    # the reference switches to the final fraction to let the loop finish.
    endgame = (abs(state.expected_volume - settings.target_volume)
               <= 2.0 * VOLUME_TOL)
    chi_ref = settings.target_volume if endgame else state.expected_volume
    best = None
    for k in range(1, BISECTION_MAX_ITER + 1):
        lam_prev = lam
        lam = float(np.sqrt(lam_l * lam_u))
        bracket_ok = bracket_ok and (lam_l <= lam <= lam_u)
        g_total = g_s_filtered + lam * w_dirac
        v = sensitivity.velocity_from_sensitivity(g_total)
        if settings.velocity_cap > 0:
            v = np.clip(v, -settings.velocity_cap, settings.velocity_cap)
        phi_new = levelset.solve_reaction_diffusion(system, state.phi, v)
        chi = levelset.volume_ratio(mesh, phi_new)
        gap = chi - chi_ref
        penalty = gap if gap >= 0.0 else 1.5 * (-gap)
        if best is None or penalty < best[0]:
            best = (penalty, phi_new, lam, chi)
        if chi >= state.expected_volume:
            lam_l = lam
        else:
            lam_u = lam
        if lam_l > lam_u:
            raise SolverError("volume multiplier bracket inverted")
        iterations = k
        if lam_prev is not None:
            res_v = abs(lam - lam_prev) / abs(lam + lam_prev)
            if res_v <= BISECTION_TOL:
                converged = True
                break
    _, phi_out, lam_out, chi_out = best
    if not converged:
        log.warning("bisection hit the iteration cap; returning best "
                    "candidate (chi=%.4f, target=%.4f)", chi_out,
                    state.expected_volume)
    return phi_out, lam_out, {"iterations": iterations,
                              "converged": converged, "chi": chi_out,
                              "bracket_ok": bracket_ok}


def run_optimization(problem: Problem, topo: TopoParams,
                     settings: OptimizationSettings,
                     solver: SolverSettings = None,
                     callback=None) -> OptimizationResult:
    """Full outer loop; terminates when the objective stalls
    (``STAGNATION_TOL``) for ``STAGNATION_WINDOW`` iterations while the
    volume constraint is met (``VOLUME_TOL``)."""
    mesh = problem.mesh
    state = OptimizerState(phi=np.ones(mesh.n_nodes))
    kernel = filtering.build_kernel(mesh, settings.r_min)

    records = []
    stagnant = 0
    converged = False
    trajectory = None
    bracket_ok = True
    expected_volumes = []
    # once the target volume is reached the pseudo-time step is annealed so
    # the desk-scale layout settles into a fixed point instead of trading
    # near-equal-value boundary nodes forever
    tau_eff = topo.tau_phi
    reached_target = False
    try:
        for m in range(1, settings.max_outer_iterations + 1):
            trajectory = run_load_history(problem, settings.n_steps,
                                          settings.du_per_step, solver,
                                          phi=state.phi)
            # the objective is the stored work
            objective = -sensitivity.objective_total(trajectory)
            chi_prev = levelset.volume_ratio(mesh, state.phi)

            adjoints = sensitivity.adjoint_sweep(problem, trajectory,
                                                 settings.formulation)
            g_s = sensitivity.solid_sensitivity(adjoints)
            g_tilde = filtering.filter_field(kernel, g_s)
            g_hat = filtering.history_average(g_tilde,
                                              state.sensitivity_history)
            state.sensitivity_history.append(g_hat)
            del state.sensitivity_history[:-2]

            state.expected_volume = expected_volume(chi_prev,
                                                    settings.target_volume,
                                                    settings.theta_v)
            expected_volumes.append(state.expected_volume)
            if reached_target:
                tau_eff = max(0.7 * tau_eff, 1e-3 * topo.tau_phi)
            if (settings.target_volume >= 1.0
                    and chi_prev <= settings.target_volume):
                # constraint already met with nothing to remove
                lam = 0.0
                diag = {"iterations": 0, "converged": True, "chi": chi_prev,
                        "bracket_ok": True}
            else:
                state.phi, lam, diag = bisection_step(
                    problem, state, g_hat, replace(topo, tau_phi=tau_eff),
                    settings)
            bracket_ok = bracket_ok and diag["bracket_ok"]
            state.lambda_v = lam

            rec = ConvergenceRecord(
                iteration=m, objective=objective, volume_ratio=diag["chi"],
                lambda_v=lam, bisection_iterations=diag["iterations"])
            records.append(rec)
            log.info("[m=%03d] J=%.9g chi=%.4f lambda_V=%.4g bisect=%d",
                     m, objective, diag["chi"], lam, diag["iterations"])
            if callback is not None:
                callback(rec, state)

            volume_ok = abs(diag["chi"] - settings.target_volume) \
                <= VOLUME_TOL
            reached_target = reached_target or volume_ok
            if len(records) >= 2:
                prev = records[-2].objective
                denom = max(abs(objective), 1e-14)
                if abs(objective - prev) / denom < STAGNATION_TOL:
                    stagnant += 1
                else:
                    stagnant = 0
            if volume_ok and stagnant >= STAGNATION_WINDOW:
                converged = True
                break
            if settings.target_volume >= 1.0 and volume_ok:
                converged = True
                break
    except SolverError as err:   # keep the completed iterations
        err.partial_result = OptimizationResult(
            phi=state.phi, records=records, converged=False,
            trajectory=trajectory, bracket_ok=bracket_ok,
            expected_volumes=expected_volumes[:len(records)])
        raise
    return OptimizationResult(phi=state.phi, records=records,
                              converged=converged, trajectory=trajectory,
                              bracket_ok=bracket_ok,
                              expected_volumes=expected_volumes)
