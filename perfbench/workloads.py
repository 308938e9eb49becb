"""The four benchmark workloads, derived from the shipped configs.

A workload is one process with one caller that runs *units* back to back (a
closed loop).  A unit yields operations: an outer optimization iteration
(bend_opt), a load history (bend_fwd_80x32, ductile_strip) or one
finite-difference sensitivity check (cantilever_fd).  Every operation is
checked against the values stored in ``reference.json`` and against the
crack-field invariants; a failed check or a solver error marks the operation
failed instead of aborting the run.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fractop import config, export, filtering, optimizer, verify
from fractop import forward as fwd

from tracing import Patches

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUTPUT = HERE / "out"

# Seed 0 runs the scenarios exactly as shipped.  Other seeds scale the load
# increment by one of these factors (seed modulo their number).  They stay
# within 0.1 %: a 1 % change already moves the 80x32 bend from 179 to 214
# staggered passes, and input-driven work changes of that size would swamp
# the run-to-run spread the benchmark has to resolve.
LOAD_SCALES = (1.0, 1.0005, 0.9995, 1.001, 0.999)

# outer iterations of run_optimization that one bend_opt unit runs; the
# full 96-iteration run is too long to repeat.  Iteration 4 is the first
# whose forward history breaks criterion 6 (the clip in solve_crack_field
# pulls d below its previous value; ROADMAP item 1), so the prefix stops
# before it.  Raise it once that defect is fixed.
BEND_OPT_PREFIX = 3

# Errors the library raises for a failed numerical solve: SolverError (a
# RuntimeError) from the forward solver, FloatingPointError and
# RuntimeError on non-finite fields, ValueError on a non-finite velocity.
NUMERICAL_ERRORS = (RuntimeError, FloatingPointError, ValueError)

REL_TOL = 1e-4        # objective and reaction curve against the reference
CHI_TOL = 2e-3        # volume ratio, absolute: about one quadrature point
                      # of the 20x8 mesh
FD_GATE = 1e-2        # criterion 1: mean relative adjoint-vs-FD error
DRIFT_GATE = -1e-10   # criterion 6: least allowed d^n - d^(n-1)


@dataclass
class Op:
    """One timed operation and what its checks found."""

    wall_s: float
    steps: int = 0            # load steps committed
    histories: int = 1        # load histories the operation runs
    bisection_iterations: int = 0
    values: dict = field(default_factory=dict)     # compared to reference
    deviation: dict = field(default_factory=dict)  # measured, by quantity
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.errors)


def _rel_dev(values, ref) -> float:
    values = np.asarray(values, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if values.shape != ref.shape:
        return float("inf")
    return float(np.max(np.abs(values - ref)) / max(np.max(np.abs(ref)),
                                                    1e-300))


def check_trajectory(op: Op, traj):
    """Finite fields, 0 <= d <= 1 and criterion 6's irreversibility gate on
    one committed trajectory."""
    d = np.array([f.d for f in traj.fields])
    finite = (np.all(np.isfinite(d))
              and all(np.all(np.isfinite(f.u)) for f in traj.fields)
              and np.all(np.isfinite(traj.reaction)))
    if not finite:
        op.errors.append("non-finite field in trajectory")
        return
    if d.min() < 0.0 or d.max() > 1.0:
        op.errors.append(f"crack field outside [0, 1]: "
                         f"[{d.min():.3e}, {d.max():.3e}]")
    drift = float(np.diff(d, axis=0).min()) if len(d) > 1 else 0.0
    op.deviation["crack_drift"] = min(op.deviation.get("crack_drift", 0.0),
                                      drift)
    if drift < DRIFT_GATE:
        op.errors.append(f"crack drift {drift:.3e} below {DRIFT_GATE:g}")


class Workload:
    name = ""
    config_file = ""

    def __init__(self, root, seed: int, reference=None, quick=False):
        self.root = Path(root)
        self.seed = seed
        self.variant = seed % len(LOAD_SCALES)
        self.load_scale = LOAD_SCALES[self.variant]
        self.reference = reference
        self.quick = quick

    def load(self, counts, steps=None):
        cfg = config.load_config(self.root / "configs" / self.config_file)
        cfg = replace(cfg, counts=counts, steps=steps or cfg.steps,
                      displacement_per_step=(cfg.displacement_per_step
                                             * self.load_scale))
        return cfg, config.build_problem(cfg)

    def describe(self) -> dict:
        cfg = self.cfg
        return {"workload": self.name, "seed": self.seed,
                "variant": self.variant, "load_scale": self.load_scale,
                "mesh": "x".join(map(str, cfg.counts)), "steps": cfg.steps,
                "quick": self.quick}

    def setup(self):
        raise NotImplementedError

    def unit(self) -> list:
        raise NotImplementedError

    def first_op(self) -> Op:
        """The first operation of a unit, run alone."""
        return self.unit()[0]

    def reference_of(self, ops) -> dict:
        """Values of one full-size unit, in the form stored in
        ``reference.json``."""
        return ops[0].values


def _failed_op(start, err) -> Op:
    return Op(wall_s=time.perf_counter() - start,
              errors=[f"{type(err).__name__}: {err}"])


class _HistorySink:
    """Keeps every trajectory the program's own callers produce, so each
    committed history can be checked after the timed operation."""

    def __init__(self):
        self.trajectories = []
        self._patches = Patches()
        self._patches.replace_everywhere("fractop.forward",
                                         "run_load_history", self._wrap)

    def _wrap(self, func):
        def keep(*args, **kwargs):
            traj = func(*args, **kwargs)
            self.trajectories.append(traj)
            return traj
        return keep

    def take(self) -> list:
        out, self.trajectories = self.trajectories, []
        return out


class BendOpt(Workload):
    name = "bend_opt"
    config_file = "bend2d.ini"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sink = _HistorySink()

    def setup(self):
        self.cfg, self.problem = self.load((10, 4) if self.quick else (20, 8))
        prefix = 2 if self.quick else BEND_OPT_PREFIX
        self.settings = replace(config.optimization_settings(self.cfg),
                                max_outer_iterations=prefix)
        filtering.build_kernel(self.problem.mesh, self.settings.r_min)

    def unit(self):
        marks, records = [], []

        def on_iteration(rec, state):
            marks.append(time.perf_counter())
            records.append(rec)

        start = time.perf_counter()
        result = failure = None
        try:
            result = optimizer.run_optimization(
                self.problem, self.cfg.topo, self.settings, self.cfg.solver,
                callback=on_iteration)
        except NUMERICAL_ERRORS as err:
            failure = _failed_op(marks[-1] if marks else start, err)
        ops = [Op(wall_s=t, steps=self.cfg.steps,
                  bisection_iterations=rec.bisection_iterations,
                  values={"objective": rec.objective,
                          "volume_ratio": rec.volume_ratio})
               for t, rec in zip(np.diff([start] + marks), records)]
        if failure is not None:
            ops.append(failure)
        for op, traj in zip(ops, self.sink.take()):
            check_trajectory(op, traj)
        if result is not None and not result.bracket_ok:
            for op in ops:
                op.errors.append("multiplier bracket invariant broken")
        if self.reference is not None:
            self._compare(ops)
        return ops

    def first_op(self):
        prefix = self.settings.max_outer_iterations
        self.settings.max_outer_iterations = 1
        try:
            return self.unit()[0]
        finally:
            self.settings.max_outer_iterations = prefix

    def _compare(self, ops):
        ref = self.reference
        for i, op in enumerate(ops):
            if not op.values:
                continue
            if i >= len(ref["objective"]):
                op.errors.append(f"no reference for iteration {i + 1}")
                continue
            dj = _rel_dev(op.values["objective"], ref["objective"][i])
            dchi = abs(op.values["volume_ratio"] - ref["volume_ratio"][i])
            op.deviation.update(objective_rel=dj, volume_ratio_abs=dchi)
            if not dj <= REL_TOL:
                op.errors.append(f"objective off reference by {dj:.2e}")
            if not dchi <= CHI_TOL:
                op.errors.append(f"volume ratio off reference by {dchi:.2e}")

    def reference_of(self, ops):
        return {key: [op.values[key] for op in ops]
                for key in ("objective", "volume_ratio")}


class _LoadHistory(Workload):
    """One forward load history per operation on the fixed, fully solid
    topology, as ``fractop forward-only`` runs it."""

    counts = quick_counts = None
    steps = None

    def setup(self):
        if self.quick:
            self.cfg, self.problem = self.load(self.quick_counts)
        else:
            self.cfg, self.problem = self.load(self.counts, self.steps)

    def unit(self):
        start = time.perf_counter()
        try:
            traj = fwd.run_load_history(self.problem, self.cfg.steps,
                                        self.cfg.displacement_per_step,
                                        self.cfg.solver)
            exported = self.export(traj)
        except NUMERICAL_ERRORS as err:
            return [_failed_op(start, err)]
        op = Op(wall_s=time.perf_counter() - start, steps=traj.n_steps,
                values={"reaction": list(traj.reaction)})
        check_trajectory(op, traj)
        if exported is not None and not exported > 0:
            op.errors.append("export wrote no bytes")
        if self.reference is not None:
            dev = _rel_dev(traj.reaction, self.reference["reaction"])
            op.deviation["reaction_rel"] = dev
            if not dev <= REL_TOL:
                op.errors.append(f"reaction curve off reference by "
                                 f"{dev:.2e}")
        return [op]

    def export(self, traj):
        return None


class BendForward(_LoadHistory):
    name = "bend_fwd_80x32"
    config_file = "bend2d.ini"
    counts, quick_counts = (80, 32), (20, 8)


class DuctileStrip(_LoadHistory):
    name = "ductile_strip"
    config_file = "ductile_strip2d.ini"
    # at the shipped 6x2 and 20 steps the crack field stays 0; refined and
    # loaded to 32 steps the strip yields, cracks and saturates
    counts, quick_counts = (48, 16), (6, 2)
    steps = 32

    def export(self, traj):
        """Curves and VTK snapshots at the configured cadence; returns the
        bytes written."""
        outdir = OUTPUT / self.name
        outdir.mkdir(parents=True, exist_ok=True)
        paths = [outdir / "curves.csv"]
        export.write_curves(paths[0], traj)
        for n in export.snapshot_steps(traj.n_steps,
                                       self.cfg.snapshot_cadence):
            paths.append(outdir / f"step_{n:04d}.vtk")
            export.write_snapshot(paths[-1], self.problem.mesh,
                                  traj.fields[n], traj.qstates[n])
        return sum(p.stat().st_size for p in paths)


class CantileverFD(Workload):
    name = "cantilever_fd"
    config_file = "cantilever2d_elastic.ini"
    formulation = 1
    delta_phi = 1e-4

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sink = _HistorySink()

    def setup(self):
        self.cfg, self.problem = self.load((10, 5))
        self.all_nodes = verify.interior_solid_nodes(self.problem)
        if self.quick:
            self.nodes = self.all_nodes[:4]
        elif self.seed == 0:
            self.nodes = self.all_nodes
        else:
            # other seeds probe a seeded three-quarter subset
            pick = random.Random(self.seed).sample(
                list(self.all_nodes), 3 * self.all_nodes.size // 4)
            self.nodes = np.array(sorted(pick))

    def unit(self):
        start = time.perf_counter()
        try:
            report = verify.compare_sensitivities(
                self.problem, self.nodes, self.cfg.steps,
                self.cfg.displacement_per_step, self.cfg.solver,
                formulation=self.formulation, delta_phi=self.delta_phi)
        except NUMERICAL_ERRORS as err:
            self.sink.take()
            return [_failed_op(start, err)]
        wall = time.perf_counter() - start
        trajectories = self.sink.take()
        op = Op(wall_s=wall, steps=sum(t.n_steps for t in trajectories),
                histories=2 * self.nodes.size + 1,
                values={"nodes": [int(n) for n in report.nodes],
                        "analytic": [float(v) for v in report.analytic],
                        "fd": [float(v) for v in report.fd]})
        for traj in trajectories:
            check_trajectory(op, traj)
        op.deviation["fd_mean_rel_error"] = report.mean_rel_error
        if np.any(report.invalid):
            op.errors.append(f"{int(report.invalid.sum())} FD probes failed")
        if not report.mean_rel_error < FD_GATE:
            op.errors.append(f"FD mean relative error "
                             f"{report.mean_rel_error:.2e} not below "
                             f"{FD_GATE:g}")
        if self.reference is not None:
            self._compare(op, report)
        return [op]

    def _compare(self, op, report):
        ref = self.reference
        index = {n: i for i, n in enumerate(ref["nodes"])}
        if any(int(n) not in index for n in report.nodes):
            op.errors.append("probe node without a reference value")
            return
        rows = [index[int(n)] for n in report.nodes]
        for key, values in (("analytic", report.analytic),
                            ("fd", report.fd)):
            dev = _rel_dev(values, np.asarray(ref[key])[rows])
            op.deviation[f"{key}_rel"] = dev
            if not dev <= REL_TOL:
                op.errors.append(f"{key} sensitivity off reference by "
                                 f"{dev:.2e}")


WORKLOADS = {cls.name: cls for cls in (BendOpt, BendForward, DuctileStrip,
                                       CantileverFD)}


def load_reference(name: str, seed: int):
    table = json.loads(REFERENCE.read_text())[name]
    return table[str(seed % len(LOAD_SCALES))]
