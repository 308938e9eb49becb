"""Command-line entry points.

Subcommands:
  run                full topology optimization of a configured scenario
  forward-only       load-history solve on the fixed (fully solid) topology
  verify-sensitivity central-difference check of the adjoint sensitivity

After the optimization, run writes its history, solves the load history
of the original (phi = 1) and the optimized layout, exports the optimized
one (curves and final snapshots) and logs the volume ratio, the first and
final objective, and each layout's fracture-onset step and peak |reaction|.

Exit codes: 0 success, 1 solver or verification failure, 2 usage/config
errors.  A failed command keeps what it has: forward-only writes the
committed steps, run the history of its completed iterations and their last
load history (and no summary).  The environment variable FRACTOP_OUTPUT_DIR
overrides the output directory of the configuration file.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import export, levelset, verify
from .config import ConfigError, build_problem, load_config, \
    optimization_settings
from .forward import SolverError, run_load_history
from .optimizer import run_optimization

log = logging.getLogger("fractop")


def _positive(text: str) -> float:
    """argparse type of a finite positive number."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite "
                                         f"positive number")
    return value


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractop",
        description="Level-set topology optimization for fracture resistance")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full optimization loop")
    p_run.add_argument("config")

    p_fwd = sub.add_parser("forward-only",
                           help="load history on the fixed topology")
    p_fwd.add_argument("config")

    p_ver = sub.add_parser("verify-sensitivity",
                           help="finite-difference sensitivity check")
    p_ver.add_argument("config")
    p_ver.add_argument("--formulation", type=int, choices=(1, 2), default=1)
    p_ver.add_argument("--delta", type=_positive, default=1e-4)
    p_ver.add_argument("--max-probes", type=int, default=64)
    p_ver.add_argument("--tolerance", type=_positive, default=1e-2,
                       help="mean relative error pass threshold")
    return parser


def _output_dir(cfg) -> Path:
    out = os.environ.get("FRACTOP_OUTPUT_DIR", cfg.output_dir)
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_trajectory(outdir: Path, cfg, problem, trajectory,
                      prefix: str = "step"):
    export.write_curves(outdir / "curves.csv", trajectory)
    for n in export.snapshot_steps(trajectory.n_steps, cfg.snapshot_cadence):
        export.write_snapshot(outdir / f"{prefix}_{n:04d}.vtk", problem.mesh,
                              trajectory.fields[n], trajectory.qstates[n])


def cmd_run(cfg, problem, outdir: Path) -> int:
    settings = optimization_settings(cfg)
    history = outdir / "history.csv"
    try:
        result = run_optimization(problem, cfg.topo, settings, cfg.solver)
    except SolverError as err:
        partial = err.partial_result
        export.write_history(history, partial.records)
        if partial.trajectory is not None:
            _write_trajectory(outdir, cfg, problem, partial.trajectory,
                              prefix="final")
        raise
    export.write_history(history, result.records)
    log.info("optimization %s after %d iterations",
             "converged" if result.converged else "stopped",
             len(result.records))
    original, optimized = (
        run_load_history(problem, cfg.steps, cfg.displacement_per_step,
                         cfg.solver, phi=phi) for phi in (None, result.phi))
    # the curves and snapshots show the returned layout, result.phi
    _write_trajectory(outdir, cfg, problem, optimized, prefix="final")
    log.info("volume ratio %.4f (target %g); objective %.4e -> %.4e",
             levelset.volume_ratio(problem.mesh, result.phi),
             settings.target_volume, result.records[0].objective,
             result.records[-1].objective)
    log.info("fracture onset step %s -> %s; peak |reaction| %.4e -> %.4e",
             original.onset_step, optimized.onset_step,
             np.abs(original.reaction).max(), np.abs(optimized.reaction).max())
    return 0


def cmd_forward_only(cfg, problem, outdir: Path) -> int:
    try:
        trajectory = run_load_history(problem, cfg.steps,
                                      cfg.displacement_per_step, cfg.solver)
    except SolverError as err:
        # keep the committed steps: curves and the last committed snapshot
        partial = err.partial_trajectory
        if partial is not None and partial.n_steps >= 1:
            _write_trajectory(outdir, cfg, problem, partial)
            log.info("wrote the %d committed steps before the failure",
                     partial.n_steps)
        raise
    _write_trajectory(outdir, cfg, problem, trajectory)
    return 0


def cmd_verify_sensitivity(cfg, problem, outdir: Path, formulation,
                           delta, max_probes, tolerance) -> int:
    nodes = verify.interior_solid_nodes(problem)
    if max_probes > 0 and nodes.size > max_probes:
        stride = int(np.ceil(nodes.size / max_probes))
        nodes = nodes[::stride]
    report = verify.compare_sensitivities(
        problem, nodes, cfg.steps, cfg.displacement_per_step, cfg.solver,
        formulation=formulation, delta_phi=delta)
    export.write_fd_report(outdir / "fd_report.csv", report)
    log.info("sensitivity check: mean rel. error %.3e over %d nodes "
             "(max %.3e)", report.mean_rel_error, report.nodes.size,
             report.max_rel_error)
    if report.invalid.any():
        # the mean covers the valid probes only
        log.warning("%d finite-difference probes failed",
                    int(report.invalid.sum()))
        return 1
    return 0 if report.mean_rel_error < tolerance else 1


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {"run": cmd_run, "forward-only": cmd_forward_only,
                "verify-sensitivity": cmd_verify_sensitivity}
    # each handler takes the command's own options by name
    options = {key: value for key, value in vars(args).items()
               if key not in ("command", "config")}
    try:
        cfg = load_config(args.config)
        problem = build_problem(cfg)
        return handlers[args.command](cfg, problem, _output_dir(cfg),
                                      **options)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
