"""Command-line entry points.

Subcommands:
  run                full topology optimization of a configured scenario
  forward-only       load-history solve on the fixed (fully solid) topology
  verify-sensitivity central-difference check of the adjoint sensitivity

Exit codes: 0 success, 1 solver or verification failure, 2 usage/config
errors.  When a forward-only solve fails, the steps committed before the
failure are still written.  The environment variable FRACTOP_OUTPUT_DIR
overrides the output directory of the configuration file.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import export, verify
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


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    settings = optimization_settings(cfg)
    outdir = _output_dir(cfg)
    result = run_optimization(problem, cfg.topo, settings, cfg.solver)
    export.write_history(outdir / "history.csv", result.records)
    if result.trajectory is not None:
        _write_trajectory(outdir, cfg, problem, result.trajectory,
                          prefix="final")
    log.info("optimization %s after %d iterations",
             "converged" if result.converged else "stopped",
             len(result.records))
    return 0


def cmd_forward_only(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    outdir = _output_dir(cfg)
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


def cmd_verify_sensitivity(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    outdir = _output_dir(cfg)
    nodes = verify.interior_solid_nodes(problem)
    if args.max_probes > 0 and nodes.size > args.max_probes:
        stride = int(np.ceil(nodes.size / args.max_probes))
        nodes = nodes[::stride]
    report = verify.compare_sensitivities(
        problem, nodes, cfg.steps, cfg.displacement_per_step, cfg.solver,
        formulation=args.formulation, delta_phi=args.delta)
    export.write_fd_report(outdir / "fd_report.csv", report)
    log.info("sensitivity check: mean rel. error %.3e over %d nodes "
             "(max %.3e)", report.mean_rel_error, report.nodes.size,
             report.max_rel_error)
    if report.invalid.any():
        # the mean covers the valid probes only
        log.warning("%d finite-difference probes failed",
                    int(report.invalid.sum()))
        return 1
    return 0 if report.mean_rel_error < args.tolerance else 1


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {"run": cmd_run, "forward-only": cmd_forward_only,
                "verify-sensitivity": cmd_verify_sensitivity}
    try:
        return handlers[args.command](args)
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
