"""Central-difference verification of the adjoint sensitivity on the
elastic cantilever fixture.

Usage: python scripts/verify_adjoint.py [--formulation 1|2] [--delta 1e-4]
Prints the per-node error table and the summary statistics; exits 1 when a
finite-difference probe failed.
"""

import argparse
import sys

from fractop import verify
from fractop.config import build_problem, load_config


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", default="configs/cantilever2d_elastic.ini")
    parser.add_argument("--formulation", type=int, choices=(1, 2), default=1)
    parser.add_argument("--delta", type=float, default=1e-4)
    args = parser.parse_args()

    cfg = load_config(args.config)
    problem = build_problem(cfg)
    nodes = verify.interior_solid_nodes(problem)
    report = verify.compare_sensitivities(
        problem, nodes, cfg.steps, cfg.displacement_per_step, cfg.solver,
        formulation=args.formulation, delta_phi=args.delta)

    print(f"{'node':>6} {'analytic':>14} {'fd':>14} {'rel err':>10}")
    for i, node in enumerate(report.nodes):
        if report.invalid[i]:
            print(f"{node:>6} {report.analytic[i]:>14.6e} {'failed':>14}")
            continue
        print(f"{node:>6} {report.analytic[i]:>14.6e} "
              f"{report.fd[i]:>14.6e} {report.rel_error[i]:>10.2e}")
    failed = int(report.invalid.sum())
    print(f"\nprobes: {report.nodes.size}  failed: {failed}  "
          f"delta: {report.delta_phi:g}")
    print(f"mean relative error: {report.mean_rel_error:.3e}")
    print(f"max relative error:  {report.max_rel_error:.3e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
