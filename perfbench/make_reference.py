#!/usr/bin/env python3
"""Regenerate ``reference.json``: the values every workload is checked
against, for each load variant of ``workloads.LOAD_SCALES``.

    python3 perfbench/make_reference.py [workload ...]

Run from the repository root.  cantilever_fd stores every interior node, so
any seed's probe subset can be checked.  Regenerate only when a change to
the solver is meant to change results, and say so in that change.
"""

import sys

import run  # pins the BLAS threads before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))

import json  # noqa: E402

import workloads  # noqa: E402


def main(names):
    table = (json.loads(workloads.REFERENCE.read_text())
             if workloads.REFERENCE.exists() else {})
    for name in names or list(workloads.WORKLOADS):
        table[name] = {}
        for variant in range(len(workloads.LOAD_SCALES)):
            workload = workloads.WORKLOADS[name](run.ROOT, variant)
            workload.setup()
            if name == "cantilever_fd":
                workload.nodes = workload.all_nodes
            ops = workload.unit()
            for i, op in enumerate(ops, start=1):
                if not op.values:
                    raise SystemExit(f"{name} variant {variant} op {i}: "
                                     f"{'; '.join(op.errors)}")
                # invariant failures are the program's, not the reference's:
                # the values are stored and the failure is shown
                for error in op.errors:
                    print(f"{name} variant {variant} op {i}: {error}")
            table[name][str(variant)] = workload.reference_of(ops)
            print(f"{name} variant {variant}: "
                  f"{sum(op.wall_s for op in ops):.2f} s", flush=True)
    workloads.REFERENCE.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
