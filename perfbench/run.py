#!/usr/bin/env python3
"""fractop benchmark.

    python3 perfbench/run.py --workload bend_opt --seed 0 --seconds 20 --trace 0

Run from the repository root.  Runs one workload of ``BENCHMARK.json`` in a
closed loop for ``--seconds``, checks every operation, and prints one JSON
object as the last line of standard output: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run.
The lines before it record the environment, each operation, the deviation
from the stored reference and every metric by name with its unit.
``--quick`` runs the workload at its smallest size without the reference
comparison (see ``selftest.py``).
"""

import os

# BLAS threads are fixed before numpy is first imported: OpenBLAS reads
# these variables once, when it loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up is timed in fresh processes that run between the workload's units;
# setup_s is their median, and at least this many run.  A probe whose cold
# first operation still fits before the deadline also runs it, and
# first_op_s is the median over these and the workload process's first
# operation.
PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="smallest size, no reference comparison")
    parser.add_argument("--probe", choices=("setup", "cold"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(args):
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    reference = (None if args.quick
                 else workloads.load_reference(args.workload, args.seed))
    return cls(ROOT, args.seed, reference=reference, quick=args.quick)


def probe(args, cold):
    """Start a fresh interpreter that imports the package and sets the
    workload up, and with ``cold`` then runs one operation.  Returns the
    wall time from process start to ready, and the cold operation."""
    import workloads
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0",
           "--probe", "cold" if cold else "setup"]
    if args.quick:
        cmd.append("--quick")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"probe failed (exit {proc.returncode})")
    return elapsed, workloads.Op(**json.loads(out)) if cold else None


def run_interleaved(args, workload):
    """Units back to back until ``--seconds`` have passed, with a probe
    after a unit whenever probes so far took at most half as long as the
    units, then probes until PROBES set-ups are timed.  Warm, cold and
    set-up samples thus spread over the whole run, so a phase of the shared
    host running slower or faster weighs on all of them alike, and about
    two thirds of the run goes to warm operations.  Returns the workload's
    operations, the set-up times and the probes' cold operations."""
    ops, setup, cold_ops = [], [], []
    start = time.perf_counter()
    probing = 0.0
    while True:
        ops.extend(workload.unit())
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds:
            break
        if probing > (elapsed - probing) / 2:
            continue
        expected = ops[0].wall_s + (statistics.median(setup) if setup
                                    else 0.0)
        probe_start = time.perf_counter()
        ready_s, op = probe(args, cold=expected <= args.seconds - elapsed)
        probing += time.perf_counter() - probe_start
        setup.append(ready_s)
        if op is not None:
            cold_ops.append(op)
        if time.perf_counter() - start >= args.seconds:
            break
    while len(setup) < PROBES:
        setup.append(probe(args, cold=False)[0])
    return ops, setup, cold_ops


def run_loop(workload, seconds):
    """Units back to back until ``seconds`` have passed; a unit that
    starts before the deadline runs to its end."""
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.extend(workload.unit())
    return ops


def _blas_threads():
    """Thread count reported by each OpenBLAS that numpy and scipy load."""
    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("libscipy_openblas*")):
            try:
                get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
            except (OSError, AttributeError):
                continue
            get.restype = ctypes.c_int
            out[lib.name] = get()
    return out or f"unknown (OPENBLAS_NUM_THREADS={BLAS_THREADS})"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model()}


def _median_warm(ops):
    """Median wall time of the operations after the first, cold one; when
    a single operation outlasts the run, that operation."""
    warm = [op.wall_s for op in ops[1:]] or [ops[0].wall_s]
    return statistics.median(warm)


def end_to_end(ops, setup_samples, cold_ops):
    """``ops`` are the main process's timed operations, ``cold_ops`` the
    probes' first operations."""
    failed = sum(op.failed for op in ops + cold_ops)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "first_op_s": (statistics.median(
            op.wall_s for op in ops[:1] + cold_ops), "s"),
        "op_s": (_median_warm(ops), "s"),
        "load_steps_per_s": (sum(op.steps for op in ops)
                             / sum(op.wall_s for op in ops), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0, "MiB"),
        "ok_ratio": (1.0 - failed / len(ops + cold_ops), "ratio"),
    }


def report_ops(label, ops):
    for i, op in enumerate(ops, start=1):
        status = "FAILED " + "; ".join(op.errors) if op.failed else "ok"
        dev = " ".join(f"{k}={v:.3e}" for k, v in sorted(op.deviation.items()))
        print(f"op {label}{i:3d} {op.wall_s:10.4f} s  {status}  {dev}")
    worst = {}
    for op in ops:
        for key, value in op.deviation.items():
            better = min if key == "crack_drift" else max
            worst[key] = better(worst.get(key, value), value)
    print("deviation from reference (worst over operations): "
          + json.dumps(worst))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fractop" / "__init__.py").is_file() or \
            not (ROOT / "configs").is_dir():
        print(f"error: no fractop sources under {ROOT}; run the benchmark "
              f"from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if args.probe:
        workload = make_workload(args)
        workload.setup()
        print("ready", flush=True)
        if args.probe == "cold":
            print(json.dumps(dataclasses.asdict(workload.first_op())))
        return 0

    print("environment " + json.dumps(environment()))
    if args.trace:
        return traced_run(args)

    workload = make_workload(args)
    workload.setup()
    print("workload " + json.dumps(workload.describe()))
    ops, setup_samples, cold_ops = run_interleaved(args, workload)
    report_ops("", ops)
    report_ops("cold probe ", cold_ops)
    print(f"setup samples: {' '.join(f'{s:.4f}' for s in setup_samples)} s")
    metrics = end_to_end(ops, setup_samples, cold_ops)
    attempted = len(ops) + len(cold_ops)
    failed = sum(op.failed for op in ops + cold_ops)
    print(f"metric failed_ratio {failed / attempted} ratio")
    return emit(failed == 0, attempted, failed, metrics)


def traced_run(args) -> int:
    """Untraced operations for half the run, then one traced unit.  The
    per-layer numbers come from the traced unit; the difference between
    its operations and the untraced ones is the tracing overhead."""
    import tracing
    workload = make_workload(args)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    print("workload " + json.dumps(workload.describe()))
    untraced = run_loop(workload, args.seconds / 2.0)
    tracer.install()
    try:
        traced = workload.unit()
    finally:
        tracer.uninstall()
    report_ops("untraced ", untraced)
    report_ops("traced ", traced)

    metrics = tracer.layer_metrics()
    plain = _median_warm(untraced)
    with_trace = statistics.median(op.wall_s for op in traced)
    overhead = with_trace / plain - 1.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    print(f"tracing overhead: traced op median {with_trace:.4f} s against "
          f"untraced {plain:.4f} s ({100 * overhead:+.2f} %)")

    mismatches = tracing.cross_check(
        tracer, histories=sum(op.histories for op in traced),
        bisection_records=[op.bisection_iterations for op in traced])
    for problem in mismatches:
        print(f"count cross-check FAILED: {problem}")
    if not mismatches:
        print("count cross-checks passed")
    spans = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans)
    print(f"spans written to {spans.relative_to(ROOT)}")

    ops = untraced + traced
    failed = sum(op.failed for op in ops)
    return emit(failed == 0 and not mismatches, len(ops), failed, metrics)


def emit(correct, attempted, failed, metrics) -> int:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
