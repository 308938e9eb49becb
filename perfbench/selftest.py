#!/usr/bin/env python3
"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root.  Runs every workload of ``BENCHMARK.json`` at
its smallest size (``--quick``), untraced and traced, and checks that the
last line is the result object with every declared metric and its unit,
that the traced run's count cross-checks pass, and that the benchmark exits
with an error and prints no result where the fractop sources are missing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300


def run(cwd, workload, trace):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_result(proc, declared):
    """Problems with one run's output; empty when it meets the format."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return ["last line is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int)
            and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        problems.append("attempted/failed are not counts")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"missing {sorted(set(declared) - set(metrics))}, "
                        f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r} != {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        if f"metric {name} " not in proc.stdout:
            problems.append(f"{name}: no human-readable line")
    return problems


def check_bare_directory():
    """The benchmark alone, without the package sources, must refuse."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = run(bare, "bend_opt", 0)
    shutil.rmtree(bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or '"metrics"' in last:
        return ["bare directory: benchmark did not refuse to run"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            problems = check_result(proc, declared[trace])
            if trace and "count cross-checks passed" not in proc.stdout:
                problems.append("count cross-checks did not pass")
            correct = ""
            if not problems:
                correct = json.loads(proc.stdout.strip().splitlines()[-1])
                correct = f" (correct={correct['correct']})"
            status = "ok" if not problems else "FAILED"
            print(f"{workload:16s} trace={trace}  {status}{correct}")
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)
    for problem in check_bare_directory():
        print(problem)
        failures += 1
    print("self-test passed" if not failures
          else f"self-test FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
