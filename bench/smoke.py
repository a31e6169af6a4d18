"""Smoke test of the benchmark: every workload at tiny sizes, in both modes.

    python3 bench/smoke.py

Each run must exit 0, fail no op, print every metric BENCHMARK.json names
with its unit, and make every check its workload defines.  A copy of the
benchmark without the library must exit non-zero without printing a result.
Takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7

CHECKS = {
    "ladder": {"ladder_residual", "xi_gap_monotone"},
    "contour": {"limit_vs_integrable", "prelimit_vs_window"},
    "sample": {"sample_count", "seeded_rerun_identical", "estimator_range", "diagonal_3se"},
    "transport": {"partition_count", "tail_mass_range", "ladder_residual", "oracle_vs_minor",
                  "transport_passed", "rn_closed_vs_exact", "rn_cocycle",
                  "limit_transport_passed"},
}
TRACED_CHECKS = {"cli_exit_ok", "cli_log_weight"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(CHECKS):
        problems.append("BENCHMARK.json names other workloads than the benchmark runs")
    for workload in CHECKS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = _run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(wanted))} differ "
                                f"or units differ")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']}/{result['attempted']} ops failed")
            record = json.loads(
                (ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
            missing = CHECKS[workload] | (TRACED_CHECKS if trace else set())
            missing -= {k for k, n in record["checks"].items() if n > 0}
            if missing:
                problems.append(f"{label}: checks never ran: {sorted(missing)}")
            print(f"ok  {label}: {result['attempted']} ops, checks {record['checks']}")

    # Without the library next to it the benchmark must refuse to run.
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _run(bare, "ladder", 0)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("benchmark ran without the library")
    else:
        print(f"ok  no library: exit {done.returncode}")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
