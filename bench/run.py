"""gammakernel benchmark: one workload, one seed, one JSON line.

    python3 bench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  The load is a closed loop: one process, one op at a
time, BLAS pinned to one thread.  After set-up the workload repeats rounds
(its fixed set of checked ops) until ``--seconds`` have passed, always
finishing the round it is in.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced rounds and prints the per-layer metrics, read
from the spans of set-up and the traced rounds.  The run record (versions,
BLAS, input sizes, every failure) and, when traced, the spans are written
under ``.bench_out/``.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREADS = "1"
SETUP_REPEATS = 3
CLI_REPEATS = 5
CLI_WEIGHT = ["weight", "--lambda", "3,1", "--xi", "0.3"]


def _pin_threads() -> None:
    # Must run before NumPy loads; children inherit the environment.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "GK_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(SRC)


class Op:
    """Checks made inside one op; any failure marks the op failed."""

    def __init__(self, run: "Run"):
        self.run = run
        self.failures: list[dict] = []

    def holds(self, check: str, ok: bool, **detail) -> None:
        self.run.checks[check] += 1
        if not ok:
            self.failures.append({"check": check, **detail})

    def within(self, check: str, achieved: float, tol: float, **detail) -> None:
        self.holds(check, achieved <= tol, achieved=achieved, tol=tol, **detail)


class Run:
    """What a workload records while it runs: op latencies, checks,
    failures, work counts and input sizes."""

    def __init__(self, tracer, tiny: bool):
        self.tracer = tracer
        self.tiny = tiny
        self.op_times: list[tuple[str, float]] = []
        self.attempted = 0
        self.failures: list[dict] = []
        self.checks: Counter = Counter()
        self.counts: dict[str, list] = defaultdict(list)
        self.sizes: dict = {}

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    def call(self, fn, *args, **kwargs):
        return self.tracer.call(fn, *args, **kwargs)

    def count(self, key: str, value) -> None:
        if self.tracer.enabled:
            self.counts[key].append(value)

    def op(self, kind: str, fn, timed: bool = True):
        """Run one checked op; ``fn(op)`` makes the calls and the checks.
        An op that raises or fails a check counts as failed and is kept."""
        op_id = self.attempted
        self.attempted += 1
        op = Op(self)
        result = None
        start = time.perf_counter()
        try:
            with self.tracer.op(op_id, kind):
                result = fn(op)
        except Exception as e:  # recorded and reported, never dropped
            op.failures.append({
                "exception": type(e).__name__,
                "message": str(e)[:300],
                **{k: getattr(e, k) for k in ("achieved", "tol", "nodes") if hasattr(e, k)},
            })
        elapsed = time.perf_counter() - start
        if timed:
            self.op_times.append((kind, elapsed))
        if op.failures:
            self.failures.append({"op": op_id, "kind": kind, "round": self.tracer.round,
                                  "failures": op.failures})
            return None
        return result


# ---------------------------------------------------------------------------
# Subprocess measurements
# ---------------------------------------------------------------------------

def _time_setup(args) -> float:
    """Seconds from starting a fresh interpreter to the end of set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up subprocess failed with exit code {proc.returncode}")
    return elapsed


def _time_subprocess(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    return time.perf_counter() - start, done


def _cli_ops(run: Run, repeats: int) -> list[float]:
    """Cold starts of ``python -m gammakernel weight``, each checked against
    the same weight computed in this process."""
    import gammakernel as gk

    expected = gk.log_weight_partition(gk.Partition([3, 1]), gk.XiParams(gk.Params(0.5, 0.5), 0.3))
    times = []

    def cold(op):
        elapsed, done = _time_subprocess([sys.executable, "-m", "gammakernel", *CLI_WEIGHT])
        times.append(elapsed)
        op.holds("cli_exit_ok", done.returncode == 0, exit_code=done.returncode,
                 stderr=done.stderr[-300:])
        rows = [r for r in csv.reader(done.stdout.splitlines()) if r and not r[0].startswith("#")]
        got = float(rows[-1][2]) if len(rows) == 2 else float("nan")
        op.within("cli_log_weight", abs(got - expected), 0.0, got=got, expected=expected)

    for _ in range(repeats):
        run.op("cli_weight", cold, timed=False)
    return times


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten values beyond it: (value,
    percentile, count).  With ten values or fewer that is the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(run: Run, rounds: list[dict], setup_times: list[float]) -> tuple[dict, dict]:
    lat = [t for _, t in run.op_times]
    tail, pct, n = _tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (_mean(r["wall"] for r in rounds), "s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"op_tail_percentile": pct, "op_count": n, "rounds": len(rounds)}
    return metrics, notes


def _by_kind(op_times) -> dict:
    """Count and minimum, median and maximum latency (ms) of each op kind."""
    groups = defaultdict(list)
    for kind, t in op_times:
        groups[kind].append(1e3 * t)
    return {k: {"n": len(v), "min": min(v), "median": statistics.median(v), "max": max(v)}
            for k, v in sorted(groups.items())}


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _mean(values, default=0.0):
    values = list(values)
    return statistics.fmean(values) if values else default


class _Spans:
    """Span queries over set-up (round -1) and the traced rounds."""

    def __init__(self, spans: list[dict], rounds: list[dict]):
        from spans import self_times

        self.spans = spans
        self.self_times = self_times(spans)
        self.traced_rounds = [i for i, r in enumerate(rounds) if r["traced"]]

    def durations(self, name: str, kind: str = "") -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (s["kind"] or "").startswith(kind)]

    def call_ms(self, name: str, kind: str = "") -> float:
        return 1e3 * _median(self.durations(name, kind))

    def per_round(self, select) -> float:
        """Set-up total plus the mean per-round total over traced rounds."""
        by_round = defaultdict(float)
        for s, own in zip(self.spans, self.self_times):
            if select(s):
                by_round[s["round"]] += own
        return by_round.get(-1, 0.0) + _mean(by_round.get(r, 0.0) for r in self.traced_rounds)


LAYERS = ("lattice", "zmeasure", "kernels", "fredholm", "rn", "sampler")


def per_layer(run: Run, spans: list[dict], rounds: list[dict], cli_cold: list[float],
              cli_import: list[float]) -> dict:
    q = _Spans(spans, rounds)
    c = run.counts
    traced = [r["wall"] for r in rounds if r["traced"]]
    untraced = [r["wall"] for r in rounds if not r["traced"]]

    def us_per_sample(kind: str) -> float:
        n = run.sizes.get("samples_per_round", {}).get(kind)
        sampler = "sampler.sample_underline_then_involute" if kind == "involute" else "sampler.sample_window"
        return 1e6 * _median(q.durations(sampler, "sample_" + kind)) / n if n else 0.0

    m = {
        "kernels.ladder_s": (q.per_round(lambda s: s["name"] == "kernels.underline_prelimit_window"), "s"),
        "kernels.ladder_padding": (max(c["ladder_padding"], default=0), "count"),
        "kernels.ladder_residual": (max(c["ladder_residual"], default=0.0), "1"),
        "kernels.contour_limit_same_ms": (q.call_ms("kernels.underline_limit_contour", "limit_same"), "ms"),
        "kernels.contour_limit_mixed_ms": (q.call_ms("kernels.underline_limit_contour", "limit_mixed_difference"), "ms"),
        "kernels.contour_limit_mixed_sum_ms": (q.call_ms("kernels.underline_limit_contour", "limit_mixed_sum"), "ms"),
        "kernels.contour_limit_nodes": (_median(c["contour_limit_nodes"]), "count"),
        "kernels.contour_prelimit_ms_xi0.5": (q.call_ms("kernels.underline_prelimit_contour", "prelimit_xi0.5"), "ms"),
        "kernels.contour_prelimit_ms_xi0.9": (q.call_ms("kernels.underline_prelimit_contour", "prelimit_xi0.9"), "ms"),
        "kernels.contour_prelimit_nodes": (_median(c["contour_prelimit_nodes"]), "count"),
        "kernels.integrable_window_ms": (q.call_ms("kernels.underline_limit_window"), "ms"),
        "kernels.j_transform_ms": (q.call_ms("kernels.j_transform"), "ms"),
        "kernels.weighted_blocks_ms": (q.call_ms("kernels.weighted_blocks"), "ms"),
        "zmeasure.params_ms": (q.call_ms("zmeasure.Params"), "ms"),
        "zmeasure.enumerate_ms": (q.call_ms("zmeasure.enumerate_weights"), "ms"),
        "zmeasure.partitions": (_median(c["partitions"]), "count"),
        "zmeasure.oracle_maya_ms": (q.call_ms("zmeasure.correlation_oracle", "correlate_maya"), "ms"),
        "zmeasure.oracle_config_ms": (q.call_ms("zmeasure.correlation_oracle", "correlate_config"), "ms"),
        "rn.verify_transport_ms": (q.call_ms("rn.verify_transport"), "ms"),
        "rn.compose_ms": (q.call_ms("rn.rn_compose"), "ms"),
        "rn.exact_ms": (q.call_ms("rn.rn_exact"), "ms"),
        "rn.verify_limit_transport_ms": (q.call_ms("rn.verify_limit_transport"), "ms"),
        "rn.limit_terms": (_median(c["limit_terms"]), "count"),
        "rn.limit_residual": (max(c["limit_residual"], default=0.0), "1"),
        "fredholm.expectation_det_ms": (q.call_ms("fredholm.expectation_det"), "ms"),
        "fredholm.det_windows": (_median(c["det_windows"]), "count"),
        "lattice.apply_sigma_ms": (q.call_ms("lattice.apply_sigma_modified"), "ms"),
        "sampler.us_per_sample_2n20": (us_per_sample("2n20"), "us"),
        "sampler.us_per_sample_2n60": (us_per_sample("2n60"), "us"),
        "sampler.us_per_sample_involute": (us_per_sample("involute"), "us"),
        "sampler.estimators_ms": (1e3 * q.per_round(lambda s: s["name"].startswith("sampler.SampleBatch.")), "ms"),
        "sampler.max_clamp": (max(c["max_clamp"], default=0.0), "1"),
        "sampler.samples_per_s": (sum(c["samples_drawn"]) / sum(traced), "1/s"),
        "cli.cold_s": (_median(cli_cold), "s"),
        "cli.import_s": (_median(cli_import), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (q.per_round(lambda s, layer=layer: s["name"].split(".")[0] == layer), "s")
    m["bench.self_s"] = (q.per_round(lambda s: s["name"].startswith("op.")), "s")
    m["trace.spans"] = (len(spans), "count")
    m["trace.overhead_s"] = (_mean(traced) - _mean(untraced), "s")
    return m


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "gammakernel" / "__init__.py").is_file():
        print(f"bench: no gammakernel sources under {SRC}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(SRC))
    import gammakernel
    from spans import Tracer
    from workloads import WORKLOADS

    if Path(gammakernel.__file__).resolve().parent != SRC / "gammakernel":
        print(f"bench: imported gammakernel from {gammakernel.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        workload.setup(Run(Tracer(), args.tiny))
        print("ready", flush=True)
        return 0

    setup_times = [_time_setup(args) for _ in range(1 if args.tiny else SETUP_REPEATS)]
    tracer = Tracer(enabled=bool(args.trace))
    run = Run(tracer, args.tiny)
    state = workload.setup(run)

    # A run ends on a whole input cycle, after at least --seconds.
    cycle = state.get("cycle", 1)
    rounds = []
    rng = random.Random(f"{args.seed}/{workload.name}")
    start = time.perf_counter()
    while True:
        index = len(rounds)
        tracer.round = index
        tracer.enabled = bool(args.trace) and index % 2 == 1
        t0 = time.perf_counter()
        workload.round(run, state, rng)
        rounds.append({"traced": tracer.enabled, "wall": time.perf_counter() - t0})
        if (time.perf_counter() - start >= args.seconds and len(rounds) % cycle == 0
                and (not args.trace or len(rounds) >= 2)):
            break
    tracer.enabled = bool(args.trace)
    tracer.round = len(rounds)
    if hasattr(workload, "finish"):
        workload.finish(run, state)

    if args.trace:
        repeats = 1 if args.tiny else CLI_REPEATS
        cli_cold = _cli_ops(run, repeats)
        cli_import = [_time_subprocess([sys.executable, "-c", "import gammakernel"])[0]
                      for _ in range(repeats)]
        metrics = per_layer(run, tracer.spans, rounds, cli_cold, cli_import)
        notes = {"rounds": len(rounds)}
    else:
        metrics, notes = end_to_end(run, rounds, setup_times)

    failed = len(run.failures)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "environment": _environment(),
        "sizes": run.sizes,
        "rounds": rounds,
        "notes": notes,
        "attempted": run.attempted,
        "failed": failed,
        "fail_frac": failed / run.attempted,
        "checks": dict(run.checks),
        "op_ms_by_kind": _by_kind(run.op_times),
        "failures": run.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(f"{'notes':36s} {json.dumps(notes)}")
    print(f"{'fail_frac':36s} {failed}/{run.attempted}")
    for f in run.failures:
        print(f"FAILED {json.dumps(f, default=str)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
