"""Benchmark entry point: measure one workload of toporna for a fixed time.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The benchmark starts ``worker.py`` once
per pass, one pass after another (one process, one thread and one client
in a closed loop), until ``--seconds`` have passed and at least
``MIN_PASSES`` passes have run.  Every pass of a run repeats the pass that
``--seed`` picks, each in a fresh process, and the end-to-end metrics are
medians over the passes.

A shared machine's speed can drift by a factor of two over seconds, much
the same for every kind of work, so raw times of one run can differ from
the next by more than any bound a regression is judged by.  Every pass
therefore also times a fixed reference slice of pure-Python work before
each request (``worker.reference_ms``), and all its times are scaled to a
machine on which that slice takes ``REFERENCE_MS``.  The report also
prints the raw median ``wall_s`` and the median scale.

With ``--trace 1`` the passes come in pairs on the same requests, one with
the layer spans of ``tracing.py`` and one without, alternating which goes
first; the per-layer metrics are medians over the traced passes and
``trace.overhead_s`` is the median over pairs of the traced minus the
untraced ``wall_s``.

A readable report goes to standard output; its last line is the JSON
result.  Progress and errors go to standard error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
#: A run must end within 180 s; no pass starts that could end after this.
TIME_LIMIT_S = 165.0
TAIL_BEYOND = 10
#: Times are reported at the speed of a machine that runs one reference slice in this time.
REFERENCE_MS = 2.0

END_TO_END = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_worker(workload: str, seed: int, traced: bool, timeout: float) -> dict | None:
    """One pass in a fresh process; ``None`` if it crashed or timed out."""
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=BENCH_DIR) as workdir:
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", workdir]
        if traced:
            cmd.append("--trace")
        try:
            # on timeout the worker is killed and waited for before this raises
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc = None
    if proc is None:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def tail_percentile(pass_size: int) -> float:
    """The highest percentile with TAIL_BEYOND of one pass's requests beyond it."""
    return 100.0 * (pass_size - TAIL_BEYOND) / pass_size


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between the closest ranks, as numpy's default."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def speed_scale(report: dict) -> float:
    """The factor that turns a pass's raw times into reference-speed times."""
    return REFERENCE_MS / statistics.fmean(report["reference_ms"])


def raw_wall_s(report: dict) -> float:
    return sum(r["ms"] for r in report["requests"]) / 1000.0


def wall_s(report: dict) -> float:
    return raw_wall_s(report) * speed_scale(report)


def scaled_layers(report: dict) -> dict[str, float]:
    """A traced pass's per-layer metrics, with times and rates at the reference speed."""
    scale = speed_scale(report)
    power = {"s": 1, "1/s": -1}
    return {
        name: value * scale ** power.get(tracing.METRICS[name], 0)
        for name, value in report["layers"].items()
    }


def paired_overhead(reports: list[dict]) -> float:
    """Median over pairs of the traced minus the untraced ``wall_s``.

    The two passes of a pair run back to back, so the machine's drift in
    speed cancels better than between medians of whole runs.
    """
    pairs: dict[int, dict[bool, float]] = {}
    for rep in reports:
        pairs.setdefault(rep["pair"], {})[rep["traced"]] = wall_s(rep)
    return statistics.median(p[True] - p[False] for p in pairs.values() if len(p) == 2)


def end_to_end(reports: list[dict], pass_size: int) -> dict[str, float]:
    """Medians over passes; latency percentiles over the pooled requests of all passes.

    Pooling keeps the tail at one fixed percentile whatever the number of
    passes, with at least TAIL_BEYOND requests beyond it.
    """
    latencies = [r["ms"] * speed_scale(rep) for rep in reports for r in rep["requests"]]
    return {
        "wall_s": statistics.median(wall_s(rep) for rep in reports),
        "latency_p50_ms": percentile(latencies, 50.0),
        "latency_tail_ms": percentile(latencies, tail_percentile(pass_size)),
        "setup_s": statistics.median(rep["setup_s"] * speed_scale(rep) for rep in reports),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reports),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, int]:
    """Run passes until the time is up; returns (reports, passes that crashed)."""
    reports: list[dict] = []
    crashed = 0
    started = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - started
        done = len(reports) + crashed
        if done >= (2 * MIN_TRACED_PAIRS if trace else MIN_PASSES) and elapsed >= seconds:
            break
        if elapsed + 2 * longest > TIME_LIMIT_S:
            print("stopping early to stay inside the time limit", file=sys.stderr)
            break
        order = [False, True] if done % 4 == 0 else [True, False]
        for traced in order if trace else [False]:
            t0 = time.perf_counter()
            report = run_worker(workload, seed, traced, TIME_LIMIT_S + 10 - (t0 - started))
            longest = max(longest, time.perf_counter() - t0)
            if report is None:
                crashed += 1
            else:
                report["pair"] = done // 2
                reports.append(report)
            print(f"pass {len(reports) + crashed}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    return reports, crashed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one workload of toporna.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "toporna" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no toporna sources (src/toporna)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    reports, crashed = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    plain = [r for r in reports if not r["traced"]]
    traced = [r for r in reports if r["traced"]]
    complete = {r["pair"] for r in traced} & {r["pair"] for r in plain}
    if not plain or (args.trace and not complete):
        print("error: no pass completed", file=sys.stderr)
        return 1
    pass_size = len(workloads.menu(args.workload))
    attempted = sum(len(r["requests"]) for r in reports) + crashed * pass_size
    failures = [(r["key"], r["error"]) for rep in reports for r in rep["requests"] if r["error"]]
    failed = len(failures) + crashed * pass_size
    for key, error in failures[:20]:
        print(f"FAILED {key}: {error}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced passes "
          f"of {pass_size} requests")
    if args.trace:
        rows = [scaled_layers(r) for r in traced]
        metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
        metrics["trace.overhead_s"] = paired_overhead(reports)
        units = tracing.METRICS
    else:
        metrics = end_to_end(plain, pass_size)
        units = END_TO_END
        print(f"latency_tail_ms is the p{tail_percentile(pass_size):.1f} latency, pooled over "
              f"{len(plain) * pass_size} requests: {TAIL_BEYOND} of every {pass_size} lie beyond it")
    print(f"times are at the speed of a {REFERENCE_MS} ms reference slice: raw wall_s "
          f"{statistics.median(map(raw_wall_s, plain)):.6f} s, times scaled by "
          f"{statistics.median(map(speed_scale, plain)):.4f} (medians over untraced passes)")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6f} {units[name]}")
    print(f"  {'failed_fraction':32s} {failed / attempted:16.6f} ({failed} of {attempted} requests)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
