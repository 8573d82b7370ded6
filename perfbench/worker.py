"""One workload in a fresh interpreter: set up, print READY, then measure.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

run.py starts this process and times it from spawn to the READY line
(``setup_s``: interpreter start, ``import effpcm.cli``, corpus generated and
written, one warm-up op).  After READY, ``--trace 0`` runs rounds of the
workload's op list for S seconds of op time; ``--trace 1`` runs one round
untraced and one traced, so call counts repeat exactly for a seed.  The last
stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
os.environ.pop("EFFPCM_TOL", None)  # golden outputs use the default float band

_start = time.perf_counter()
import effpcm.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Cli  # noqa: E402

INTERPRETER_SAMPLES = 5
CALIBRATE_EVERY_S = 5e-3  # op time between calibration runs


def _loop(wl, seconds: float | None = None) -> dict:
    """Closed loop over rounds of wl.ops: one round, or rounds until ``seconds`` of op time.

    At least one full round runs, so every op has a latency.  Output checks
    and calibration runs happen between ops and are excluded from ``wall``.
    ``scaled`` keeps each op's speed-scaled latencies (see stats.CAL_REF_S):
    the ops between two calibration runs share the mean of their factors.
    """
    clock = time.perf_counter
    scaled: dict = {}
    pending: list = []
    factors = [stats.speed_factor()]
    failures = []
    count = out_bytes = 0
    aside = 0.0  # seconds spent checking and calibrating
    start = clock()
    out_of_time = False
    while not out_of_time:
        for op in wl.ops:
            t0 = clock()
            outcome = wl.run(op)
            t1 = clock()
            if not wl.check(op, outcome):
                failures.append(op)
            out_bytes += wl.out_bytes(outcome)
            count += 1
            pending.append((op.key, t1 - t0))
            if sum(latency for _, latency in pending) >= CALIBRATE_EVERY_S:
                _settle(pending, scaled, factors)
            t2 = clock()
            aside += t2 - t1
            out_of_time = (seconds is not None and count >= len(wl.ops)
                           and t2 - start - aside >= seconds)
            if out_of_time:
                break
        if seconds is None:
            break
    if pending:
        _settle(pending, scaled, factors)
    return {"scaled": scaled, "failures": failures, "count": count,
            "wall": (t2 - start) - aside, "out_bytes": out_bytes}


def _settle(pending: list, scaled: dict, factors: list) -> None:
    factors.append(stats.speed_factor())
    factor = (factors[-2] + factors[-1]) / 2
    for key, latency in pending:
        scaled.setdefault(key, []).append(latency * factor)
    pending.clear()


def _distinct(failures) -> list:
    """The failed ops, each once however many of its repetitions failed."""
    return list({op.key: op for op in failures}.values())


def _failure_info(failures) -> dict:
    keys: dict = {}
    for op in failures:
        keys[op.key] = keys.get(op.key, 0) + 1
    failed = _distinct(failures)
    return {"failed_malformed": sum(op.malformed for op in failed),
            "failed_well_formed": sum(not op.malformed for op in failed),
            "failed_runs": len(failures),
            "failed_ops": dict(sorted(keys.items())[:40])}


def timed_run(wl, seconds: float) -> dict:
    run = _loop(wl, seconds=seconds)
    # One latency per op: the median of its repetitions in the run.
    latencies = sorted(statistics.median(v) for v in run["scaled"].values())
    n = len(latencies)
    tail = stats.tail_percentile(n)
    # Each distinct op counts once in attempted, failed and ok_ratio, so they
    # do not depend on how many repetitions fit into the run.
    failed = _distinct(run["failures"])
    metrics = {
        "ops_per_s": (n / sum(latencies), "ops/s"),
        "op_p50_ms": (stats.percentile(latencies, 50.0) * 1e3, "ms"),
        "op_tail_ms": (stats.percentile(latencies, tail) * 1e3, "ms"),
        "ok_ratio": ((n - len(failed)) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"ops": run["count"], "distinct_ops": n, "rounds": run["count"] / n,
            "wall_s": run["wall"], "wall_ops_per_s": run["count"] / run["wall"],
            "tail_percentile": tail, "tail_samples_beyond": stats.beyond(n, tail),
            **_failure_info(run["failures"])}
    return _result(n, failed, metrics, info)


def _interpreter_ms() -> float:
    samples = []
    for _ in range(INTERPRETER_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        samples.append(time.perf_counter() - start)
    return sorted(samples)[len(samples) // 2] * 1e3


def traced_run(wl) -> dict:
    count = len(wl.ops)
    untraced = _loop(wl)
    if isinstance(wl, Cli):
        wl.traced = True
        traced = _loop(wl)
        summary = tracing.EMPTY_SUMMARY
        for child in wl.child_summaries:
            summary = tracing.merge(summary, child["summary"])
        import_s = sum(c["import_s"] for c in wl.child_summaries) / len(wl.child_summaries)
    else:
        recorder = tracing.SpanRecorder()
        undo = tracing.install(recorder)
        try:
            traced = _loop(wl)
        finally:
            tracing.uninstall(undo)
        summary = tracing.summarize(recorder)
        import_s = IMPORT_S
    metrics = tracing.layer_metrics(summary, count)
    metrics["export.bytes_out"] = (traced["out_bytes"] / count, "bytes")
    metrics["cli.import_ms"] = (import_s * 1e3, "ms")
    metrics["cli.interpreter_ms"] = (_interpreter_ms(), "ms")
    metrics["trace.overhead_ratio"] = (1.0 - untraced["wall"] / traced["wall"], "ratio")
    failures = untraced["failures"] + traced["failures"]
    info = {"ops": count, "untraced_ops_per_s": count / untraced["wall"],
            "traced_ops_per_s": count / traced["wall"], **_failure_info(failures)}
    return _result(count, _distinct(failures), metrics, info)


def _result(attempted: int, failures, metrics: dict, info: dict) -> dict:
    return {
        # A malformed document that the CLI mishandles counts as a failed op;
        # only a wrong answer to a well-formed input makes the run incorrect.
        "correct": not any(not op.malformed for op in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "info": info,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if Path(effpcm.cli.__file__).resolve().parent != SRC / "effpcm":
        print(f"error: effpcm imported from {effpcm.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_out" / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.run(wl.warmup)
        # The speed factor lets run.py scale this process's set-up time.
        print(f"READY {stats.speed_factor()}", flush=True)
        if args.setup_only:
            return 0
        result = traced_run(wl) if args.trace else timed_run(wl, args.seconds)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
