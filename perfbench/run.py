"""Benchmark entry point for effpcm.

    python3 perfbench/run.py --workload sampler|export|analyze|cli --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 5   # every metric, by name

Run from the repository root.  Each workload runs in a fresh worker
interpreter (perfbench/worker.py).  With ``--trace 0`` the last stdout line
is the end-to-end result; ``setup_s`` is the median over SETUP_SAMPLES
spawns of the worker.  With ``--trace 1`` it is the per-layer result of a
traced run.  A copy with provenance goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("sampler", "export", "analyze", "cli")
SETUP_SAMPLES = 11
TIME_LIMIT_S = 170


class WorkerFailed(RuntimeError):
    pass


def _spawn(args, setup_only: bool, deadline: float):
    """Start a worker; return (speed-scaled seconds from spawn to READY, process, watchdog)."""
    command = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    before = stats.speed_factor()
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    line = proc.stdout.readline().split()
    ready = time.perf_counter() - start
    if len(line) != 2 or line[0] != "READY":
        watchdog.cancel()
        proc.kill()
        proc.wait()
        raise WorkerFailed(f"{args.workload} worker did not finish its set-up")
    # Scaled like the op latencies: by the mean of the calibration factors
    # taken here before the spawn and by the worker right after its set-up.
    return ready * (before + float(line[1])) / 2, proc, watchdog


def _finish(proc, watchdog) -> str:
    out = proc.stdout.read()
    proc.wait()
    watchdog.cancel()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    return out


def run_workload(args) -> tuple[dict, dict]:
    """(result, provenance) for one workload, each worker in a fresh interpreter."""
    deadline = time.monotonic() + TIME_LIMIT_S
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready, proc, watchdog = _spawn(args, True, deadline)
            _finish(proc, watchdog)
            setup.append(ready)
    ready, proc, watchdog = _spawn(args, False, deadline)
    setup.append(ready)
    lines = _finish(proc, watchdog).strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    result = json.loads(lines[-1])
    info = result.pop("info")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": sorted(setup)[len(setup) // 2], "unit": "s"}
    provenance = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setup,
        **info,
    }
    return result, provenance


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _save(result: dict, provenance: dict) -> None:
    out = ROOT / ".bench_out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{provenance['workload']}-seed{provenance['seed']}-trace{provenance['trace']}.json"
    (out / name).write_text(json.dumps({"provenance": provenance, **result}, indent=2) + "\n",
                            encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "effpcm" / "__init__.py").is_file():
        print(f"error: no effpcm source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return _report(args)
        result, provenance = run_workload(args)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _save(result, provenance)
    print("provenance: " + json.dumps(provenance))
    print(json.dumps(result))
    return 0


def _report(args) -> int:
    """Every workload, untraced and traced: one line per metric with its unit."""
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            run_args = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
            result, provenance = run_workload(run_args)
            _save(result, provenance)
            correct &= result["correct"]
            print(f"# {workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in sorted(result["metrics"].items()):
                print(f"{workload:8s} {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
