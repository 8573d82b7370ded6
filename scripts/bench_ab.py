"""A/B benchmark of this checkout against an earlier commit, in alternating pairs.

    python scripts/bench_ab.py [--base REV] --workload W [--pairs N] [--seconds S] [--seed K] [--out PATH]
    python scripts/bench_ab.py [--base REV] --tier1 N [--out PATH]

REV defaults to HEAD, N to 10, S to 20 and K to 1.  Exports REV with
``git archive`` into a temporary directory, then runs each tree's own
``perfbench/run.py --trace 0`` once per pair, pair k on seed K + k, with the
base tree first in even pairs and the checkout first in odd ones.  Writes
BENCH_<W>.json at the repository root (or PATH): every run's end-to-end
metrics and, per metric, each side's median and quartiles, the pairs the
checkout won and lost, and a verdict against the bounds that BENCHMARK.json
fixes; that file is read, never written.  A change is
relative to the base's median, or absolute where that median is 0.

``--tier1 N`` instead times each tree's tier-1 suite (TIER1, with the tree's
``src`` first on PYTHONPATH) in N alternating pairs, into BENCH_tier1.json:
its one metric, ``tier1_s``, has no bound, and a run is correct when the
suite exits 0.

A metric is a breach when the checkout's median is worse than the base's by
more than its bound.  It is a gain when the checkout wins at least nine
tenths of the pairs (a tie counts for neither) and its median is better by
more than the base's interquartile range.  Exit 0 when every run is correct
and no metric is a breach, 1 otherwise (a failed run too), 2 on a bad
argument.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GAIN_SHARE = 0.9  # of the pairs the checkout must win for a gain
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
TIER1_SPEC = {"end_to_end": [{"name": "tier1_s", "unit": "s", "better": "lower", "bound": None}]}


class RunFailed(RuntimeError):
    pass


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")

    def at(fraction: float) -> float:
        position = fraction * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

    return at(0.25), at(0.5), at(0.75)


def summarize(runs: list[dict], spec: dict = SPEC) -> dict:
    """Per end-to-end metric of ``spec``: each side's quartiles, the checkout's change
    of median relative to the base's, the pairs it won and lost, breach and gain."""
    summary = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        base = [run["base"]["metrics"][name] for run in runs]
        head = [run["head"]["metrics"][name] for run in runs]
        (b1, b2, b3), (h1, h2, h3) = quartiles(base), quartiles(head)
        gains = [sign * (h - b) for b, h in zip(base, head)]
        won, lost = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
        change = (h2 - b2) / b2 if b2 else h2 - b2  # absolute over a base median of 0
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "base": {"q1": b1, "median": b2, "q3": b3},
            "head": {"q1": h1, "median": h2, "q3": h3},
            "change": change, "won": won, "lost": lost,
            "breach": metric["bound"] is not None and -sign * change > metric["bound"],
            "gain": won >= GAIN_SHARE * len(runs) and sign * (h2 - b2) > b3 - b1,
        }
    return summary


def verdict(runs: list[dict], summary: dict) -> tuple[int, list[str]]:
    """(exit code, one line per reason it is not 0)."""
    reasons = [f"{side} run on seed {run['seed']} is not correct"
               for run in runs for side in ("base", "head") if not run[side]["correct"]]
    reasons += [f"{name} is {abs(entry['change']):.1%} worse than the base, past its "
                f"bound of {entry['bound']:.0%}" for name, entry in summary.items() if entry["breach"]]
    return (1 if reasons else 0), reasons


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, timeout=120)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``: {"correct", "metrics": {name: value}}."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"perfbench in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def _tier1(tree: Path) -> dict:
    """One tier-1 run in ``tree``: {"correct", "metrics": {"tier1_s"}, "result": its last line}."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=1800)
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"correct": proc.returncode == 0, "metrics": {"tier1_s": seconds},
            "result": lines[-1] if lines else ""}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", default="HEAD", help="the commit to compare against (default HEAD)")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    what.add_argument("--tier1", type=int, metavar="N", help="time the tier-1 suite in N pairs")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs of runs (default 10)")
    parser.add_argument("--seconds", type=float, default=20.0, help="seconds per run (default 20)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    parser.add_argument("--out", type=Path, help="result file (default BENCH_<workload>.json)")
    return parser


def _parse(argv) -> argparse.Namespace:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    if args.tier1 is not None and args.tier1 < 1:
        parser.error(f"--tier1 must be >= 1, got {args.tier1}")
    if not 0 < args.seconds < float("inf"):
        parser.error(f"--seconds must be a positive number, got {args.seconds}")
    args.name = "tier1" if args.tier1 else args.workload
    args.out = args.out or ROOT / f"BENCH_{args.name}.json"
    sha = _git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}")
    if sha.returncode != 0:
        parser.error(f"--base {args.base!r} names no commit")
    args.base_sha = sha.stdout.decode().strip()
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    spec, pairs = (TIER1_SPEC, args.tier1) if args.tier1 else (SPEC, args.pairs)
    first = spec["end_to_end"][0]["name"]
    head = _git("rev-parse", "HEAD").stdout.decode().strip()
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as scratch:
        archive = _git("archive", "--format=tar", args.base_sha).stdout
        subprocess.run(["tar", "-x", "-C", scratch], input=archive, check=True, timeout=120)
        trees = {"base": Path(scratch), "head": ROOT}
        try:
            for k in range(pairs):
                seed, order = args.seed + k, ("base", "head") if k % 2 == 0 else ("head", "base")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = (_tier1(trees[side]) if args.tier1
                                 else _run(trees[side], args.workload, seed, args.seconds))
                runs.append(run)
                print(f"pair {k + 1}/{pairs} seed {seed}: {first} base "
                      f"{run['base']['metrics'][first]:.1f} head "
                      f"{run['head']['metrics'][first]:.1f}", file=sys.stderr)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    summary = summarize(runs, spec)
    code, reasons = verdict(runs, summary)
    document = {
        "workload": args.name, "seconds": None if args.tier1 else args.seconds, "pairs": pairs,
        "base": args.base_sha, "head": head + ("+uncommitted" if dirty else ""),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "correct": all(run[side]["correct"] for run in runs for side in ("base", "head")),
        "runs": runs, "summary": summary, "verdict": reasons or ["no metric past its bound"],
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    for name, entry in summary.items():
        print(f"{name:12s} base {entry['base']['median']:>12.6g}  head {entry['head']['median']:>12.6g}"
              f"  {entry['change']:+8.1%}  won {entry['won']}/{len(runs)}"
              f"{'  BREACH' if entry['breach'] else ''}{'  gain' if entry['gain'] else ''}")
    for reason in reasons:
        print(f"error: {reason}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
