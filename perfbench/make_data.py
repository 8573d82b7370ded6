"""Regenerate the frozen input pool and record the golden output digests.

    python3 perfbench/make_data.py pool     # data/pool.json (inputs)
    python3 perfbench/make_data.py golden   # data/golden.json (expected outputs)

Both files are committed.  The golden digests define correct output, so
record them again only when an output format changes on purpose, and say so
in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import effpcm.cli  # noqa: E402
import effpcm.export  # noqa: E402
from effpcm import format_rational, generate_pcm, pcm_from_upper  # noqa: E402
from effpcm.geometry import CANONICAL_CYCLES, classify, tetrahedron_for_cycle  # noqa: E402
from effpcm.pcm import parse_rational  # noqa: E402

import workloads  # noqa: E402
from workloads import CLASSES, digest  # noqa: E402

POOL_SEED = 20250427
PER_STRATUM = 6  # pool matrices per (class, half)
BIG_N = range(5, 13)
BIG_PER_N = 2
SAMPLE_SEEDS = [1, 2, 3]

# The six reference matrices of scripts/export_reference_geometry.py.
REFERENCE_BASE = {(1, 2): "1", (1, 3): "5", (1, 4): "7", (2, 3): "2", (2, 4): "8", (3, 4): "1/3"}
REFERENCE_VARIANTS = {
    "triple": {},
    "double-triad": {(1, 2): "5/2"},
    "double-one-cycle": {(2, 4): "14/5"},
    "double-two-cycles": {(2, 4): "14/5", (3, 4): "14/25"},
    "simple": {(1, 2): "5/2", (2, 4): "14/5"},
    "consistent": {(1, 2): "5/2", (2, 4): "14/5", (3, 4): "7/5"},
}


def _decimal(rng: random.Random) -> str:
    """A numeral in [0.1, 10) with exactly 15 fraction digits."""
    digits = rng.randrange(10**14, 10**16)
    return f"{digits // 10**15}.{digits % 10**15:015d}"


def _exact_weights(rng: random.Random, n: int) -> list[str]:
    raw = [Fraction(rng.randint(1, 9999)) for _ in range(n)]
    return [format_rational(c / sum(raw)) for c in raw]


def _item(rng, pcm, item_id, cls, half) -> dict:
    """A pool matrix with exact random weights and float weights inside a tetrahedron."""
    vertices = tetrahedron_for_cycle(pcm, rng.choice(CANONICAL_CYCLES)).vertices
    mix = [Fraction(rng.randint(1, 9)) for _ in vertices]
    inside = [sum(m * v.components[i] for m, v in zip(mix, vertices)) / sum(mix)
              for i in range(4)]
    return {"id": item_id, "class": cls, "half": half, "entries": pcm.rows_as_strings(),
            "w_exact": _exact_weights(rng, 4), "w_float": [float(c) for c in inside]}


def _decimal_matrix(rng, cls) -> tuple:
    """A matrix of class ``cls`` whose bit sizes come from 15-digit decimals.

    Triple matrices use decimal numerals for every upper entry.  The other
    classes need exact products of 1, so a Saaty-scale matrix of the class is
    rescaled by decimal weights (a_ij * d_i / d_j keeps every triad and cycle
    product, hence the class).
    """
    if cls == "triple":
        while True:
            text = {(i, j): _decimal(rng) for i in range(1, 5) for j in range(i + 1, 5)}
            pcm = pcm_from_upper(4, {pair: parse_rational(t) for pair, t in text.items()})
            if classify(pcm).tag.value == cls:
                return pcm, text
    base = generate_pcm(rng.randrange(2**31), cls)
    d = [parse_rational(_decimal(rng)) for _ in range(4)]
    upper = {(i, j): v * d[i - 1] / d[j - 1] for (i, j), v in base.upper_entries().items()}
    return pcm_from_upper(4, upper), {}


def build_pool() -> dict:
    rng = random.Random(POOL_SEED)
    pool = {"reference": [], "n4": [], "nbig": [], "sample_seeds": SAMPLE_SEEDS}
    for name, overrides in REFERENCE_VARIANTS.items():
        upper = {pair: parse_rational(v) for pair, v in {**REFERENCE_BASE, **overrides}.items()}
        pool["reference"].append(_item(rng, pcm_from_upper(4, upper), f"ref-{name}", name, "saaty"))
    for cls in CLASSES:
        for k in range(PER_STRATUM):
            saaty = generate_pcm(rng.randrange(2**31), cls)
            pool["n4"].append(_item(rng, saaty, f"n4-{cls}-s{k}", cls, "saaty"))
            pcm, text = _decimal_matrix(rng, cls)
            item = _item(rng, pcm, f"n4-{cls}-d{k}", cls, "decimal")
            for (i, j), numeral in text.items():
                item["entries"][i - 1][j - 1] = numeral
            pool["n4"].append(item)
    for n in BIG_N:
        for k in range(BIG_PER_N):
            upper = {}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    s = Fraction(rng.randint(1, 9))
                    upper[(i, j)] = s if rng.random() < 0.5 else 1 / s
            pool["nbig"].append({
                "id": f"n{n}-{k}", "class": None, "half": "saaty",
                "entries": pcm_from_upper(n, upper).rows_as_strings(),
                "w_exact": _exact_weights(rng, n),
                "w_float": [rng.uniform(0.05, 1.0) for _ in range(n)],
            })
    for item in pool["reference"] + pool["n4"]:
        assert classify(effpcm.export.pcm_from_document(item)).tag.value == item["class"]
    return pool


def record_golden(workdir: Path) -> dict:
    """Run every pool op once against the current library and digest its output."""
    pool = workloads.load_json("pool.json")
    matrices = pool["reference"] + pool["n4"]
    workloads.write_corpus(workdir, matrices + pool["nbig"])
    golden = {"export": {}, "commands": {}}
    for item in matrices:
        pcm = effpcm.export.load_matrix(workdir / f"{item['id']}.json")
        text = json.dumps(effpcm.export.geometry_document(pcm), indent=2)
        golden["export"][item["id"]] = digest(text, effpcm.export.obj_mesh(pcm))
    ops = [(op, False) for item in pool["n4"] + pool["nbig"]
           for op in workloads.matrix_commands(item)]
    cli_ops = {op.key: op for item in pool["reference"] for k in range(6)
               for op in workloads.cli_commands(item, k)}
    ops += [(op, True) for op in cli_ops.values()]
    ops += [(workloads.sample_command(cls, s), True) for cls in CLASSES for s in SAMPLE_SEEDS]
    os.chdir(workdir)
    for op, in_subprocess in ops:
        if in_subprocess:
            outcome = workloads.run_subprocess(op.argv, workdir)
        else:
            outcome = workloads.run_in_process(effpcm.cli, op.argv)
        if outcome.crashed:
            raise RuntimeError(f"{op.key}: {outcome.stderr}")
        golden["commands"][op.key] = workloads.outcome_digest(op, outcome)
    return golden


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("what", choices=["pool", "golden"])
    args = parser.parse_args()
    if args.what == "pool":
        result = build_pool()
    else:
        workdir = HERE.parent / ".bench_out" / "make-golden"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            result = record_golden(workdir)
        finally:
            os.chdir(HERE.parent)
            shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "data").mkdir(exist_ok=True)
    (HERE / "data" / f"{args.what}.json").write_text(json.dumps(result, indent=1) + "\n",
                                                     encoding="utf-8")


if __name__ == "__main__":
    main()
