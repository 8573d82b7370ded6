"""Command-line interface.

Exit codes: 0 for success (and "efficient" verdicts), 1 for semantic
negatives (inefficient vector, sampler disagreement), 2 for input errors.
All commands are deterministic given their flags and seeds; only the
sampler's elapsed-seconds field depends on the wall clock.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .efficiency import bcc_digraph, strongly_connected
from .errors import InputError
from .export import (
    dump_json,
    geometry_document,
    load_matrix,
    load_weights,
    matrix_document,
    obj_mesh,
)
from .geometry import (
    CANONICAL_CYCLES,
    PerturbTag,
    barycentric,
    canonical_rearrangement,
    classify,
    contains_cycle_region,
    cycle_orientation,
    embed,
    tetrahedron_for_cycle,
    triad_rearrangement,
)
from .pcm import format_rational
from .sampling import run_equivalence_trials

CLASS_CHOICES = [tag.value for tag in PerturbTag]


def _cmd_validate(args) -> int:
    load_matrix(args.matrix)
    print("ok")
    return 0


def _format_pair_list(pairs) -> str:
    return ", ".join(f"{{{i},{j}}}" for (i, j) in sorted(pairs)) or "-"


def _cmd_check(args) -> int:
    pcm = load_matrix(args.matrix)
    w = load_weights(args.weights)
    digraph = bcc_digraph(pcm, w)
    efficient = strongly_connected(digraph)
    arcs = sorted(digraph.arcs)
    if args.json:
        print(json.dumps({
            "efficient": efficient,
            "arcs": [list(arc) for arc in arcs],
            "equality_pairs": [list(p) for p in sorted(digraph.equality_pairs)],
        }, indent=2))
    else:
        print("verdict: " + ("efficient" if efficient else "inefficient"))
        print("arcs: " + ", ".join(f"{a}->{b}" for (a, b) in arcs))
        print("equality pairs: " + _format_pair_list(digraph.equality_pairs))
    return 0 if efficient else 1


def _cmd_classify(args) -> int:
    pcm = load_matrix(args.matrix)
    cls = classify(pcm)
    print(f"classification: {cls.tag.value}")
    print(f"consistent triads: {cls.consistent_triad_count}")
    print(f"consistent 4-cycles: {cls.consistent_cycle_count}")
    return 0


def _cmd_rearrange(args) -> int:
    pcm = load_matrix(args.matrix)
    if args.mode == "cycles":
        perm, rearranged = canonical_rearrangement(pcm)
        case = None
    else:
        perm, rearranged, case = triad_rearrangement(pcm)
    print(json.dumps({
        "mode": args.mode,
        "permutation": list(perm.mapping),
        "case": case,
        "tie_break": "lexicographic-smallest",
        "matrix": matrix_document(rearranged),
    }, indent=2))
    return 0


def _cmd_vertices(args) -> int:
    pcm = load_matrix(args.matrix)
    for cycle in CANONICAL_CYCLES:
        tet = tetrahedron_for_cycle(pcm, cycle)
        cycle_text = ",".join(map(str, cycle))
        print(f"cycle ({cycle_text}) {tet.orientation.direction.value}, rank {tet.degenerate_rank}:")
        for k, vertex in enumerate(tet.vertices, start=1):
            point = embed(vertex)
            exact = " ".join(vertex.as_strings())
            print(f"  T{k}: {exact}  ->  ({point[0]!r}, {point[1]!r}, {point[2]!r})")
    return 0


def _cmd_member(args) -> int:
    pcm = load_matrix(args.matrix)
    w = load_weights(args.weights)
    inside_any = False
    for cycle in CANONICAL_CYCLES:
        orientation = cycle_orientation(pcm, cycle)
        inside = contains_cycle_region(pcm, orientation, w)
        cycle_text = ",".join(map(str, cycle))
        print(f"cycle ({cycle_text}) {orientation.direction.value}: "
              + ("inside" if inside else "outside"))
        if inside:
            inside_any = True
            coefficients = barycentric(tetrahedron_for_cycle(pcm, cycle), w.normalized())
            if coefficients is not None:
                print("  barycentric: " + " ".join(format_rational(c) for c in coefficients))
    print("efficient: " + ("yes" if inside_any else "no"))
    return 0 if inside_any else 1


def _cmd_export(args) -> int:
    pcm = load_matrix(args.matrix)
    out = Path(args.output)
    if args.format == "json":
        dump_json(geometry_document(pcm), out)
    else:
        out.write_text(obj_mesh(pcm), encoding="utf-8")
    print(f"wrote {out}")
    return 0


def _cmd_sample(args) -> int:
    report = run_equivalence_trials(args.seed, args.trials, args.cls)
    payload = json.dumps(report.to_json_dict(), indent=2)
    if args.output:
        Path(args.output).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(payload)
    return 1 if report.disagreements else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effpcm",
        description="Exact Pareto-efficiency analysis of pairwise comparison matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a matrix file")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check", help="decide efficiency of a weight vector")
    p.add_argument("matrix")
    p.add_argument("--weights", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="consistency-structure class of a 4x4 matrix")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("rearrange", help="canonical reindexing of alternatives")
    p.add_argument("matrix")
    p.add_argument("--mode", choices=["cycles", "triads"], default="cycles")
    p.set_defaults(func=_cmd_rearrange)

    p = sub.add_parser("vertices", help="tetrahedron vertices, exact and embedded")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_vertices)

    p = sub.add_parser("member", help="per-cycle region membership of a weight vector")
    p.add_argument("matrix")
    p.add_argument("--weights", required=True)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("export", help="write the efficient-set geometry to a file")
    p.add_argument("matrix")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", choices=["json", "obj"], default="json")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("sample", help="Monte Carlo digraph-vs-geometry agreement harness")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--class", dest="cls", choices=CLASS_CHOICES, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
