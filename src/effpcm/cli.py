"""Command-line interface.

Exit codes: 0 for success (and "efficient" verdicts), 1 for semantic
negatives (inefficient vector, sampler disagreement), 2 for input errors.
A command returns its text and exit code and prints nothing: ``main``
writes the text once, after the work, inside the ``try`` that turns an input
or file error into one ``error:`` line, so an exit-2 run leaves stdout empty.
A line naming a command is parsed once, by that command's parser alone; the
top-level parser reads the rest (empty, option first, unknown command).
All commands are deterministic given their flags and seeds; only the
sampler's elapsed-seconds field depends on the wall clock.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from .efficiency import bcc_digraph, strongly_connected
from .errors import InputError, UsageError
from .export import (
    _open,
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
    _band_orientations,
    barycentric,
    canonical_rearrangement,
    classify,
    contains_cycle_region,
    canonical_orientations,
    tetrahedron_for_cycle,
    triad_rearrangement,
)
from .pcm import float_equality_band, format_rational
from .sampling import run_equivalence_trials, trial_settings

CLASS_CHOICES = [tag.value for tag in PerturbTag]


def _cmd_validate(args) -> tuple[str, int]:
    load_matrix(args.matrix)
    return "ok", 0


def _format_pair_list(pairs) -> str:
    return ", ".join(f"{{{i},{j}}}" for (i, j) in sorted(pairs)) or "-"


def _cmd_check(args) -> tuple[str, int]:
    pcm = load_matrix(args.matrix)
    w = load_weights(args.weights)
    digraph = bcc_digraph(pcm, w)
    efficient = strongly_connected(digraph)
    arcs = sorted(digraph.arcs)
    if args.json:
        text = json.dumps({
            "efficient": efficient,
            "arcs": [list(arc) for arc in arcs],
            "equality_pairs": [list(p) for p in sorted(digraph.equality_pairs)],
        }, indent=2)
    else:
        text = "\n".join(["verdict: " + ("efficient" if efficient else "inefficient"),
                          "arcs: " + ", ".join(f"{a}->{b}" for (a, b) in arcs),
                          "equality pairs: " + _format_pair_list(digraph.equality_pairs)])
    return text, 0 if efficient else 1


def _cmd_classify(args) -> tuple[str, int]:
    pcm = load_matrix(args.matrix)
    cls = classify(pcm)
    return (f"classification: {cls.tag.value}\n"
            f"consistent triads: {cls.consistent_triad_count}\n"
            f"consistent 4-cycles: {cls.consistent_cycle_count}"), 0


def _cmd_rearrange(args) -> tuple[str, int]:
    pcm = load_matrix(args.matrix)
    if args.mode == "cycles":
        perm, rearranged = canonical_rearrangement(pcm)
        case = None
    else:
        perm, rearranged, case = triad_rearrangement(pcm)
    return json.dumps({
        "mode": args.mode,
        "permutation": list(perm.mapping),
        "case": case,
        "tie_break": "lexicographic-smallest",
        "matrix": matrix_document(rearranged),
    }, indent=2), 0


def _cmd_vertices(args) -> tuple[str, int]:
    pcm = load_matrix(args.matrix)
    lines = []
    for cycle in CANONICAL_CYCLES:
        tet = tetrahedron_for_cycle(pcm, cycle)
        cycle_text = ",".join(map(str, cycle))
        lines.append(f"cycle ({cycle_text}) {tet.orientation.direction.value}, rank {tet.degenerate_rank}:")
        for k, (texts, point) in enumerate(zip(tet.vertex_strings(), tet.embedded), start=1):
            exact = " ".join(texts)
            lines.append(f"  T{k}: {exact}  ->  ({point[0]!r}, {point[1]!r}, {point[2]!r})")
    return "\n".join(lines), 0


def _cmd_member(args) -> tuple[str, int]:
    pcm = load_matrix(args.matrix)
    w = load_weights(args.weights)
    orientations = canonical_orientations(pcm)
    regions = _band_orientations(pcm, w)
    digraph = bcc_digraph(pcm, w)
    insides = [contains_cycle_region(digraph, region) for region in regions]
    efficient = any(insides)
    lines = []
    for orientation, region, inside in zip(orientations, regions, insides):
        cycle = orientation.cycle
        cycle_text = ",".join(map(str, cycle))
        label = orientation.direction.value
        if region is not orientation:  # a float vector may hold the cycle either way
            label += ", within the band of consistent"
        lines.append(f"cycle ({cycle_text}) {label}: " + ("inside" if inside else "outside"))
        if inside:
            coefficients = barycentric(tetrahedron_for_cycle(pcm, cycle), w)
            if coefficients is not None:
                lines.append("  barycentric: " + " ".join(format_rational(c) for c in coefficients))
    lines.append("efficient: " + ("yes" if efficient else "no"))
    return "\n".join(lines), 0 if efficient else 1


def _cmd_export(args) -> tuple[str, int]:
    pcm = load_matrix(args.matrix)
    out = Path(args.output)
    if args.format == "json":
        dump_json(geometry_document(pcm), out)
    else:
        mesh = obj_mesh(pcm)  # before the file is opened, so an error leaves none
        with _open(out, "w") as file:
            file.write(mesh)
    return f"wrote {out}", 0


def _cmd_sample(args) -> tuple[str, int]:
    # input errors come before -o is opened, so they leave no file, and -o is
    # opened before the first trial, so an unwritable path wastes no trials
    trial_settings(args.trials, args.cls)
    float_equality_band()  # a malformed EFFPCM_TOL is an input error, though no trial reads it
    with _open(args.output, "w") if args.output else nullcontext() as out:
        report = run_equivalence_trials(args.seed, args.trials, args.cls)
        text = json.dumps(report.to_json_dict(), indent=2)
        if args.output:
            print(text, file=out)
            text = f"wrote {args.output}"
    return text, 1 if report.disagreements else 0


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line like every other input error.

    argparse's own ``error`` prints a usage block and exits; this one raises
    a ``UsageError``, so ``main`` prints one ``error:`` line and returns 2.
    Subparsers are built with the same class (``parser_class`` defaults to
    the parent's type).  ``commands`` maps each command's name to its parser.
    """

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built once per process: it depends only on the code,
    ``parse_args`` returns a fresh namespace per call and ``error`` raises.
    ``main`` parses a command's line with ``commands[name]`` alone, any other with the tree."""
    parser = _Parser(
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

    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in parser.commands:  # the parse the subparsers action makes, alone
            args, extras = parser.commands[argv[0]].parse_known_args(argv[1:])
            if extras:
                parser.error("unrecognized arguments: " + " ".join(extras))
            args.command = argv[0]
        else:
            args = parser.parse_args(argv)
        text, code = args.func(args)
        print(text)
        return code
    except (InputError, OSError) as exc:
        print("error:", exc if isinstance(exc, InputError) else f"FileError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
