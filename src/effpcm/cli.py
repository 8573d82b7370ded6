"""Command-line interface.

Exit codes: 0 for success (and "efficient" verdicts), 1 for semantic
negatives (inefficient vector, sampler disagreement), 2 for input errors.
A command returns its text and exit code and prints nothing: ``main``
writes the text once, after the work, inside the ``try`` that turns an input
or file error into one ``error:`` line, so an exit-2 run leaves stdout empty.
A line naming a command is parsed once, by that command's parser alone, and
the command imports the library modules it calls after its documents are read;
the argparse tree reads the rest (empty, option first, unknown command).
All commands are deterministic given their flags, seeds and ``EFFPCM_TOL`` (the
float band, which of the package only this module reads); only the sampler's
elapsed-seconds field depends on the wall clock.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from .errors import BadToleranceError, InputError, UsageError
from .export import (
    _module,
    _open,
    dump_json,
    geometry_document,
    load_matrix,
    load_weights,
    matrix_document,
    obj_mesh,
)
from .pcm import CANONICAL_CYCLES, DEFAULT_EQUALITY_BAND, format_rational


def float_equality_band() -> float:
    """The float band of ``check`` and ``member``: EFFPCM_TOL, a finite number >= 0,
    else the library default.  Both read it, and so check it, after the matrix
    document and before the weights document, for exact weights too."""
    text = os.environ.get("EFFPCM_TOL")
    try:
        band = DEFAULT_EQUALITY_BAND if text is None else float(text)
    except ValueError:
        band = math.nan  # unparsable: rejected below
    if not 0 <= band < math.inf:  # NaN fails both comparisons
        raise BadToleranceError(f"EFFPCM_TOL={text!r} is not a finite number >= 0")
    return band


def _cmd_validate(args) -> tuple[str, int]:
    load_matrix(args.matrix)
    return "ok", 0


def _cmd_check(args) -> tuple[str, int]:
    pcm = load_matrix(args.matrix)
    w = load_weights(args.weights, float_equality_band())
    efficiency = _module("efficiency")
    digraph = efficiency.bcc_digraph(pcm, w)
    efficient = efficiency.strongly_connected(digraph)
    if args.json:
        text = json.dumps({"efficient": efficient, "arcs": digraph.arcs,
                           "equality_pairs": digraph.equality_pairs}, indent=2)
    else:  # each list in its sorted (i, j) order, "-" when empty
        text = "verdict: " + ("efficient" if efficient else "inefficient")
        for label, form, pairs in (("arcs", "%d->%d", digraph.arcs),
                                   ("equality pairs", "{%d,%d}", digraph.equality_pairs)):
            text += f"\n{label}: " + (", ".join([form % pair for pair in pairs]) or "-")
    return text, 0 if efficient else 1


def _cmd_classify(args) -> tuple[str, int]:
    pcm = load_matrix(args.matrix)
    cls = _module("geometry").classify(pcm)
    return (f"classification: {cls.tag.value}\n"
            f"consistent triads: {cls.consistent_triad_count}\n"
            f"consistent 4-cycles: {cls.consistent_cycle_count}"), 0


def _cmd_rearrange(args) -> tuple[str, int]:
    pcm = load_matrix(args.matrix)
    geometry = _module("geometry")
    if args.mode == "cycles":
        perm, rearranged = geometry.canonical_rearrangement(pcm)
        case = None
    else:
        perm, rearranged, case = geometry.triad_rearrangement(pcm)
    return json.dumps({
        "mode": args.mode,
        "permutation": list(perm.mapping),
        "case": case,
        "tie_break": "lexicographic-smallest",
        "matrix": matrix_document(rearranged),
    }, indent=2), 0


def _cmd_vertices(args) -> tuple[str, int]:
    pcm = load_matrix(args.matrix)
    geometry = _module("geometry")
    lines = []
    for cycle in CANONICAL_CYCLES:
        tet = geometry.tetrahedron_for_cycle(pcm, cycle)
        cycle_text = ",".join(map(str, cycle))
        lines.append(f"cycle ({cycle_text}) {tet.orientation.direction.value}, rank {tet.degenerate_rank}:")
        for k, (texts, point) in enumerate(zip(tet.vertex_strings(), tet.embedded), start=1):
            exact = " ".join(texts)
            lines.append(f"  T{k}: {exact}  ->  ({point[0]!r}, {point[1]!r}, {point[2]!r})")
    return "\n".join(lines), 0


def _cmd_member(args) -> tuple[str, int]:
    pcm = load_matrix(args.matrix)
    w = load_weights(args.weights, float_equality_band())
    geometry = _module("geometry")
    orientations = geometry.canonical_orientations(pcm)
    regions = geometry._band_orientations(pcm, w)
    digraph = _module("efficiency").bcc_digraph(pcm, w)
    insides = [geometry.contains_cycle_region(digraph, region) for region in regions]
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
            coefficients = geometry.barycentric(geometry.tetrahedron_for_cycle(pcm, cycle), w)
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
    sampling = _module("sampling")
    sampling.trial_settings(args.trials, args.cls)
    float_equality_band()  # a malformed EFFPCM_TOL is an input error, though no trial reads it
    with _open(args.output, "w") if args.output else nullcontext() as out:
        report = sampling.run_equivalence_trials(args.seed, args.trials, args.cls)
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
    the parent's type).  The tree keeps its subparsers, by name, as ``commands``.
    """

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


_COMMANDS = {  # name: (handler, help line)
    "validate": (_cmd_validate, "validate a matrix file"),
    "check": (_cmd_check, "decide efficiency of a weight vector"),
    "classify": (_cmd_classify, "consistency-structure class of a 4x4 matrix"),
    "rearrange": (_cmd_rearrange, "canonical reindexing of alternatives"),
    "vertices": (_cmd_vertices, "tetrahedron vertices, exact and embedded"),
    "member": (_cmd_member, "per-cycle region membership of a weight vector"),
    "export": (_cmd_export, "write the efficient-set geometry to a file"),
    "sample": (_cmd_sample, "Monte Carlo digraph-vs-geometry agreement harness"),
}


def _add_arguments(p: _Parser, name: str) -> _Parser:
    """Gives ``p`` the arguments and handler of command ``name``: the tree's
    subparser and the command's own parser are built alike."""
    if name == "sample":
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--trials", type=int, required=True)
        tags = _module("geometry").PerturbTag
        p.add_argument("--class", dest="cls", choices=[tag.value for tag in tags], required=True)
        p.add_argument("-o", "--output")
    else:
        p.add_argument("matrix")
    if name in ("check", "member"):
        p.add_argument("--weights", required=True)
    if name == "check":
        p.add_argument("--json", action="store_true")
    if name == "rearrange":
        p.add_argument("--mode", choices=["cycles", "triads"], default="cycles")
    if name == "export":
        p.add_argument("-o", "--output", required=True)
        p.add_argument("--format", choices=["json", "obj"], default="json")
    p.set_defaults(func=_COMMANDS[name][0])
    return p


@functools.cache
def command_parser(name: str) -> _Parser:
    """Command ``name``'s parser alone, built once per process: it is the
    subparser of the tree, with the same prog, so the same usage and help."""
    return _add_arguments(_Parser(prog=f"effpcm {name}"), name)


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built once per process and only for a line that names
    no command (empty, option first, unknown command): ``parse_args`` returns a
    fresh namespace per call and ``error`` raises."""
    parser = _Parser(
        prog="effpcm",
        description="Exact Pareto-efficiency analysis of pairwise comparison matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=text), name)
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in _COMMANDS:  # the parse the subparsers action makes, alone
            args, extras = command_parser(argv[0]).parse_known_args(argv[1:])
            if extras:
                raise UsageError("effpcm: unrecognized arguments: " + " ".join(extras))
            args.command = argv[0]
        else:
            args = build_parser().parse_args(argv)
        text, code = args.func(args)
        print(text)
        return code
    except (InputError, OSError) as exc:
        print("error:", exc if isinstance(exc, InputError) else f"FileError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
