"""On-disk formats: matrix/weights JSON, the geometry document, and OBJ meshes.

The matrix JSON document {"n": ..., "entries": [[str, ...], ...]} is the
single canonical representation consumed by every CLI command.  The geometry
document carries both exact rational vertex strings and their embedded float
coordinates, so re-parsing loses nothing.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import BadNumeralError, NonFiniteWeightError, NonSquareError
from .geometry import (
    PATH_TREES,
    SIMPLEX_CORNERS,
    Direction,
    EfficientSet,
    cutting_planes,
    efficient_set,
    embed,
    plane_clip_polygon,
)
from .pcm import Pcm, WeightVector, format_rational, parse_pcm, parse_rational, weight_vector

SCHEMA_VERSION = "1"


def matrix_document(pcm: Pcm) -> dict:
    return {"n": pcm.n, "entries": pcm.rows_as_strings()}


def pcm_from_document(doc) -> Pcm:
    if not isinstance(doc, dict) or "entries" not in doc:
        raise BadNumeralError("BadNumeral: expected a JSON object with an 'entries' grid")
    pcm = parse_pcm(doc["entries"])
    if "n" in doc:
        n = doc["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise NonSquareError(f"NonSquare: declared n={n!r} is not an integer")
        if n != pcm.n:
            raise NonSquareError(f"NonSquare: declared n={n} but grid is {pcm.n}x{pcm.n}")
    return pcm


def load_matrix(path: str | Path) -> Pcm:
    return pcm_from_document(_load_json(path))


def weights_from_document(doc) -> WeightVector:
    if not isinstance(doc, dict) or "w" not in doc or not isinstance(doc["w"], list):
        raise BadNumeralError("BadNumeral: expected a JSON object with a 'w' list")
    values = []
    for cell in doc["w"]:
        if isinstance(cell, str):
            values.append(parse_rational(cell))
        elif isinstance(cell, bool):
            raise BadNumeralError(f"BadNumeral: {cell!r} is not a weight")
        elif isinstance(cell, (int, float)):
            # JSON numbers are the float variant; only strings are exact
            try:
                values.append(float(cell))
            except OverflowError:
                raise NonFiniteWeightError(
                    f"NonFiniteWeight: a {cell.bit_length()}-bit integer is past the float range"
                ) from None
        else:
            raise BadNumeralError(f"BadNumeral: {cell!r} is not a weight")
    return weight_vector(values)


def load_weights(path: str | Path) -> WeightVector:
    return weights_from_document(_load_json(path))


def _load_json(path: str | Path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise BadNumeralError(f"BadNumeral: {path} is not UTF-8 text ({exc.reason})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadNumeralError(f"BadNumeral: {path} is not valid JSON ({exc.msg})") from exc
    except ValueError as exc:  # a number literal past the interpreter's digit limit
        raise BadNumeralError(f"BadNumeral: {path} has a number too long to read") from exc
    except RecursionError as exc:
        raise BadNumeralError(f"BadNumeral: {path} nests too deeply to parse") from exc


def _coincidences_dict(effset: EfficientSet) -> dict:
    report = effset.coincidences
    return {
        "shared_vertices": [
            {"cycle_a": list(ca), "vertex_a": ia, "cycle_b": list(cb), "vertex_b": ib}
            for (ca, ia, cb, ib) in report.shared_vertices
        ],
        "collinear_edge_pairs": [
            {"cycle_a": list(ca), "edge_a": list(ea), "cycle_b": list(cb), "edge_b": list(eb)}
            for ((ca, ea), (cb, eb)) in report.collinear_edge_pairs
        ],
        "coplanar_face_pairs": [
            {"cycle_a": list(ca), "face_a": list(fa), "cycle_b": list(cb), "face_b": list(fb)}
            for ((ca, fa), (cb, fb)) in report.coplanar_face_pairs
        ],
        "point_tetrahedra": [list(c) for c in report.point_tetrahedra],
    }


def geometry_document(pcm: Pcm) -> dict:
    """The full exportable geometry of a 4x4 matrix."""
    effset = efficient_set(pcm)
    tetrahedra = []
    for tet in effset.tetrahedra:
        tetrahedra.append({
            "cycle": list(tet.cycle),
            "orientation": {
                "direction": tet.orientation.direction.value,
                "directed": list(tet.orientation.directed),
            },
            "path_trees": [
                [list(edge) for edge in tree.sorted_edges()] for tree in PATH_TREES[tet.cycle]
            ],
            "vertices_exact": [v.as_strings() for v in tet.vertices],
            "vertices_embedded": [list(embed(v)) for v in tet.vertices],
            "rank": tet.degenerate_rank,
        })
    planes = []
    for plane in cutting_planes(pcm):
        polygon = plane_clip_polygon(plane)
        planes.append({
            "pair": list(plane.pair),
            "value": format_rational(plane.value),
            "clip_polygon": [list(embed(point)) for point in polygon],
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "matrix": matrix_document(pcm),
        "classification": effset.classification.tag.value,
        "tetrahedra": tetrahedra,
        "coincidences": _coincidences_dict(effset),
        "planes": planes,
        "simplex_corners": [list(corner) for corner in SIMPLEX_CORNERS],
    }


# Outward faces of a solid tetrahedron, the k-th opposite vertex k (0-based).
# Its region's slack rows S, each ordered by the vertex whose path omits that
# arc's edge, satisfy S [T_1..T_4] = diag(s_k(T_k)) > 0, so det[T_1..T_4] has
# the sign of det S = sign(perm) * (1 - p), p < 1 in the admissible direction.
# perm is odd forward and even backward for every canonical cycle.
_OUTWARD_FACES = {
    Direction.FORWARD: ((1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2)),
    Direction.BACKWARD: ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)),
}


def obj_mesh(pcm: Pcm) -> str:
    """Wavefront OBJ mesh of the efficient set's nondegenerate tetrahedra.

    Degenerate tetrahedra produce comment lines only.
    """
    effset = efficient_set(pcm)
    lines = ["# effpcm efficient-set mesh", f"# classification: {effset.classification.tag.value}"]
    vertex_count = 0
    for tet in effset.tetrahedra:
        lines.append(f"# tetrahedron cycle={','.join(map(str, tet.cycle))} rank={tet.degenerate_rank}")
        if tet.degenerate_rank < 3:
            seen = []
            for v in tet.vertices:
                point = embed(v)
                if point not in seen:
                    seen.append(point)
            for point in seen:
                lines.append(f"# point {point[0]!r} {point[1]!r} {point[2]!r}")
            continue
        for v in tet.vertices:
            lines.append("v " + " ".join(repr(c) for c in embed(v)))
        for (a, b, c) in _OUTWARD_FACES[tet.orientation.direction]:
            lines.append(f"f {vertex_count + a + 1} {vertex_count + b + 1} {vertex_count + c + 1}")
        vertex_count += 4
    return "\n".join(lines) + "\n"


def dump_json(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
