"""On-disk formats: matrix/weights JSON, the geometry document, and OBJ meshes.

The matrix JSON document {"n": ..., "entries": [[str, ...], ...]} is the
single canonical representation consumed by every CLI command.  The geometry
document carries both exact rational vertex strings and their embedded float
coordinates, so re-parsing loses nothing.  The two exporters resolve ``geometry``
through ``_module`` when they run, so a process that only reads documents never
loads it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
from pathlib import Path

from .errors import BadNumeralError, NonFiniteWeightError, NonSquareError
from .pcm import DEFAULT_EQUALITY_BAND, Pcm, WeightVector, format_rational, parse_pcm, weight_vector

SCHEMA_VERSION = "1"


@functools.cache
def _module(name: str):
    """The package module an exporter or a command calls into, imported on its first
    call, so a process loads only what it runs; a later call reads this cache."""
    return importlib.import_module(f"{__package__}.{name}")


def matrix_document(pcm: Pcm) -> dict:
    return {"n": pcm.n, "entries": pcm.rows_as_strings()}


def pcm_from_document(doc) -> Pcm:
    if not isinstance(doc, dict) or "entries" not in doc:
        raise BadNumeralError("expected a JSON object with an 'entries' grid")
    pcm = parse_pcm(doc["entries"])
    if "n" in doc:
        n = doc["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise NonSquareError(f"declared n={n!r} is not an integer")
        if n != pcm.n:
            raise NonSquareError(f"declared n={n} but grid is {pcm.n}x{pcm.n}")
    return pcm


def load_matrix(path: str | Path) -> Pcm:
    return pcm_from_document(_load_json(path))


def weights_from_document(doc, float_band=DEFAULT_EQUALITY_BAND) -> WeightVector:
    if not isinstance(doc, dict) or "w" not in doc or not isinstance(doc["w"], list):
        raise BadNumeralError("expected a JSON object with a 'w' list")
    values = list(doc["w"])
    for k, cell in enumerate(values):
        # a JSON number is the float variant; weight_vector reads every other cell
        if isinstance(cell, (int, float)) and not isinstance(cell, bool):
            try:
                values[k] = float(cell)
            except OverflowError:
                raise NonFiniteWeightError(
                    f"a {cell.bit_length()}-bit integer is past the float range"
                ) from None
    return weight_vector(values, float_band)


def load_weights(path: str | Path, float_band=DEFAULT_EQUALITY_BAND) -> WeightVector:
    return weights_from_document(_load_json(path), float_band)


def _open(path: str | Path, mode: str = "rb"):
    """``open`` in binary or UTF-8 text mode; a path with a NUL byte is an ``OSError``."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except ValueError as exc:
        raise OSError(f"{exc}: {str(path)!r}") from None


def _load_json(path: str | Path):
    try:
        with _open(path) as file:  # bytes, decoded once; no Path object built per document
            text = file.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadNumeralError(f"{path} is not UTF-8 text ({exc.reason})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadNumeralError(f"{path} is not valid JSON ({exc.msg})") from exc
    except ValueError as exc:  # a number literal past the interpreter's digit limit
        raise BadNumeralError(f"{path} has a number too long to read") from exc
    except RecursionError as exc:
        raise BadNumeralError(f"{path} nests too deeply to parse") from exc


def _coincidences_dict(effset) -> dict:
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
    geometry = _module("geometry")
    effset = geometry.efficient_set(pcm)
    tetrahedra = []
    for tet in effset.tetrahedra:
        tetrahedra.append({
            "cycle": list(tet.cycle),
            "orientation": {
                "direction": tet.orientation.direction.value,
                "directed": list(tet.orientation.directed),
            },
            "path_trees": [[list(edge) for edge in edges] for edges in geometry._PATH_EDGES[tet.cycle]],
            "vertices_exact": tet.vertex_strings(),
            "vertices_embedded": [list(point) for point in tet.embedded],
            "rank": tet.degenerate_rank,
        })
    planes = []
    for (i, j), (n, d) in zip(itertools.combinations(range(1, 5), 2), pcm.upper):
        # The plane w_i = a_ij * w_j, a_ij = n/d, cuts the simplex in the triangle
        # of the corners with w_i = w_j = 0 and the point with w_i = n/(n + d),
        # w_j = d/(n + d); each is written as its embedding
        split = [n if k == i else d if k == j else 0 for k in range(1, 5)]
        corners = [list(geometry.SIMPLEX_CORNERS[k - 1]) for k in range(1, 5) if k not in (i, j)]
        planes.append({
            "pair": [i, j],
            "value": format_rational(n, d),
            "clip_polygon": [list(geometry._embedded(split, n + d))] + corners,
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "matrix": matrix_document(pcm),
        "classification": effset.classification.tag.value,
        "tetrahedra": tetrahedra,
        "coincidences": _coincidences_dict(effset),
        "planes": planes,
        "simplex_corners": [list(corner) for corner in geometry.SIMPLEX_CORNERS],
    }


def obj_mesh(pcm: Pcm) -> str:
    """Wavefront OBJ mesh of the efficient set's nondegenerate tetrahedra.

    Degenerate tetrahedra produce comment lines only.
    """
    geometry = _module("geometry")
    effset = geometry.efficient_set(pcm)
    lines = ["# effpcm efficient-set mesh", f"# classification: {effset.classification.tag.value}"]
    vertex_count = 0
    for tet in effset.tetrahedra:
        lines.append(f"# tetrahedron cycle={','.join(map(str, tet.cycle))} rank={tet.degenerate_rank}")
        if tet.degenerate_rank < 3:
            for point in dict.fromkeys(tet.embedded):  # each distinct point once, in order
                lines.append(f"# point {point[0]!r} {point[1]!r} {point[2]!r}")
            continue
        for point in tet.embedded:
            lines.append("v " + " ".join(repr(c) for c in point))
        for (a, b, c) in geometry._OUTWARD_FACES[tet.orientation.direction]:
            lines.append(f"f {vertex_count + a + 1} {vertex_count + b + 1} {vertex_count + c + 1}")
        vertex_count += 4
    return "\n".join(lines) + "\n"


def dump_json(doc: dict, path: str | Path) -> None:
    text = json.dumps(doc, indent=2) + "\n"  # before the file is opened, so an error leaves none
    with _open(path, "w") as file:
        file.write(text)
