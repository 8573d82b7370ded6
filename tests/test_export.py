"""Export bytes: the geometry document and OBJ mesh of every benchmark pool
matrix still hash to the digests recorded when the benchmark was introduced,
each exporter builds the efficient set once and both share one build of its
twelve vertices and their embeddings, the exporters build no vertex Fraction
or WeightVector, each clip polygon is the embedded plane polygon, the seven
product signs are computed once per matrix however many functions read
them, and every mesh face points outward."""

import argparse
import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import effpcm.cli
import effpcm.export
import effpcm.geometry
import effpcm.pcm
from effpcm.export import geometry_document, obj_mesh, pcm_from_document
from effpcm.generators import UPPER_PAIRS, generate_with_rng
from effpcm.geometry import (
    PerturbTag,
    canonical_orientations,
    canonical_rearrangement,
    classify,
    efficient_set,
    tetrahedron_for_cycle,
)
from effpcm.pcm import CANONICAL_CYCLES, Permutation, WeightVector, apply_permutation, pcm_from_upper
from oracles import clip_split_by_sums, embed_exact, plane_clip_polygon, points_outward

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def _export_digest(pcm) -> str:
    """sha256(document JSON, indent 2 || NUL || OBJ mesh || NUL), first 20 hex digits."""
    h = hashlib.sha256()
    for part in (json.dumps(geometry_document(pcm), indent=2), obj_mesh(pcm)):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:20]


def test_every_pool_matrix_matches_its_golden_digest():
    pool = json.loads((DATA / "pool.json").read_text(encoding="utf-8"))
    golden = json.loads((DATA / "golden.json").read_text(encoding="utf-8"))["export"]
    items = pool["reference"] + pool["n4"]
    assert len(items) == 78
    mismatched = [
        item["id"] for item in items
        if _export_digest(pcm_from_document({"n": 4, "entries": item["entries"]}))
        != golden[item["id"]]
    ]
    assert mismatched == []


def test_each_exporter_builds_the_efficient_set_once(monkeypatch, running_example):
    calls = []
    original = effpcm.geometry.efficient_set

    def counting(pcm):
        calls.append(pcm)
        return original(pcm)

    monkeypatch.setattr(effpcm.geometry, "efficient_set", counting)  # the exporters import it per call
    for export in (obj_mesh, geometry_document):
        calls.clear()
        export(running_example)
        assert calls == [running_example], export.__name__


def test_both_formats_build_the_tetrahedra_once(monkeypatch, running_example):
    calls = {"tree_integers": 0, "classify": 0, "_coincidence_report": 0, "_embedded": 0}
    for name in calls:
        original = getattr(effpcm.geometry, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(effpcm.geometry, name, counting)
    geometry_document(running_example)
    obj_mesh(running_example)
    # _embedded: the twelve vertices once, plus the document's six plane split
    # points, which the exporter embeds through the same module attribute
    assert calls == {"tree_integers": 12, "classify": 1, "_coincidence_report": 1, "_embedded": 12 + 6}


def test_the_exporters_build_no_vertex_records(monkeypatch, running_example):
    """Past the load, the document, the mesh and ``vertices`` read the integer
    points: no Fraction and no WeightVector is built."""
    built = {"Fraction": 0, "WeightVector": 0}
    new, init = Fraction.__new__, WeightVector.__init__

    def counting_new(cls, *args, **kwargs):
        built["Fraction"] += 1
        return new(cls, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        built["WeightVector"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(effpcm.cli, "load_matrix", lambda path: running_example)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(WeightVector, "__init__", counting_init)
    geometry_document(running_example)
    obj_mesh(running_example)
    text, code = effpcm.cli._cmd_vertices(argparse.Namespace(matrix="running.json"))
    assert code == 0 and text.count(" T") == 12
    assert built == {"Fraction": 0, "WeightVector": 0}


_ENTRIES = st.fractions(min_value=Fraction(1, 10**40), max_value=10**40)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_ENTRIES, st.integers(1, 10**400)), min_size=6, max_size=6))
def test_clip_polygons_are_the_embedded_plane_polygons(values):
    pcm = pcm_from_upper(4, dict(zip(UPPER_PAIRS, values)))
    planes = geometry_document(pcm)["planes"]
    expected = [[[float(x) for x in embed_exact(p)] for p in plane_clip_polygon(pair, Fraction(value))]
                for pair, value in zip(UPPER_PAIRS, values)]
    assert [plane["clip_polygon"] for plane in planes] == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_ENTRIES, st.integers(1, 10**400)), min_size=6, max_size=6))
def test_split_points_are_the_written_out_sums_bit_for_bit(values):
    """n/(n+d) and d/(n+d) are in lowest terms, so ``_embedded`` divides the same
    integer sums by n + d as the formula written out per coordinate."""
    pcm = pcm_from_upper(4, dict(zip(UPPER_PAIRS, values)))
    splits = [plane["clip_polygon"][0] for plane in geometry_document(pcm)["planes"]]
    expected = [clip_split_by_sums(pair, Fraction(value)) for pair, value in zip(UPPER_PAIRS, values)]
    assert [[x.hex() for x in split] for split in splits] == [[x.hex() for x in e] for e in expected]


def test_seven_signs_computed_once_per_matrix(monkeypatch, running_example):
    comparisons = []
    original = effpcm.pcm._sign

    def counting(lhs, rhs):
        comparisons.append((lhs, rhs))
        return original(lhs, rhs)

    monkeypatch.setattr(effpcm.pcm, "_sign", counting)
    efficient_set(running_example)
    geometry_document(running_example)
    obj_mesh(running_example)
    classify(running_example)
    canonical_orientations(running_example)
    for cycle in CANONICAL_CYCLES:
        tetrahedron_for_cycle(running_example, cycle)
    canonical_rearrangement(running_example)
    assert len(comparisons) == 7


def _inward_faces(pcm) -> list[str]:
    """The mesh's ``f`` lines that fail the cross/dot reference, checked on
    the exact embedded vertices; also any solid tetrahedron without exactly
    its four faces."""
    points = [
        embed_exact(v.components)
        for cycle in CANONICAL_CYCLES
        for tet in [tetrahedron_for_cycle(pcm, cycle)] if tet.degenerate_rank == 3
        for v in tet.vertices
    ]
    opposites: dict[int, list[int]] = {block: [] for block in range(len(points) // 4)}
    bad = []
    for line in obj_mesh(pcm).splitlines():
        if not line.startswith("f "):
            continue
        face = [int(k) - 1 for k in line.split()[1:]]
        block = face[0] // 4
        opposite = next(k for k in range(4 * block, 4 * block + 4) if k not in face)
        opposites[block].append(opposite % 4)
        if not points_outward(points, face, opposite):
            bad.append(line)
    return bad + [f"block {b}: {o}" for b, o in opposites.items() if sorted(o) != [0, 1, 2, 3]]


def test_faces_point_outward_on_relabelled_reference_matrices(
    running_example, double_triad_example, double_one_cycle_example,
    double_two_cycles_example, simple_example, consistent_example,
):
    for pcm in (running_example, double_triad_example, double_one_cycle_example,
                double_two_cycles_example, simple_example, consistent_example):
        for mapping in itertools.permutations((1, 2, 3, 4)):
            assert _inward_faces(apply_permutation(pcm, Permutation(mapping))) == []


def test_faces_point_outward_on_generated_matrices():
    rng = random.Random(101)
    tags = [tag.value for tag in PerturbTag]
    for k in range(300):
        assert _inward_faces(generate_with_rng(rng, tags[k % 6])) == []
