"""Export bytes: the geometry document and OBJ mesh of every benchmark pool
matrix still hash to the digests recorded when the benchmark was introduced,
the mesh is built without a coincidence report, each exporter computes the
seven product signs once, and every mesh face points outward."""

import hashlib
import itertools
import json
import random
from pathlib import Path

import effpcm.export
import effpcm.geometry
from effpcm.export import geometry_document, obj_mesh, pcm_from_document
from effpcm.generators import generate_with_rng
from effpcm.geometry import PerturbTag, efficient_set, tetrahedron_for_cycle
from effpcm.pcm import CANONICAL_CYCLES, Permutation, apply_permutation, product_signs
from oracles import embed_exact, points_outward

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


def test_obj_mesh_builds_no_efficient_set(monkeypatch, running_example):
    calls = []
    original = effpcm.export.efficient_set

    def counting(pcm):
        calls.append(pcm)
        return original(pcm)

    monkeypatch.setattr(effpcm.export, "efficient_set", counting)
    obj_mesh(running_example)
    assert calls == []
    geometry_document(running_example)
    assert len(calls) == 1


def test_seven_signs_computed_once_per_call(monkeypatch, running_example):
    calls = []

    def counting(pcm):
        calls.append(pcm)
        return product_signs(pcm)

    for module in (effpcm.geometry, effpcm.export):
        monkeypatch.setattr(module, "product_signs", counting)
    for build in (efficient_set, geometry_document, obj_mesh):
        calls.clear()
        build(running_example)
        assert len(calls) == 1, build.__name__


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
