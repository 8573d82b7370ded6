"""Export bytes: the geometry document and OBJ mesh of every benchmark pool
matrix still hash to the digests recorded when the benchmark was introduced,
and the mesh is built without a coincidence report."""

import hashlib
import json
from pathlib import Path

import effpcm.export
from effpcm.export import geometry_document, obj_mesh, pcm_from_document

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
