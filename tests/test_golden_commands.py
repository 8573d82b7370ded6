"""CLI output bytes: every command of the benchmark's golden table, replayed
in process on the pool corpus, still hashes to the digest recorded when the
benchmark was introduced.  This pins the ``member`` barycentric lines, the
``vertices`` rank lines and the exported files, not just the verdicts."""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from effpcm.cli import main

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def _digest(*parts) -> str:
    """sha256(part || NUL || ...), first 20 hex digits."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()[:20]


def _write_corpus(workdir: Path, items) -> None:
    """<id>.json, <id>.wx.json (exact weights) and <id>.wf.json (float weights)."""
    for item in items:
        doc = {"n": len(item["entries"]), "entries": item["entries"]}
        (workdir / f"{item['id']}.json").write_text(json.dumps(doc), encoding="utf-8")
        for suffix, key in (("wx", "w_exact"), ("wf", "w_float")):
            (workdir / f"{item['id']}.{suffix}.json").write_text(
                json.dumps({"w": item[key]}), encoding="utf-8")


def _outcome_digest(argv: list[str]) -> str:
    """sha256(exit code || stdout || written file), the sampler's wall clock removed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert err.getvalue() == "" or rc == 2, err.getvalue()
    stdout = out.getvalue()
    if argv[0] == "sample" and rc in (0, 1):
        report = json.loads(stdout)
        report.pop("elapsed")
        stdout = json.dumps(report, sort_keys=True)
    extra = Path(argv[3]).read_bytes() if argv[0] == "export" and rc == 0 else b""
    return _digest(str(rc), stdout, extra)


def test_every_command_matches_its_golden_digest(tmp_path, monkeypatch):
    pool = json.loads((DATA / "pool.json").read_text(encoding="utf-8"))
    golden = json.loads((DATA / "golden.json").read_text(encoding="utf-8"))["commands"]
    assert len(golden) == 741
    _write_corpus(tmp_path, pool["reference"] + pool["n4"] + pool["nbig"])
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EFFPCM_TOL", raising=False)  # digests use the default float band
    mismatched = [key for key, want in golden.items() if _outcome_digest(key.split()) != want]
    assert mismatched == []
