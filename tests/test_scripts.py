"""Smoke tests: the experiment scripts run end to end and print what the
README says they show."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


def test_orientation_sweep_flips_through_a_point():
    out = _run("orientation_sweep.py")
    heads = re.findall(r"orientation=(\w+)\s+rank=(\d)", out)
    assert heads == [("forward", "3"), ("forward", "3"), ("consistent", "0"),
                     ("backward", "3"), ("backward", "3")]


def test_export_reference_geometry_writes_every_class(tmp_path):
    _run("export_reference_geometry.py", "-o", str(tmp_path))
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 12
    documents = sorted(tmp_path.glob("*.geometry.json"))
    assert len(documents) == 6
    for path in documents:
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["classification"] == path.name.removesuffix(".geometry.json")
        assert (tmp_path / f"{doc['classification']}.obj").is_file()
