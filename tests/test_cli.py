"""End-to-end CLI behavior: commands, exit codes, file formats."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import effpcm
from effpcm.cli import main
from effpcm.geometry import efficient_set
from effpcm.pcm import parse_pcm
from conftest import RUNNING_ROWS
from oracles import parse_exact_vertices


def write_matrix(path, rows, n=None):
    doc = {"n": n if n is not None else len(rows), "entries": rows}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_weights(path, values):
    path.write_text(json.dumps({"w": values}), encoding="utf-8")
    return str(path)


@pytest.fixture
def matrix_file(tmp_path):
    return write_matrix(tmp_path / "matrix.json", RUNNING_ROWS)


class TestValidate:
    def test_valid(self, matrix_file, capsys):
        assert main(["validate", matrix_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_reciprocity_violation(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "bad.json", [["1", "2"], ["1/3", "1"]])
        assert main(["validate", path]) == 2
        assert "ReciprocityViolation (2,1)" in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "BadNumeral" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2


class TestCheck:
    def test_inefficient_uniform(self, matrix_file, tmp_path, capsys):
        wfile = write_weights(tmp_path / "w.json", ["1/4", "1/4", "1/4", "1/4"])
        assert main(["check", matrix_file, "--weights", wfile, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["efficient"] is False
        assert sorted(map(tuple, payload["arcs"])) == [
            (1, 2), (2, 1), (3, 1), (3, 2), (3, 4), (4, 1), (4, 2)]
        assert payload["equality_pairs"] == [[1, 2]]

    def test_efficient_vertex(self, matrix_file, tmp_path, capsys):
        wfile = write_weights(tmp_path / "w.json", ["7/20", "2/5", "1/5", "1/20"])
        assert main(["check", matrix_file, "--weights", wfile]) == 0
        assert "efficient" in capsys.readouterr().out

    def test_dimension_mismatch(self, matrix_file, tmp_path, capsys):
        wfile = write_weights(tmp_path / "w.json", ["1", "1", "1"])
        assert main(["check", matrix_file, "--weights", wfile]) == 2

    def test_float_weights_accepted(self, matrix_file, tmp_path):
        wfile = write_weights(tmp_path / "w.json", [0.25, 0.25, 0.25, 0.25])
        assert main(["check", matrix_file, "--weights", wfile]) == 1


class TestClassify:
    def test_running(self, matrix_file, capsys):
        assert main(["classify", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "classification: triple" in out
        assert "consistent triads: 0" in out
        assert "consistent 4-cycles: 0" in out


class TestRearrange:
    def test_cycles_mode_on_transposed(self, tmp_path, capsys):
        pcm = parse_pcm(RUNNING_ROWS)
        rows = [[str(pcm.entry(i, j)) for i in range(1, 5)] for j in range(1, 5)]
        path = write_matrix(tmp_path / "t.json", rows)
        assert main(["rearrange", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["permutation"] == [1, 2, 4, 3]
        assert payload["tie_break"] == "lexicographic-smallest"
        parse_pcm(payload["matrix"]["entries"])  # output is a valid document

    def test_triads_mode(self, tmp_path, capsys):
        rows = [["1", "1", "2", "4"], ["1", "1", "1", "3"],
                ["1/2", "1", "1", "1"], ["1/4", "1/3", "1", "1"]]
        path = write_matrix(tmp_path / "m.json", rows)
        assert main(["rearrange", path, "--mode", "triads"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == 1
        assert payload["permutation"] == [1, 2, 3, 4]

    def test_triads_mode_rejects_consistent_triad(self, tmp_path, capsys):
        rows = [["1", "5/2", "5", "7"], ["2/5", "1", "2", "8"],
                ["1/5", "1/2", "1", "1/3"], ["1/7", "1/8", "3", "1"]]
        path = write_matrix(tmp_path / "m.json", rows)
        assert main(["rearrange", path, "--mode", "triads"]) == 2
        assert "ConsistentTriadPresent" in capsys.readouterr().err


class TestVertices:
    def test_exact_and_embedded(self, matrix_file, capsys):
        assert main(["vertices", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "1/4 1/4 1/8 3/8" in out
        assert "0.913043478" in out


class TestMember:
    def test_vertex_membership(self, matrix_file, tmp_path, capsys):
        wfile = write_weights(tmp_path / "w.json", ["1/4", "1/4", "1/8", "3/8"])
        assert main(["member", matrix_file, "--weights", wfile]) == 0
        out = capsys.readouterr().out
        assert "cycle (1,2,3,4) forward: inside" in out
        assert "barycentric: 1 0 0 0" in out
        assert "efficient: yes" in out

    def test_uniform_outside(self, matrix_file, tmp_path, capsys):
        wfile = write_weights(tmp_path / "w.json", ["1/4", "1/4", "1/4", "1/4"])
        assert main(["member", matrix_file, "--weights", wfile]) == 1
        assert "efficient: no" in capsys.readouterr().out


class TestExport:
    def test_json_round_trip(self, matrix_file, tmp_path, capsys):
        out = tmp_path / "geometry.json"
        assert main(["export", matrix_file, "-o", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["schema_version"] == "1"
        assert doc["classification"] == "triple"
        assert doc["simplex_corners"] == [[1, 1, 0], [1, 0, 1], [0, 1, 1], [0, 0, 0]]
        assert len(doc["planes"]) == 6
        # exact vertices survive the round trip bit for bit
        effset = efficient_set(parse_pcm(RUNNING_ROWS))
        reparsed = parse_exact_vertices(doc)
        for tet, vertices in zip(effset.tetrahedra, reparsed):
            assert [v.components for v in tet.vertices] == vertices
        for tet in doc["tetrahedra"]:
            assert len(tet["path_trees"]) == 4
            assert all(len(edges) == 3 for edges in tet["path_trees"])

    def test_obj_mesh(self, matrix_file, tmp_path):
        out = tmp_path / "mesh.obj"
        assert main(["export", matrix_file, "-o", str(out), "--format", "obj"]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert sum(1 for line in lines if line.startswith("v ")) == 12
        assert sum(1 for line in lines if line.startswith("f ")) == 12

    def test_obj_degenerate_is_comments_only(self, tmp_path):
        rows = [["1", "5/2", "5", "7"], ["2/5", "1", "2", "14/5"],
                ["1/5", "1/2", "1", "7/5"], ["1/7", "5/14", "5/7", "1"]]
        path = write_matrix(tmp_path / "c.json", rows)
        out = tmp_path / "mesh.obj"
        assert main(["export", path, "-o", str(out), "--format", "obj"]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert not any(line.startswith(("v ", "f ")) for line in lines)
        assert any(line.startswith("# point") for line in lines)

    def test_embedded_matches_exact(self, matrix_file, tmp_path):
        out = tmp_path / "geometry.json"
        main(["export", matrix_file, "-o", str(out)])
        doc = json.loads(out.read_text(encoding="utf-8"))
        for tet in doc["tetrahedra"]:
            for exact, embedded in zip(tet["vertices_exact"], tet["vertices_embedded"]):
                w = [Fraction(s) for s in exact]
                assert embedded[0] == pytest.approx(float(w[0] + w[1]), abs=1e-15)
                assert embedded[1] == pytest.approx(float(w[0] + w[2]), abs=1e-15)
                assert embedded[2] == pytest.approx(float(w[1] + w[2]), abs=1e-15)


class TestSample:
    def test_agreement_run(self, capsys):
        assert main(["sample", "--seed", "5", "--trials", "300", "--class", "triple"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 300
        assert payload["agreements"] + len(payload["disagreements"]) == payload["trials"]
        assert payload["disagreements"] == []

    def test_deterministic_modulo_elapsed(self, capsys):
        main(["sample", "--seed", "9", "--trials", "120", "--class", "simple"])
        first = json.loads(capsys.readouterr().out)
        main(["sample", "--seed", "9", "--trials", "120", "--class", "simple"])
        second = json.loads(capsys.readouterr().out)
        first.pop("elapsed"), second.pop("elapsed")
        assert first == second

    def test_report_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["sample", "--seed", "3", "--trials", "60",
                     "--class", "consistent", "-o", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["class"] == "consistent"
        assert payload["seed"] == 3


class TestInputFaults:
    """Every malformed input ends with exit 2 and one error line, in a real process."""

    @staticmethod
    def _write_inputs(tmp_path):
        write_matrix(tmp_path / "matrix.json", RUNNING_ROWS)
        write_weights(tmp_path / "w.json", [0.25, 0.25, 0.25, 0.25])
        write_weights(tmp_path / "infinite.json", [float("inf"), 1.0, 1.0, 1.0])
        (tmp_path / "non-utf8.json").write_bytes(
            b'{"n": 2, "entries": [["1", "\xff\xfe"], ["1", "1"]]}')
        (tmp_path / "deep.json").write_text("[" * 50_000 + "]" * 50_000, encoding="utf-8")

    @pytest.mark.parametrize("argv,tol", [
        pytest.param(["validate", "non-utf8.json"], None, id="non-utf8"),
        pytest.param(["validate", "deep.json"], None, id="deep-json"),
        pytest.param(["sample", "--seed", "1", "--trials", "0", "--class", "triple"], None,
                     id="zero-trials"),
        *[pytest.param(["check", "matrix.json", "--weights", "w.json"], tol, id=f"tol-{tol}")
          for tol in ("abc", "-1", "nan", "inf")],
        pytest.param(["check", "matrix.json", "--weights", "infinite.json"], None,
                     id="infinite-weight"),
    ])
    def test_exit_2_without_traceback(self, tmp_path, argv, tol):
        self._write_inputs(tmp_path)
        env = {k: v for k, v in os.environ.items() if k != "EFFPCM_TOL"}
        src = str(Path(effpcm.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if tol is not None:
            env["EFFPCM_TOL"] = tol
        proc = subprocess.run([sys.executable, "-m", "effpcm.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, errors="replace",
                              timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
