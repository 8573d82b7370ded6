"""End-to-end CLI behavior: commands, exit codes, file formats."""

import ast
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import effpcm
from effpcm.cli import build_parser, command_parser, main
from effpcm.errors import UsageError
from effpcm.generators import generate_with_rng
from effpcm.export import load_matrix
from effpcm.geometry import PerturbTag, efficient_set, tetrahedron_for_cycle
from effpcm.pcm import DEFAULT_EQUALITY_BAND, format_rational, parse_pcm, pcm_from_upper
from conftest import RUNNING_ROWS
from oracles import entry, parse_exact_vertices
from test_pcm import random_pcm4

CLASS_CHOICES = [tag.value for tag in PerturbTag]


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
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_valid(self, tmp_path, capsys, newline):
        path = tmp_path / "matrix.json"
        text = json.dumps({"n": 4, "entries": RUNNING_ROWS}, indent=1)
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out == "ok\n"

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
        err = capsys.readouterr().err
        assert err.startswith("error: FileError: ") and err.count("\n") == 1


class TestCheck:
    def test_inefficient_uniform(self, matrix_file, tmp_path, capsys):
        wfile = write_weights(tmp_path / "w.json", ["1/4", "1/4", "1/4", "1/4"])
        assert main(["check", matrix_file, "--weights", wfile, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["efficient"] is False
        assert payload["arcs"] == [[1, 2], [2, 1], [3, 1], [3, 2], [3, 4], [4, 1], [4, 2]]
        assert payload["equality_pairs"] == [[1, 2]]

    def test_one_alternative_prints_a_dash_for_each_empty_list(self, tmp_path, capsys):
        """A 1x1 matrix has no arc and no pair: both lists print "-", and dump as []."""
        matrix = write_matrix(tmp_path / "m.json", [["1"]])
        wfile = write_weights(tmp_path / "w.json", ["1"])
        assert main(["check", matrix, "--weights", wfile]) == 0
        assert capsys.readouterr().out == "verdict: efficient\narcs: -\nequality pairs: -\n"
        assert main(["check", matrix, "--weights", wfile, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"efficient": True, "arcs": [], "equality_pairs": []}

    def test_efficient_vertex(self, matrix_file, tmp_path, capsys):
        wfile = write_weights(tmp_path / "w.json", ["7/20", "2/5", "1/5", "1/20"])
        assert main(["check", matrix_file, "--weights", wfile]) == 0
        assert "efficient" in capsys.readouterr().out

    def test_dimension_mismatch(self, matrix_file, tmp_path, capsys):
        wfile = write_weights(tmp_path / "w.json", ["1", "1", "1"])
        assert main(["check", matrix_file, "--weights", wfile]) == 2

    @pytest.mark.parametrize("command", ["check", "member"])
    def test_the_band_is_checked_when_the_weights_are_read(self, matrix_file, tmp_path, capsys,
                                                           monkeypatch, command):
        """A malformed EFFPCM_TOL is reported before the vector meets the matrix."""
        monkeypatch.setenv("EFFPCM_TOL", "abc")
        wfile = write_weights(tmp_path / "w.json", ["1", "1", "1"])
        assert main([command, matrix_file, "--weights", wfile]) == 2
        assert capsys.readouterr().err == (
            "error: BadTolerance: EFFPCM_TOL='abc' is not a finite number >= 0\n")

    @pytest.mark.parametrize("command", ["check", "member"])
    @pytest.mark.parametrize("document", ['{"w": ["1", "x", "1", "1"]}', "not json"],
                             ids=["bad-numeral", "not-json"])
    def test_the_band_is_read_before_the_weights_document(self, tmp_path, capsys, monkeypatch,
                                                          command, document):
        """The band is read after the matrix document and before the weights document:
        a faulty weights document under a malformed EFFPCM_TOL reports the band, and a
        faulty matrix document still reports the matrix."""
        monkeypatch.setenv("EFFPCM_TOL", "abc")
        (tmp_path / "w.json").write_text(document, encoding="utf-8")
        matrix = write_matrix(tmp_path / "matrix.json", RUNNING_ROWS)
        assert main([command, matrix, "--weights", str(tmp_path / "w.json")]) == 2
        assert capsys.readouterr() == (
            "", "error: BadTolerance: EFFPCM_TOL='abc' is not a finite number >= 0\n")
        bad = write_matrix(tmp_path / "bad.json", [["1", "2"], ["1/3", "1"]])
        assert main([command, bad, "--weights", str(tmp_path / "w.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ReciprocityViolation ")

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
        rows = [[str(entry(pcm, i, j)) for i in range(1, 5)] for j in range(1, 5)]
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
    def test_exact_and_embedded(self, matrix_file, tmp_path, capsys):
        assert main(["vertices", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "1/4 1/4 1/8 3/8" in out
        assert "0.913043478" in out
        # the twelve points the geometry document embeds, in its order
        printed = [list(ast.literal_eval(line.split("->")[1].strip()))
                   for line in out.splitlines() if "->" in line]
        assert main(["export", matrix_file, "-o", str(tmp_path / "geometry.json")]) == 0
        doc = json.loads((tmp_path / "geometry.json").read_text(encoding="utf-8"))
        embedded = [point for tet in doc["tetrahedra"] for point in tet["vertices_embedded"]]
        assert len(printed) == 12 and printed == embedded


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

    def test_float_sum_overflow_agrees_with_check(self, matrix_file, tmp_path, capsys):
        # finite weights whose float sum is infinite
        wfile = write_weights(tmp_path / "w.json", [1.4875e308, 1.7e308, 8.5e307, 2.125e307])
        assert main(["check", matrix_file, "--weights", wfile]) == 0
        capsys.readouterr()
        assert main(["member", matrix_file, "--weights", wfile]) == 0
        captured = capsys.readouterr()
        assert "  barycentric: 1107303018904957360/1107303018904957459 99/1107303018904957459 0 0" in (
            captured.out.splitlines())
        assert "efficient: yes" in captured.out
        assert captured.err == ""

    def test_float_vector_that_normalizes_to_zero(self, tmp_path, capsys):
        """A consistent matrix and its own float weights, of which 1e-300 / 2e300
        is 0.0 in floats: the exact twin's lines, barycentric ones included."""
        floats = [1e300, 1e300, 1e-300, 1e-300]
        rows = [[format_rational(Fraction(a) / Fraction(b)) for b in floats] for a in floats]
        matrix = write_matrix(tmp_path / "matrix.json", rows)
        wfile = write_weights(tmp_path / "w.json", floats)
        assert main(["check", matrix, "--weights", wfile]) == 0
        capsys.readouterr()
        assert main(["member", matrix, "--weights", wfile]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "cycle (1,2,3,4) consistent: inside",
            "  barycentric: 1 0 0 0",
            "cycle (1,4,2,3) consistent: inside",
            "  barycentric: 1 0 0 0",
            "cycle (1,3,4,2) consistent: inside",
            "  barycentric: 1 0 0 0",
            "efficient: yes",
        ]
        assert captured.err == ""
        exact = write_weights(tmp_path / "wx.json", [format_rational(Fraction(c)) for c in floats])
        assert main(["member", matrix, "--weights", exact]) == 0
        assert capsys.readouterr().out == captured.out

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tag=st.sampled_from(CLASS_CHOICES),
           cycle=st.integers(0, 2), inside=st.booleans())
    def test_float_barycentric_lines_are_the_exact_twins(self, tmp_path_factory, seed, tag, cycle, inside):
        """A float point, rounded from inside a tetrahedron or drawn at random,
        prints each barycentric line of its exact twin, summing to exactly 1."""
        rng = random.Random(seed)
        pcm = generate_with_rng(rng, tag)
        if inside:
            lams = [rng.randint(0, 9) for _ in range(4)]
            lams[rng.randrange(4)] += 1
            tet = efficient_set(pcm).tetrahedra[cycle]
            floats = [float(sum(lam * v.components[i] for lam, v in zip(lams, tet.vertices)))
                      for i in range(4)]
        else:
            floats = [rng.uniform(0.01, 100.0) for _ in range(4)]
        workdir = tmp_path_factory.mktemp("twin")
        matrix = write_matrix(workdir / "m.json", pcm.rows_as_strings())
        outputs = []
        for values in (floats, [format_rational(Fraction(c)) for c in floats]):
            with redirect_stdout(io.StringIO()) as out:
                main(["member", matrix, "--weights", write_weights(workdir / "w.json", values)])
            outputs.append(out.getvalue().splitlines())
        float_lines, twin_lines = (
            [(output[k - 1].split(")")[0], line) for k, line in enumerate(output) if "barycentric" in line]
            for output in outputs)
        assert float_lines == twin_lines
        for _, line in float_lines:
            assert sum(Fraction(c) for c in line.split(":")[1].split()) == 1


# w_1/w_2 lies 5e-7 above a_12 = 1000 relatively, far outside the band, while
# w_2/w_1 lies 5e-10 below a_21 = 1/1000 absolutely, inside a band of 1e-9 taken
# as absolute; w is inefficient.  SWAPPED_ROWS is the same matrix with
# alternatives 1 and 2 swapped.
BAND_EDGE_ROWS = [["1", "1000", "2", "2"], ["1/1000", "1", "2", "1"],
                  ["1/2", "1/2", "1", "2"], ["1/2", "1", "1/2", "1"]]
BAND_EDGE_W = [1.0, 0.0009999995, 0.3, 0.3]
SWAPPED_ROWS = [["1", "1/1000", "2", "1"], ["1000", "1", "2", "2"],
                ["1/2", "1/2", "1", "2"], ["1", "1/2", "1/2", "1"]]
SWAPPED_W = [0.0009999995, 1.0, 0.3, 0.3]
# the cycle (1,2,3,4) has product 1 + 1e-9; w holds it backward, equal within the
# band on {1,4}, {2,3} and {3,4}
NEAR_ROWS = [["1", "8/3", "2/3", "3840000000/1000000001"], ["3/8", "1", "4/5", "9/2"],
             ["3/2", "5/4", "1", "9/5"], ["1000000001/3840000000", "2/9", "5/9", "1"]]
NEAR_W = [3.8399999980510415, 1.4399999976311004, 1.7999999985113047, 1.0]
# every arc but those of {1,2} is strict, and none enters vertex 1, so w is
# efficient exactly when {1,2} is an equality and carries 2 -> 1
EXACT_EDGE_ROWS = [["1", "1", "1/2", "1/2"], ["1", "1", "1/2", "2"],
                   ["2", "2", "1", "1/2"], ["2", "1/2", "2", "1"]]
EXACT_EDGE_BAND = 2.0 ** -10


def _verdicts(workdir, rows, weights):
    """(check's exit code, member's exit code, member's ``efficient:`` line)."""
    matrix = write_matrix(workdir / "matrix.json", rows)
    wfile = write_weights(workdir / "w.json", weights)
    out = io.StringIO()
    with redirect_stdout(out):
        check_rc = main(["check", matrix, "--weights", wfile])
    out = io.StringIO()
    with redirect_stdout(out):
        member_rc = main(["member", matrix, "--weights", wfile])
    return check_rc, member_rc, out.getvalue().splitlines()[-1]


class TestBandEdge:
    """`check` and `member` read one digraph, so float vectors get one verdict."""

    @pytest.mark.parametrize("rows,weights", [(BAND_EDGE_ROWS, BAND_EDGE_W),
                                              (SWAPPED_ROWS, SWAPPED_W)],
                             ids=["original", "alternatives-1-2-swapped"])
    def test_relative_band_on_both_labellings(self, tmp_path, monkeypatch, rows, weights):
        monkeypatch.delenv("EFFPCM_TOL", raising=False)
        assert _verdicts(tmp_path, rows, weights) == (1, 1, "efficient: no")

    @pytest.mark.parametrize("w1,verdict", [
        (1 + EXACT_EDGE_BAND, (0, 0, "efficient: yes")),
        (math.nextafter(1 + EXACT_EDGE_BAND, 2.0), (1, 1, "efficient: no")),
    ], ids=["on-the-edge", "next-float-outside"])
    def test_ratio_exactly_at_the_band_edge(self, tmp_path, monkeypatch, w1, verdict):
        """w_1/w_2 against a_12 = 1 with band 2^-10: at 1 + 2^-10 the pair sits
        on the edge, |lhs - rhs| b_d = b_n rhs, and is an equality; the next
        float up is strict, and both commands say so."""
        monkeypatch.setenv("EFFPCM_TOL", repr(EXACT_EDGE_BAND))
        (p, q), (b_n, b_d) = w1.as_integer_ratio(), EXACT_EDGE_BAND.as_integer_ratio()
        lhs, rhs = p, q  # p_1 q_2 den and num p_2 q_1, with w_2 = 1 and a_12 = 1
        on_edge = abs(lhs - rhs) * b_d == b_n * rhs
        assert on_edge == (verdict[0] == 0)
        assert _verdicts(tmp_path, EXACT_EDGE_ROWS, [w1, 1.0, 1.0, 1.0]) == verdict

    def test_recorded_near_consistent_cycle(self, tmp_path, monkeypatch):
        """The cycle (1,2,3,4) has product 1 + 1e-9; w holds it backward, against
        its admissible orientation, within the band."""
        monkeypatch.delenv("EFFPCM_TOL", raising=False)
        assert _verdicts(tmp_path, NEAR_ROWS, NEAR_W) == (0, 0, "efficient: yes")

    def test_recorded_near_consistent_cycle_label(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("EFFPCM_TOL", raising=False)
        matrix = write_matrix(tmp_path / "matrix.json", NEAR_ROWS)
        assert main(["member", matrix, "--weights", write_weights(tmp_path / "w.json", NEAR_W)]) == 0
        # the exact values lie outside the closed tetrahedron: no barycentric line
        assert capsys.readouterr().out.splitlines() == [
            "cycle (1,2,3,4) backward, within the band of consistent: inside",
            "cycle (1,4,2,3) backward: outside",
            "cycle (1,3,4,2) forward: outside",
            "efficient: yes",
        ]
        exact = write_weights(tmp_path / "x.json", [str(Fraction(c)) for c in NEAR_W])
        assert main(["member", matrix, "--weights", exact]) == 1
        assert capsys.readouterr().out.splitlines()[0] == "cycle (1,2,3,4) backward: outside"

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tag=st.sampled_from(CLASS_CHOICES),
        order=st.permutations((1, 2, 3, 4)),
        ks=st.lists(st.sampled_from([0, 0.5, 1, 1.5, 2, 3]), min_size=3, max_size=3),
        signs=st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=3),
        generic=st.none() | st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4),
        near=st.none() | st.tuples(st.sampled_from([0, 0.5, 1, 1.5, 2, 3]), st.sampled_from([-1, 1])),
    )
    @example(seed=1, tag="triple", order=(1, 2, 3, 4), ks=[1.5, 1, 1], signs=[1, -1, -1],
             generic=None, near=(1, -1))
    def test_member_agrees_with_check_on_float_vectors(
        self, tmp_path_factory, seed, tag, order, ks, signs, generic, near,
    ):
        """Band-edge draws walk a path of alternatives, each ratio a_ij * (1 +- k*band).

        A consistent 4-cycle or triad along the path puts the closing ratios
        at the band's edge too.  A ``near`` draw sets the closing entry so
        that the closing ratio is at a band edge as well, which puts the
        cycle along the path within a few bands of 1: a float vector can then
        hold that cycle against its admissible orientation.
        """
        pcm = generate_with_rng(random.Random(seed), tag)
        band = DEFAULT_EQUALITY_BAND
        weights = generic
        if weights is None:
            weights = [0.0] * 4
            weights[order[3] - 1] = 1.0
            for t in (2, 1, 0):
                a = float(entry(pcm, order[t], order[t + 1]))
                factor = 1 + signs[t] * ks[t] * band
                weights[order[t] - 1] = a * factor * weights[order[t + 1] - 1]
            if near is not None:
                (k, sign), (a, b) = near, (order[3], order[0])
                ratio = Fraction(weights[a - 1]) / Fraction(weights[b - 1])
                closing = ratio / (1 + sign * Fraction(k) * Fraction(band))  # a_ab
                upper = pcm.upper_entries()
                upper[min(a, b), max(a, b)] = closing if a < b else 1 / closing
                pcm = pcm_from_upper(4, upper)
        check_rc, member_rc, line = _verdicts(
            tmp_path_factory.mktemp("band"), pcm.rows_as_strings(), weights)
        assert line == ("efficient: yes" if check_rc == 0 else "efficient: no")
        assert member_rc == check_rc


class TestBandSetting:
    """``EFFPCM_TOL`` as the console reads it: each command runs in process on
    documents under ``tmp_path``, and a float vector is compared byte for byte
    with its exact twin.  A default-band run on ``NEAR_ROWS`` is
    ``TestBandEdge::test_recorded_near_consistent_cycle``."""

    @staticmethod
    def _run(capsys, command, matrix, weights, *options):
        code = main([command, str(matrix), "--weights", str(weights), *options])
        return code, *capsys.readouterr()

    def test_an_exact_check_still_reads_the_band(self, tmp_path, monkeypatch, capsys):
        """A consistent 6x6 matrix and its own exact weights: efficient, yet a malformed
        band is an input error, one line on stderr and nothing on stdout.  Uniform
        weights are inefficient: every arc runs from the higher to the lower index."""
        w = [6, 5, 4, 3, 2, 1]
        matrix = write_matrix(tmp_path / "six.json", [[f"{a}/{b}" for b in w] for a in w])
        weights = write_weights(tmp_path / "six_own.json", [str(c) for c in w])
        uniform = write_weights(tmp_path / "six_uniform.json", ["1"] * 6)
        monkeypatch.delenv("EFFPCM_TOL", raising=False)
        for wfile, verdict in ((weights, (0, "verdict: efficient")),
                               (uniform, (1, "verdict: inefficient"))):
            code, out, _ = self._run(capsys, "check", matrix, wfile)
            assert (code, out.splitlines()[0]) == verdict
        monkeypatch.setenv("EFFPCM_TOL", "abc")
        assert self._run(capsys, "check", matrix, weights) == (
            2, "", "error: BadTolerance: EFFPCM_TOL='abc' is not a finite number >= 0\n")

    @pytest.mark.parametrize("rows,floats,command,options", [
        pytest.param([["1", "1000"], ["1/1000", "1"]], [1.0, 0.001], "check", (), id="thousand"),
        pytest.param(NEAR_ROWS, NEAR_W, "member", (), id="near-member"),
        pytest.param(NEAR_ROWS, NEAR_W, "check", ("--json",), id="near-check-json"),
    ])
    def test_a_zero_band_makes_a_float_vector_its_exact_twin(
            self, tmp_path, monkeypatch, capsys, rows, floats, command, options):
        """Under EFFPCM_TOL=0 a float vector is read as its exact values and nothing
        else: 1.0 / 0.001 rounds to a_12 = 1000 but is not 1000, and the near vector
        holds its cycle against the orientation only within the default band.  Both
        vectors are inefficient and print the same bytes."""
        monkeypatch.setenv("EFFPCM_TOL", "0")
        matrix = write_matrix(tmp_path / "matrix.json", rows)
        float_w = write_weights(tmp_path / "w.json", floats)
        twin_w = write_weights(tmp_path / "x.json", [str(Fraction(c)) for c in floats])
        run = self._run(capsys, command, matrix, float_w, *options)
        assert run[0] == 1 and run[1] and run[2] == ""
        assert self._run(capsys, command, matrix, twin_w, *options) == run


# a_12, float weights and their exact twin, every other entry 1
_TEN_300 = str(10**300)
RANGE_CASES = {
    "overflow-2x2": (10**400, [1e300, 1e-300], [_TEN_300, "1/" + _TEN_300]),
    "underflow-2x2": (Fraction(1, 10**400), [1e-300, 1e300], ["1/" + _TEN_300, _TEN_300]),
    "underflow-4x4": (Fraction(1, 10**400), [1e-300, 1e300, 1.0, 1.0],
                      ["1/" + _TEN_300, _TEN_300, "1", "1"]),
}


# a_12 and a_14 past the float range, every other upper entry 1; the cycle
# (1,2,3,4) is then forward, so the region test of `member` reads a_12 too
HUGE_ENTRY_ROWS = [
    ["1", str(10**400), "1", str(10**401)],
    ["1/" + str(10**400), "1", "1", "1"],
    ["1", "1", "1", "1"],
    ["1/" + str(10**401), "1", "1", "1"],
]


class TestEntryPastFloatRange:
    """Float weights against an entry or a ratio that no normal float holds: the
    exact twin's verdict, not a traceback."""

    @pytest.mark.parametrize("command", ["check", "member"])
    @pytest.mark.parametrize("floats,exact,rc", [
        ([0.4, 0.2, 0.2, 0.2], ["2/5", "1/5", "1/5", "1/5"], 0),
        ([0.1, 0.3, 0.3, 0.3], ["1/10", "3/10", "3/10", "3/10"], 1),
    ])
    def test_same_verdict_as_exact_twin(self, tmp_path, capsys, command, floats, exact, rc):
        matrix = write_matrix(tmp_path / "matrix.json", HUGE_ENTRY_ROWS)
        float_file = write_weights(tmp_path / "wf.json", floats)
        exact_file = write_weights(tmp_path / "wx.json", exact)
        assert main([command, matrix, "--weights", float_file]) == rc
        assert capsys.readouterr().err == ""
        assert main([command, matrix, "--weights", exact_file]) == rc

    @pytest.mark.parametrize("command,case", [
        ("check", "overflow-2x2"), ("check", "underflow-2x2"),
        ("check", "underflow-4x4"), ("member", "underflow-4x4"),
    ])
    def test_ratio_past_the_normal_floats(self, tmp_path, capsys, command, case):
        """The float ratio and float(a_12) both overflow, or both underflow to 0.0."""
        a12, floats, exact = RANGE_CASES[case]
        rows = pcm_from_upper(len(floats), {(1, 2): a12}).rows_as_strings()
        matrix = write_matrix(tmp_path / "matrix.json", rows)
        float_file = write_weights(tmp_path / "wf.json", floats)
        exact_file = write_weights(tmp_path / "wx.json", exact)
        assert main([command, matrix, "--weights", exact_file]) == 1
        capsys.readouterr()
        assert main([command, matrix, "--weights", float_file]) == 1
        assert capsys.readouterr().err == ""


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
        # the class test_json_round_trip reads off the JSON document
        assert [line for line in lines if line.startswith("# classification: ")] == [
            "# classification: triple"]

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

    def test_unwritable_report_file_fails_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran before -o was opened")
        monkeypatch.setattr("effpcm.sampling.run_equivalence_trials", no_trials)
        out = tmp_path / "missing" / "report.json"
        assert main(["sample", "--seed", "1", "--trials", "20000",
                     "--class", "triple", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: FileError: ")

    @pytest.mark.parametrize("trials,tol,code", [("0", None, "BadTrialCount"),
                                                 ("2", "abc", "BadTolerance")])
    def test_input_error_creates_no_report_file(self, tmp_path, capsys, monkeypatch,
                                                trials, tol, code):
        monkeypatch.delenv("EFFPCM_TOL", raising=False)
        if tol is not None:
            monkeypatch.setenv("EFFPCM_TOL", tol)
        out = tmp_path / "report.json"
        assert main(["sample", "--seed", "1", "--trials", trials,
                     "--class", "triple", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {code}: ")
        assert not out.exists()


class TestInputFaults:
    """Every malformed input ends with exit 2 and one error line, in a real process."""

    # a document is read as bytes and decoded once as UTF-8; a BOM is not skipped,
    # and only ASCII whitespace pads a numeral (U+3000 is an ideographic space)
    _DOCUMENT_LINES = {
        "non-utf8.json": "non-utf8.json is not UTF-8 text (invalid start byte)",
        "bom.json": "bom.json is not valid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))",
        "utf16.json": "utf16.json is not UTF-8 text (invalid start byte)",
        "wide.json": "'\\u30003\\u3000' is not 'p', 'p/q' or a short decimal",
    }

    @staticmethod
    def _write_inputs(tmp_path):
        write_matrix(tmp_path / "matrix.json", RUNNING_ROWS)
        write_weights(tmp_path / "w.json", [0.25, 0.25, 0.25, 0.25])
        write_weights(tmp_path / "infinite.json", [float("inf"), 1.0, 1.0, 1.0])
        write_weights(tmp_path / "huge.json", [10**400, 1, 1, 1])
        write_weights(tmp_path / "mixed.json", ["1" + "0" * 400, 1.0, 1.0, 1.0])
        (tmp_path / "non-utf8.json").write_bytes(
            b'{"n": 2, "entries": [["1", "\xff\xfe"], ["1", "1"]]}')
        small = json.dumps({"n": 2, "entries": [["1", "3"], ["1/3", "1"]]})
        (tmp_path / "bom.json").write_bytes(b"\xef\xbb\xbf" + small.encode("utf-8"))
        (tmp_path / "utf16.json").write_bytes(small.encode("utf-16"))
        write_matrix(tmp_path / "wide.json", [["1", "\u30003\u3000"], ["1/3", "1"]])
        (tmp_path / "deep.json").write_text("[" * 50_000 + "]" * 50_000, encoding="utf-8")
        (tmp_path / "long.json").write_text("1" * 5000, encoding="utf-8")
        for name, n, rows in (("n-true", True, [["1"]]), ("n-float", 4.0, RUNNING_ROWS),
                              ("n-string", "4", RUNNING_ROWS)):
            (tmp_path / f"{name}.json").write_text(json.dumps({"n": n, "entries": rows}),
                                                   encoding="utf-8")

    @pytest.mark.parametrize("argv,tol", [
        pytest.param(["validate", "missing.json"], None, id="missing"),
        pytest.param(["validate", "non-utf8.json"], None, id="non-utf8"),
        pytest.param(["validate", "bom.json"], None, id="utf8-bom"),
        pytest.param(["validate", "utf16.json"], None, id="utf16"),
        pytest.param(["validate", "wide.json"], None, id="ideographic-space"),
        pytest.param(["validate", "deep.json"], None, id="deep-json"),
        pytest.param(["validate", "long.json"], None, id="long-number"),
        *[pytest.param(["validate", f"{name}.json"], None, id=name)
          for name in ("n-true", "n-float", "n-string")],
        pytest.param(["sample", "--seed", "1", "--trials", "0", "--class", "triple"], None,
                     id="zero-trials"),
        *[pytest.param(["check", "matrix.json", "--weights", "w.json"], tol, id=f"tol-{tol}")
          for tol in ("abc", "-1", "nan", "inf")],
        pytest.param(["check", "matrix.json", "--weights", "infinite.json"], None,
                     id="infinite-weight"),
        pytest.param(["check", "matrix.json", "--weights", "huge.json"], None,
                     id="huge-int-weight"),
        pytest.param(["member", "matrix.json", "--weights", "huge.json"], None,
                     id="huge-int-weight-member"),
        *[pytest.param([command, "matrix.json", "--weights", "mixed.json"], None,
                       id=f"long-numeral-with-float-{command}") for command in ("check", "member")],
        pytest.param(["sample", "--seed", "1", "--trials", "2", "--class", "triple"], "abc",
                     id="sample-tol-abc"),
        pytest.param(["sample", "--seed", "1", "--trials", "x", "--class", "triple"], None,
                     id="argparse-non-integer-trials"),
        pytest.param(["frobnicate", "matrix.json"], None, id="argparse-unknown-command"),
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
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        if argv[-1] in self._DOCUMENT_LINES:
            assert proc.stderr == f"error: BadNumeral: {self._DOCUMENT_LINES[argv[-1]]}\n"


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4500,
                    reason="the interpreter prints a 4500-digit integer")
class TestNumberTooLong:
    """A valid matrix whose path-tree vertices pass the int-to-text digit limit:
    products of three 1500-digit entries reach 14,948-bit numerators."""

    @pytest.fixture
    def long_matrix(self, tmp_path):
        a, b = "7" * 1500, "3" * 1499 + "1"
        return write_matrix(tmp_path / "long.json", [
            ["1", a, "1", b], ["1/" + a, "1", a, "1"],
            ["1", "1/" + a, "1", a], ["1/" + b, "1", "1/" + a, "1"]])

    @pytest.mark.parametrize("command", ["vertices", "export"])
    def test_exact_vertex_text_exits_2(self, long_matrix, tmp_path, command):
        out = tmp_path / "geometry.json"
        argv = [command, long_matrix] + (["-o", str(out)] if command == "export" else [])
        rc, stdout, stderr = _run(argv)
        assert (rc, stdout) == (2, "")
        assert stderr.startswith("error: NumberTooLong: ") and stderr.count("\n") == 1
        assert not out.exists()

    def test_obj_mesh_prints_floats_only(self, long_matrix, tmp_path):
        assert _run(["export", long_matrix, "-o", str(tmp_path / "m.obj"), "--format", "obj"])[0] == 0

    def test_member_prints_nothing_before_its_error(self, long_matrix, tmp_path):
        """The (1,2,3,4) tetrahedron's vertex sum, scaled to w_4 = 1 and rounded:
        1500-digit weights inside that tetrahedron, whose barycentric
        coefficients pass the digit limit; ``check`` needs no such text."""
        tet = tetrahedron_for_cycle(load_matrix(long_matrix), (1, 2, 3, 4))
        total = [sum(c) for c in zip(*(v.components for v in tet.vertices))]
        weights = write_weights(tmp_path / "long_w.json", [str(round(c / total[3])) for c in total])
        rc, stdout, stderr = _run(["member", long_matrix, "--weights", weights])
        assert (rc, stdout) == (2, "")
        assert stderr.startswith("error: NumberTooLong: ") and stderr.count("\n") == 1
        rc, stdout, stderr = _run(["check", long_matrix, "--weights", weights])
        assert (rc, stderr) == (0, "")
        assert stdout.startswith("verdict: efficient\n") and stdout.count("\n") == 3


def _stdout_writers(tree: ast.Module) -> list[str]:
    """Functions other than ``main`` that call ``print`` without ``file=`` or name ``sys.stdout``."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or func.name == "main":
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
                    and not any(keyword.arg == "file" for keyword in node.keywords)):
                found.append(f"line {node.lineno}: print in {func.name}")
            if (isinstance(node, ast.Attribute) and node.attr == "stdout"
                    and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                found.append(f"line {node.lineno}: sys.stdout in {func.name}")
    return found


def test_only_main_writes_stdout():
    """A command returns its text and ``main`` prints it once, after the work:
    an error raised anywhere in a command leaves stdout empty."""
    source = Path(effpcm.__file__).with_name("cli.py").read_text(encoding="utf-8")
    assert _stdout_writers(ast.parse(source)) == []


def test_a_failing_stdout_write_is_a_file_error(matrix_file):
    class BrokenPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    err = io.StringIO()
    with redirect_stdout(BrokenPipe()), redirect_stderr(err):
        assert main(["validate", matrix_file]) == 2
    assert err.getvalue() == "error: FileError: [Errno 32] Broken pipe\n"


_TOP_HELP = """\
usage: effpcm [-h]
              {validate,check,classify,rearrange,vertices,member,export,sample}
              ...

Exact Pareto-efficiency analysis of pairwise comparison matrices

positional arguments:
  {validate,check,classify,rearrange,vertices,member,export,sample}
    validate            validate a matrix file
    check               decide efficiency of a weight vector
    classify            consistency-structure class of a 4x4 matrix
    rearrange           canonical reindexing of alternatives
    vertices            tetrahedron vertices, exact and embedded
    member              per-cycle region membership of a weight vector
    export              write the efficient-set geometry to a file
    sample              Monte Carlo digraph-vs-geometry agreement harness

options:
  -h, --help            show this help message and exit
"""
_CLASSES = "{triple,double-triad,double-one-cycle,double-two-cycles,simple,consistent}"
_SAMPLE_HELP = f"""\
usage: effpcm sample [-h] --seed SEED --trials TRIALS --class
                     {_CLASSES}
                     [-o OUTPUT]

options:
  -h, --help            show this help message and exit
  --seed SEED
  --trials TRIALS
  --class {_CLASSES}
  -o OUTPUT, --output OUTPUT
"""


class TestUsage:
    @pytest.mark.parametrize("argv", [["--help"], ["sample", "--help"]])
    def test_help_exits_0(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal's width
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        assert capsys.readouterr().out == (_SAMPLE_HELP if argv[0] == "sample" else _TOP_HELP)

    @pytest.mark.parametrize("name", build_parser().commands)
    def test_a_command_parser_is_its_subparser(self, name, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        tree = build_parser().commands[name]
        assert command_parser(name).format_usage() == tree.format_usage()
        assert command_parser(name).format_help() == tree.format_help()

    def test_unknown_command_is_one_error_line(self):
        assert _run(["frobnicate", "m.json"]) == (2, "", (
            "error: Usage: effpcm: argument command: invalid choice: 'frobnicate' (choose from "
            "'validate', 'check', 'classify', 'rearrange', 'vertices', 'member', 'export', 'sample')\n"))

    def test_extra_arguments_are_one_error_line(self):
        """The command's parser reads the line, and the top-level parser reports what is left."""
        assert _run(["check", "m.json", "--weights", "w.json", "extra"]) == (
            2, "", "error: Usage: effpcm: unrecognized arguments: extra\n")

    def test_rejection_is_one_error_line(self, capsys):
        assert main(["sample", "--seed", "1", "--trials", "x", "--class", "triple"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: Usage: effpcm sample: argument --trials: invalid int value: 'x'\n"
        )


def _run(argv):
    """Exit code, stdout and stderr of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as stop:
            rc = stop.code
    return rc, out.getvalue(), err.getvalue()


class TestSharedParser:
    def test_one_parser_serves_every_call(self, matrix_file, tmp_path):
        """A rejection and ``--help`` leave the shared tree as they found it."""
        wfile = write_weights(tmp_path / "w.json", ["7/20", "2/5", "1/5", "1/20"])
        check = ["check", matrix_file, "--weights", wfile, "--json"]
        build_parser.cache_clear()
        command_parser.cache_clear()
        first = _run(check)
        assert first[0] == 0 and first[2] == ""
        rc, out, err = _run(["sample", "--seed", "1", "--trials", "x", "--class", "triple"])
        assert (rc, out) == (2, "")
        assert err.startswith("error: Usage:") and err.count("\n") == 1
        rc, out, err = _run(["--help"])
        assert rc == 0 and "usage:" in out
        assert _run(check) == first
        assert _run(check) == first
        # the tree only for --help; each command's parser once, then reused
        assert (build_parser.cache_info().misses, build_parser.cache_info().hits) == (1, 0)
        assert (command_parser.cache_info().misses, command_parser.cache_info().hits) == (2, 2)


@pytest.mark.parametrize("argv", [
    pytest.param(["validate", "a\x00b"], id="validate"),
    pytest.param(["check", "MATRIX", "--weights", "w\x00.json"], id="check-weights"),
    pytest.param(["export", "MATRIX", "-o", "x\x00y"], id="export-json"),
    pytest.param(["export", "MATRIX", "-o", "x\x00y", "--format", "obj"], id="export-obj"),
    pytest.param(["sample", "--seed", "1", "--trials", "1", "--class", "triple", "-o", "a\x00"],
                 id="sample"),
])
def test_a_path_with_a_nul_byte_is_a_file_error(matrix_file, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    rc, out, err = _run([matrix_file if part == "MATRIX" else part for part in argv])
    assert (rc, out) == (2, "")
    assert err.startswith("error: FileError: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == before


# Command lines that main parses with one parser; the argparse tree is the reference.
_PARSE_CORPUS = [
    # every command with valid flags, in both orders, with --opt=value and abbreviations
    ["validate", "m.json"],
    ["check", "m.json", "--weights", "w.json"],
    ["check", "--json", "--weights", "w.json", "m.json"],
    ["check", "m.json", "--weights=w.json", "--js"],
    ["check", "m.json", "--weigh", "w.json"],
    ["classify", "m.json"],
    ["rearrange", "m.json", "--mode", "triads"],
    ["rearrange", "--mode=cycles", "m.json"],
    ["rearrange", "m.json", "--mo", "triads"],
    ["vertices", "m.json"],
    ["member", "m.json", "--weights", "w.json"],
    ["member", "--weigh=w.json", "m.json"],
    ["export", "m.json", "-o", "g.json"],
    ["export", "--format", "obj", "-o", "g.obj", "m.json"],
    ["export", "m.json", "--output=g.json", "--format=json"],
    ["export", "m.json", "-og.obj", "--form", "obj"],
    ["sample", "--seed", "1", "--trials", "2", "--class", "triple"],
    ["sample", "-o", "r.json", "--class", "simple", "--trials", "3", "--seed", "-4"],
    ["sample", "--seed=1", "--trials=2", "--class=consistent", "--output=r.json"],
    ["sample", "--se", "1", "--tr", "2", "--cl", "double-triad"],
    # --
    ["validate", "--", "m.json"],
    ["validate", "--", "--json"],
    ["check", "--weights", "w.json", "--", "m.json"],
    ["check", "m.json", "--weights", "w.json", "--", "extra"],
    ["--", "validate", "m.json"],
    # rejected by the command's parser
    ["validate"],
    ["check", "m.json"],
    ["check", "m.json", "--weights"],
    ["member", "--weights", "w.json"],
    ["export", "m.json"],
    ["sample", "--seed", "1", "--trials", "2"],
    ["rearrange", "m.json", "--mode", "spiral"],
    ["export", "m.json", "-o", "g.svg", "--format", "svg"],
    ["sample", "--seed", "1", "--trials", "2", "--class", "quadruple"],
    ["sample", "--seed", "1", "--trials", "x", "--class", "triple"],
    ["sample", "--seed", "1.5", "--trials", "2", "--class", "triple"],
    # extra arguments
    ["validate", "m.json", "extra"],
    ["check", "m.json", "--weights", "w.json", "extra", "--bogus"],
    ["classify", "m.json", "--json"],
    ["vertices", "m.json", "--bogus=1", "-x"],
    ["sample", "--seed", "1", "--trials", "2", "--class", "triple", "r.json"],
    # help after a command
    ["check", "-h"],
    ["sample", "--help"],
    ["validate", "m.json", "--help"],
    ["export", "--he"],
    # lines only the top-level parser reads
    ["frobnicate", "m.json"],
    ["Check", "m.json"],
    [],
    ["--help"],
    ["-h", "check"],
    ["--json", "check", "m.json"],
    ["--version"],
]


@pytest.fixture
def parsed():
    """The namespaces ``main`` hands to a command: on a fresh tree, every
    command records its namespace instead of running."""
    namespaces = []

    def record(args):
        namespaces.append(vars(args))
        return "", 0

    build_parser.cache_clear()
    command_parser.cache_clear()
    for name, command in build_parser().commands.items():
        command.set_defaults(func=record)
        command_parser(name).set_defaults(func=record)
    yield namespaces
    build_parser.cache_clear()
    command_parser.cache_clear()


class TestOnePass:
    @pytest.mark.parametrize("argv", _PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "empty")
    def test_same_outcome_as_the_argparse_tree(self, parsed, argv):
        """A namespace, the same error line, or the same exit code and stdout."""
        help_text = io.StringIO()
        try:
            with redirect_stdout(help_text):
                expected = vars(build_parser().parse_args(argv))
        except UsageError as exc:
            expected = f"error: {exc}\n"
        except SystemExit as stop:
            expected = (stop.code, help_text.getvalue())
        rc, out, err = _run(argv)
        if parsed:
            assert (rc, parsed) == (0, [expected])
        else:
            assert (err if rc == 2 else (rc, out)) == expected

    def test_a_command_line_is_parsed_once(self, parsed, monkeypatch):
        """By its command's own parser alone; the tree and its subparsers read none."""
        parser = build_parser()
        calls = []
        spied = [("effpcm", parser), *((f"tree {name}", each) for name, each in parser.commands.items()),
                 *((name, command_parser(name)) for name in parser.commands)]
        for name, each in spied:
            def spy(*args, name=name, real=each.parse_known_args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(each, "parse_known_args", spy)
        for name in parser.commands:
            calls.clear()
            assert _run(next(argv for argv in _PARSE_CORPUS if argv and argv[0] == name))[0] == 0
            assert calls == [name]
        for argv in (["--help"], ["frobnicate", "m.json"]):
            calls.clear()
            assert _run(argv)[0] in (0, 2)
            assert calls == ["effpcm"]


_CELLS = st.one_of(
    st.sampled_from(["1", "2", "1/2", "5", "1/5", "0.25", "4", "0", "-1", "1/0", "x", "", " 3 ",
                     "1e3", ".5", "1_000", "\u0661/\u0662", "\uff11", "\u0663.\u0665",
                     "\u30001\u3000"]),
    st.integers(-2, 9),
    st.just(10**400),  # past the float range
    st.floats(),
    st.booleans(),
    st.none(),
)
_RANDOM_DOCUMENTS = st.one_of(
    st.binary(max_size=64),
    st.fixed_dictionaries({}, optional={
        "n": st.integers(0, 5),
        "entries": st.lists(st.lists(_CELLS, max_size=5), max_size=5),
        "w": st.lists(_CELLS, max_size=5),
    }).map(lambda doc: json.dumps(doc).encode()),
)
_MATRIX_DOCUMENTS = st.one_of(
    random_pcm4.map(lambda pcm: {"n": 4, "entries": pcm.rows_as_strings()}),
    st.sampled_from([
        {"n": 4, "entries": RUNNING_ROWS},
        {"n": 4, "entries": [["1"] * 4] * 4},
        {"n": 4, "entries": HUGE_ENTRY_ROWS},
        {"n": 2, "entries": [["1", "3"], ["1/3", "1"]]},
    ]),
).map(lambda doc: json.dumps(doc).encode())
_WEIGHT_DOCUMENTS = st.one_of(
    st.lists(st.integers(1, 50), min_size=4, max_size=4).map(lambda w: [str(c) for c in w]),
    st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    st.sampled_from([["7/20", "2/5", "1/5", "1/20"], [0.35, 0.4, 0.2, 0.05]]),
).map(lambda w: json.dumps({"w": w}).encode())


COMMANDS = ("validate", "check", "classify", "rearrange", "vertices", "member", "export", "sample")
_WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12).filter(
    lambda word: not word.startswith("-"))


@st.composite
def _rejected_argv(draw):
    """An argv argparse itself rejects: a non-integer --trials, an unknown
    --class, a missing required option or argument, or an unknown command."""
    kind = draw(st.sampled_from(["trials", "class", "missing", "command"]))
    if kind == "command":
        return [draw(_WORDS.filter(lambda word: word not in COMMANDS)), "a.json"]
    options = {
        "--seed": str(draw(st.integers(0, 99))),
        "--trials": str(draw(st.integers(1, 3))),
        "--class": draw(st.sampled_from(CLASS_CHOICES)),
    }
    if kind == "trials":
        options["--trials"] = draw(st.one_of(
            st.sampled_from(["x", "1.5", "", "1e3", "two", "0x10"]), _WORDS))
    elif kind == "class":
        options["--class"] = draw(_WORDS.filter(lambda word: word not in CLASS_CHOICES))
    else:
        dropped = draw(st.sampled_from([*options, "--weights", "-o", "matrix"]))
        if dropped == "matrix":
            return [draw(st.sampled_from(COMMANDS[:-1]))]
        if dropped == "--weights":
            return [draw(st.sampled_from(["check", "member"])), "a.json"]
        if dropped == "-o":
            return ["export", "a.json"]
        del options[dropped]
    return ["sample", *(part for pair in options.items() for part in pair)]


@st.composite
def _invocations(draw):
    """An argv, naming a matrix-like document a.json, a weights-like document
    b.json, or an absent file or a directory, and the bytes of the two
    documents, each valid or random; the third item says whether the argv is
    one argparse rejects.  Most argv are ones the CLI grammar accepts."""
    docs = [draw(st.one_of(_MATRIX_DOCUMENTS, _RANDOM_DOCUMENTS)),
            draw(st.one_of(_WEIGHT_DOCUMENTS, _RANDOM_DOCUMENTS))]
    if draw(st.integers(0, 4)) == 0:
        return draw(_rejected_argv()), docs, True
    other = st.sampled_from(["a.json", "b.json", "missing.json", "."])
    command = draw(st.sampled_from(COMMANDS))
    if command == "sample":
        argv = ["sample", "--seed", str(draw(st.integers(0, 2**32))),
                "--trials", str(draw(st.integers(-1, 2))),
                "--class", draw(st.sampled_from(CLASS_CHOICES))]
        if draw(st.booleans()):
            argv += ["-o", draw(st.sampled_from(["out.json", "missing/out.json"]))]
        return argv, docs, False
    argv = [command, draw(st.one_of(st.just("a.json"), other))]
    if command in ("check", "member"):
        argv += ["--weights", draw(st.one_of(st.just("b.json"), other))]
    if command == "check" and draw(st.booleans()):
        argv.append("--json")
    if command == "rearrange" and draw(st.booleans()):
        argv += ["--mode", draw(st.sampled_from(["cycles", "triads"]))]
    if command == "export":
        argv += ["-o", draw(st.sampled_from(["out.json", "missing/out.obj", "."]))]
        if draw(st.booleans()):
            argv += ["--format", draw(st.sampled_from(["json", "obj"]))]
    return argv, docs, False


class TestFuzz:
    """Exit 0 or 1 is a result, exit 2 one error line; nothing else ever escapes."""

    @settings(max_examples=150, deadline=None)
    @given(_invocations())
    @example((["validate", "missing.json"], [b"{}", b"{}"], False))
    @example((["export", "a.json", "-o", "."], [json.dumps({"entries": RUNNING_ROWS}).encode(), b"{}"], False))
    def test_exit_code_contract(self, tmp_path_factory, invocation):
        argv, docs, rejected = invocation
        workdir = tmp_path_factory.mktemp("fuzz")
        for name, content in zip(("a.json", "b.json"), docs):
            (workdir / name).write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(argv)
        finally:
            os.chdir(cwd)
        assert rc in (0, 1, 2)
        if rejected:
            assert rc == 2
        if rc == 1:  # only a semantic negative: an inefficient verdict or a sampler disagreement
            assert argv[0] in ("check", "member", "sample") and err.getvalue() == ""
        if rc == 2:
            assert out.getvalue() == ""
            assert re.match(r"error: [A-Z][A-Za-z]*[:( ]", err.getvalue())
            assert err.getvalue().count("\n") == 1
