"""The four workloads: corpus, operations and output checks.

Every input comes from the frozen pool in ``data/pool.json``; ``--seed``
selects and orders a subset of it, so each op has a golden digest recorded
in ``data/golden.json`` at the commit that introduced the benchmark.  The
malformed documents have no golden digest: their expected outcome is the
CLI contract itself (exit 2, an ``error:`` line on stderr, no traceback).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import traceback
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI_CHILD = HERE / "cli_child.py"
CLASSES = ("triple", "double-triad", "double-one-cycle", "double-two-cycles",
           "simple", "consistent")
# Classes without a consistent triad: the only ones triad_rearrangement accepts.
NO_TRIAD_CLASSES = ("triple", "double-one-cycle", "double-two-cycles")
SAMPLE_TRIALS = 20
TRIALS_PER_CLASS = 200  # sampler trials per class in one round

Op = namedtuple("Op", "key argv malformed")
Outcome = namedtuple("Outcome", "rc stdout stderr crashed extra")

# The README's input errors plus the robustness probes of ROADMAP item 4.
MALFORMED = {
    "bad-numeral": json.dumps({"n": 2, "entries": [["1", "two"], ["1/2", "1"]]}),
    "non-reciprocal": json.dumps({"n": 2, "entries": [["1", "3"], ["1/2", "1"]]}),
    "non-square": json.dumps({"n": 2, "entries": [["1", "2"], ["1/2"]]}),
    "invalid-json": '{"n": 4, "entries": [["1", "2"]',
    "non-utf8": b'{"n": 2, "entries": [["1", "\xff\xfe"], ["1", "1"]]}',
    "deep-nesting": "[" * 50_000 + "]" * 50_000,
    "missing": None,  # never written
}
MALFORMED_COMMANDS = (
    ("validate", "{m}"),
    ("check", "{m}", "--weights", "ok.wx.json"),
    ("classify", "{m}"),
    ("rearrange", "{m}", "--mode", "cycles"),
    ("vertices", "{m}"),
    ("member", "{m}", "--weights", "ok.wx.json"),
)
OK_WEIGHTS = {"w": ["1/4", "1/4", "1/4", "1/4"]}


def load_json(name: str):
    return json.loads((HERE / "data" / name).read_text(encoding="utf-8"))


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()[:20]


def outcome_digest(op: Op, outcome: Outcome) -> str:
    stdout = outcome.stdout
    if op.argv[0] == "sample" and outcome.rc in (0, 1):
        report = json.loads(stdout)
        report.pop("elapsed")  # wall clock
        stdout = json.dumps(report, sort_keys=True)
    return digest(str(outcome.rc), stdout, outcome.extra or b"")


def _stratified(items, per_stratum: int, rng: random.Random):
    """``per_stratum`` items from every (class, half) stratum, in pool order."""
    strata: dict = {}
    for item in items:
        strata.setdefault((item["class"], item["half"]), []).append(item)
    chosen = []
    for key in sorted(strata):
        chosen.extend(rng.sample(strata[key], per_stratum))
    return chosen


def write_corpus(workdir: Path, matrices) -> None:
    for item in matrices:
        doc = {"n": len(item["entries"]), "entries": item["entries"]}
        (workdir / f"{item['id']}.json").write_text(json.dumps(doc), encoding="utf-8")
        for suffix, key in (("wx", "w_exact"), ("wf", "w_float")):
            (workdir / f"{item['id']}.{suffix}.json").write_text(
                json.dumps({"w": item[key]}), encoding="utf-8")


def write_malformed(workdir: Path) -> None:
    (workdir / "ok.wx.json").write_text(json.dumps(OK_WEIGHTS), encoding="utf-8")
    for kind, content in MALFORMED.items():
        path = workdir / f"bad-{kind}.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content, encoding="utf-8")


def matrix_commands(item) -> list[Op]:
    """Every command and flag variant the analyze workload runs on one pool matrix."""
    m, wx, wf = (f"{item['id']}.json", f"{item['id']}.wx.json", f"{item['id']}.wf.json")
    argvs = [["validate", m], ["check", m, "--weights", wx], ["check", m, "--weights", wf]]
    if len(item["entries"]) == 4:
        argvs += [
            ["check", m, "--weights", wx, "--json"],
            ["classify", m],
            ["rearrange", m, "--mode", "cycles"],
            ["vertices", m],
            ["member", m, "--weights", wx],
        ]
        if item["class"] in NO_TRIAD_CLASSES:
            argvs.append(["rearrange", m, "--mode", "triads"])
    return [Op(" ".join(argv), argv, False) for argv in argvs]


def cli_commands(item, k: int) -> list[Op]:
    """Each matrix command once on reference matrix k; flag variants rotate with k."""
    m, wx, wf = (f"{item['id']}.json", f"{item['id']}.wx.json", f"{item['id']}.wf.json")
    triads = k % 2 == 0 and item["class"] in NO_TRIAD_CLASSES
    argvs = [
        ["validate", m],
        [["check", m, "--weights", wx], ["check", m, "--weights", wf],
         ["check", m, "--weights", wx, "--json"]][k % 3],
        ["classify", m],
        ["rearrange", m, "--mode", "triads" if triads else "cycles"],
        ["vertices", m],
        ["member", m, "--weights", wx],
        ["export", m, "-o", f"{item['id']}.out.json"] if k % 2 == 0
        else ["export", m, "-o", f"{item['id']}.out.obj", "--format", "obj"],
    ]
    return [Op(" ".join(argv), argv, False) for argv in argvs]


def sample_command(cls: str, seed: int) -> Op:
    argv = ["sample", "--seed", str(seed), "--trials", str(SAMPLE_TRIALS), "--class", cls]
    return Op(" ".join(argv), argv, False)


def malformed_commands(cli: bool) -> list[Op]:
    ops = []
    kinds = list(MALFORMED)
    if cli:  # one command per document, cycling through the commands
        pairs = [(kind, MALFORMED_COMMANDS[k % len(MALFORMED_COMMANDS)])
                 for k, kind in enumerate(kinds)]
    else:
        pairs = [(kind, cmd) for kind in kinds for cmd in MALFORMED_COMMANDS]
    for kind, template in pairs:
        argv = [part.format(m=f"bad-{kind}.json") for part in template]
        ops.append(Op(" ".join(argv), argv, True))
    if cli:
        argv = ["sample", "--seed", "1", "--trials", "0", "--class", "triple"]
        ops.append(Op(" ".join(argv), argv, True))
    return ops


def run_in_process(cli_module, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    crashed = False
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli_module.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaped exception is the traceback a user would see
            crashed = True
            rc = 1
            traceback.print_exc()
    return Outcome(rc, out.getvalue(), err.getvalue(), crashed, None)


def subprocess_env(extra: dict | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("EFFPCM_TOL", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


def run_subprocess(argv, workdir: Path, span_file: Path | None = None) -> Outcome:
    """One CLI process from spawn to exit; traced through cli_child.py when span_file is set."""
    if span_file is None:
        command = [sys.executable, "-m", "effpcm.cli", *argv]
        env = subprocess_env()
    else:
        command = [sys.executable, str(CLI_CHILD), *argv]
        env = subprocess_env({"PERFBENCH_SPANS": str(span_file)})
    proc = subprocess.run(command, cwd=workdir, env=env, capture_output=True,
                          text=True, encoding="utf-8", errors="replace", timeout=120)
    extra = None
    if argv[0] == "export" and proc.returncode == 0:
        extra = (workdir / argv[3]).read_bytes()
    return Outcome(proc.returncode, proc.stdout, proc.stderr,
                   "Traceback (most recent call last)" in proc.stderr, extra)


class CommandCheck:
    """Golden digests for well-formed commands, the CLI contract for malformed ones."""

    def __init__(self, golden: dict):
        self.golden = golden

    def __call__(self, op: Op, outcome: Outcome) -> bool:
        if outcome.crashed:
            return False
        if op.malformed:
            return (outcome.rc == 2 and outcome.stdout == ""
                    and outcome.stderr.startswith("error:"))
        try:
            return outcome_digest(op, outcome) == self.golden[op.key]
        except (ValueError, KeyError):
            return False


class Sampler:
    """run_equivalence_trials, one trial per call, round-robin over the six classes."""

    name = "sampler"

    def __init__(self, seed: int, workdir: Path):
        import effpcm.sampling

        self.sampling = effpcm.sampling
        rng = random.Random(seed)
        self.ops = []
        for _ in range(TRIALS_PER_CLASS):
            for cls in CLASSES:
                trial_seed = rng.randrange(2**32)
                self.ops.append(Op(f"{cls}#{trial_seed}", (trial_seed, cls), False))
        self.warmup = self.ops[0]

    def run(self, op: Op):
        trial_seed, cls = op.argv
        return self.sampling.run_equivalence_trials(trial_seed, 1, cls)

    def check(self, op: Op, report) -> bool:
        return report.agreements == report.trials == 1 and not report.disagreements

    def out_bytes(self, report) -> int:
        return 0


class Export:
    """load_matrix -> geometry_document -> json.dumps, then obj_mesh, per matrix."""

    name = "export"

    def __init__(self, seed: int, workdir: Path):
        import effpcm.export

        self.export = effpcm.export
        pool = load_json("pool.json")
        self.golden = load_json("golden.json")["export"]
        rng = random.Random(seed)
        matrices = pool["reference"] + _stratified(pool["n4"], 5, rng)
        rng.shuffle(matrices)
        write_corpus(workdir, matrices)
        self.ops = [Op(item["id"], str(workdir / f"{item['id']}.json"), False)
                    for item in matrices]
        # The same warm-up op for every seed: ops cost 20 to 120 ms here.
        self.warmup = next(op for op in self.ops if op.key == pool["reference"][0]["id"])

    def run(self, op: Op):
        pcm = self.export.load_matrix(op.argv)
        text = json.dumps(self.export.geometry_document(pcm), indent=2)
        return text, self.export.obj_mesh(pcm)

    def check(self, op: Op, outputs) -> bool:
        return digest(*outputs) == self.golden[op.key]

    def out_bytes(self, outputs) -> int:
        return sum(len(text) for text in outputs)


class Analyze:
    """In-process ``effpcm.cli.main(argv)`` over matrix and weight documents."""

    name = "analyze"

    def __init__(self, seed: int, workdir: Path):
        import effpcm.cli

        self.cli = effpcm.cli
        pool = load_json("pool.json")
        self.check = CommandCheck(load_json("golden.json")["commands"])
        rng = random.Random(seed)
        matrices = _stratified(pool["n4"], 3, rng)
        by_n: dict = {}
        for item in pool["nbig"]:
            by_n.setdefault(len(item["entries"]), []).append(item)
        matrices += [rng.choice(by_n[n]) for n in sorted(by_n)]
        write_corpus(workdir, matrices)
        write_malformed(workdir)
        self.ops = [op for item in matrices for op in matrix_commands(item)]
        self.ops += malformed_commands(cli=False)
        rng.shuffle(self.ops)
        self.warmup = self.ops[0]
        os.chdir(workdir)  # documents are named relative to the corpus directory

    def run(self, op: Op) -> Outcome:
        return run_in_process(self.cli, op.argv)

    def out_bytes(self, outcome: Outcome) -> int:
        return len(outcome.stdout)


class Cli:
    """One ``python -m effpcm.cli`` subprocess at a time, spawn to exit."""

    name = "cli"

    def __init__(self, seed: int, workdir: Path):
        pool = load_json("pool.json")
        self.check = CommandCheck(load_json("golden.json")["commands"])
        self.workdir = workdir
        rng = random.Random(seed)
        write_corpus(workdir, pool["reference"])
        write_malformed(workdir)
        self.ops = [op for k, item in enumerate(pool["reference"]) for op in cli_commands(item, k)]
        # The same warm-up op for every seed, as the commands' costs differ.
        self.warmup = self.ops[0]
        self.ops += [sample_command(cls, rng.choice(pool["sample_seeds"])) for cls in CLASSES]
        self.ops += malformed_commands(cli=True)
        rng.shuffle(self.ops)
        self.span_file = workdir / "spans.json"
        self.traced = False
        self.child_summaries: list[dict] = []

    def run(self, op: Op) -> Outcome:
        if not self.traced:
            return run_subprocess(op.argv, self.workdir)
        outcome = run_subprocess(op.argv, self.workdir, self.span_file)
        self.child_summaries.append(json.loads(self.span_file.read_text(encoding="utf-8")))
        return outcome

    def out_bytes(self, outcome: Outcome) -> int:
        return len(outcome.stdout) + len(outcome.extra or b"")


WORKLOADS = {cls.name: cls for cls in (Sampler, Export, Analyze, Cli)}
