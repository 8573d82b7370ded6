"""Every name a package module imports is used in that module, and a process
loads only the modules its command runs.

The package root re-exports its names lazily, so it is left out of the first
check; the second runs the CLI in a child interpreter and lists what it loaded.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import effpcm
from conftest import RUNNING_ROWS

PACKAGE = Path(effpcm.__file__).resolve().parent


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert _unused_imports(tree) == set()


def _environment_names(tree: ast.Module) -> set[str]:
    """Which of ``os``, ``environ`` and ``getenv`` the module names: as a name, an
    attribute, or an imported module or name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            names |= {name.split(".")[0] for name in modules}
    return names & {"os", "environ", "getenv"}


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "cli"))
def test_only_the_cli_reads_the_environment(module):
    """The float band is an argument of the library, and ``EFFPCM_TOL`` a setting of
    the console alone: no other module reads the environment or imports ``os``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert _environment_names(tree) == set()


ROOT_NAMES = {
    "efficiency": ["bcc_digraph", "is_efficient", "strongly_connected"],
    "errors": ["InputError"],
    "export": ["dump_json", "geometry_document", "load_matrix", "load_weights",
               "matrix_document", "obj_mesh"],
    "generators": ["generate_pcm"],
    "geometry": ["PerturbTag", "barycentric", "canonical_rearrangement", "classify",
                 "contains_cycle_region", "efficient_set", "embed", "tetrahedron_for_cycle",
                 "triad_rearrangement"],
    "pcm": ["CANONICAL_CYCLES", "cycle_product", "format_rational", "parse_pcm",
            "pcm_from_upper", "triad_product", "weight_vector"],
    "sampling": ["run_equivalence_trials"],
}


def test_the_root_names_are_their_modules_objects():
    names = sorted(name for names in ROOT_NAMES.values() for name in names)
    assert len(names) == 28
    assert sorted(effpcm.__all__) == names
    assert set(names) <= set(dir(effpcm))
    for module, module_names in ROOT_NAMES.items():
        for name in module_names:
            assert getattr(effpcm, name) is getattr(importlib.import_module(f"effpcm.{module}"), name)
    with pytest.raises(AttributeError, match="no attribute 'affine_rank'"):
        effpcm.affine_rank  # a geometry name the root does not export


# Runs in a fresh interpreter: the effpcm modules loaded by ``import effpcm``,
# then after each command in turn (they accumulate).
_PROBE = """
import json, sys
def loaded():
    return sorted(name for name in sys.modules if name.startswith("effpcm."))
steps = {}
import effpcm
steps["import effpcm"] = loaded()
import effpcm.cli
for argv in (["validate", "m.json"], ["check", "m.json", "--weights", "w.json"], ["classify", "m.json"]):
    assert effpcm.cli.main(argv) in (0, 1)
    steps[argv[0]] = loaded()
print(json.dumps(steps))
"""


def test_a_command_loads_only_what_it_runs(tmp_path):
    (tmp_path / "m.json").write_text(json.dumps({"n": 4, "entries": RUNNING_ROWS}), encoding="utf-8")
    (tmp_path / "w.json").write_text(json.dumps({"w": ["7/20", "2/5", "1/5", "1/20"]}), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert steps["import effpcm"] == []
    document_only = {"effpcm.cli", "effpcm.errors", "effpcm.export", "effpcm.pcm"}
    assert set(steps["validate"]) == document_only
    assert set(steps["check"]) == document_only | {"effpcm.efficiency"}
    assert set(steps["classify"]) == document_only | {"effpcm.efficiency", "effpcm.geometry",
                                                      "effpcm.trees"}
