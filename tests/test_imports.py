"""What each entry point loads.  The package root resolves its exports from
one table on access, so importing it loads no submodule, and each CLI command
loads only the modules its route runs.  Every check runs in a fresh
interpreter, since this process has loaded everything."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import debell

SRC = Path(debell.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"


def _fresh(code: str):
    """Run ``code`` in a new interpreter that imports debell from SRC, and
    return the JSON value on the last line it prints.  Only ``sys`` is imported
    for it, so ``code`` imports json itself once its probe has looked."""
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
    done = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


LOADED = ("import json\n"
          "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'debell')))")


def test_root_loads_no_submodule():
    assert _fresh("import debell\n" + LOADED) == ["debell"]


def test_one_module_loads_only_itself():
    assert _fresh("import debell.exact\n" + LOADED) == ["debell", "debell.exact"]


_CLI = ("debell", "debell.cli", "debell.exact")
_BELL = (*_CLI, "debell.series", "debell.stirling", "debell.derangements", "debell.bell")

# The debell modules a process running each command loads: those its route runs, and no other.
COMMAND_MODULES = {
    "--version": _CLI,
    "--help": _CLI,
    "enumerate --help": _CLI,  # --family's choices are declared without enumeration
    "bell --help": _CLI,
    "stirling --n 5 --k 3": (*_CLI, "debell.series", "debell.stirling"),
    "stirling --n 5 --k 3 --route egf": (*_CLI, "debell.series", "debell.stirling"),
    "rderange --k 2 --r 2": (*_CLI, "debell.series", "debell.derangements"),
    "rderange --k 6 --r 2 --s 1": (*_CLI, "debell.series", "debell.derangements"),
    **{f"bell --n 3 --route {route}": _BELL
       for route in ("egf", "lambda1", "closed", "convolution", "classic")},
    "omega --n 3": _BELL,
    "table --max-n 8": _BELL,
    "enumerate --family barred --n 2": (*_CLI, "debell.enumeration"),
    "asymp --n 4 --delta 100": (*_BELL, "debell.asymptotics"),
    "verify --claims T5 --max-n 1": (*_BELL, "debell.asymptotics", "debell.verify"),
}


def _run_command(args: str, probe: str):
    """``probe``'s JSON value after a fresh interpreter runs ``debell args``."""
    return _fresh(f"from debell import cli\ncli.main({args.split()!r}, standalone_mode=False)\n"
                  + probe)


@pytest.mark.parametrize("args", list(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_its_route_runs(args):
    assert _run_command(args, LOADED) == sorted(COMMAND_MODULES[args])


def test_only_a_command_that_writes_csv_loads_the_csv_module():
    probe = "import json\nprint(json.dumps('csv' in sys.modules))"
    plain = _run_command("omega --n 3", probe)
    csv = _run_command("omega --n 3 --format csv", probe)
    assert (plain, csv) == (False, True)


def test_only_a_command_that_writes_json_loads_the_json_module():
    probe = "had = 'json' in sys.modules\nimport json\nprint(json.dumps(had))"
    plain = _run_command("omega --n 3", probe)
    as_json = _run_command("omega --n 3 --format json", probe)
    assert (plain, as_json) == (False, True)


def test_exports_are_the_readme_tour_imports_and_binpow():
    tour = README.read_text().split("## Library quick tour", 1)[1].split("```python\n", 1)[1]
    tour = tour.split("```", 1)[0]
    imported = {
        alias.name
        for node in ast.parse(tour).body
        if isinstance(node, ast.ImportFrom) and node.module == "debell"
        for alias in node.names
    }
    assert debell.__all__ == sorted(imported | {"binpow"})


def test_every_export_resolves_to_its_module_object():
    code = (
        "import debell, importlib, json\n"
        "same = {name: getattr(debell, name) is getattr(importlib.import_module(\n"
        "    getattr(debell, name).__module__), name) for name in debell.__all__}\n"
        "cached = sorted(set(debell.__all__) & set(vars(debell)))\n"
        "print(json.dumps([same, cached]))"
    )
    same, cached = _fresh(code)
    assert sorted(same) == debell.__all__ and all(same.values())
    assert cached == []  # resolved on every access, never bound in the root


def test_unknown_name_raises_attribute_error():
    code = (
        "import debell\n"
        "try:\n"
        "    debell.omega_egf\n"
        "except AttributeError as exc:\n"
        "    raised = str(exc)\n"
        "from debell import bell\n"
        "import json\n"
        "print(json.dumps([raised, bell.__name__]))"
    )
    raised, submodule = _fresh(code)
    assert raised == "module 'debell' has no attribute 'omega_egf'"
    assert submodule == "debell.bell"  # a module name still imports the submodule
