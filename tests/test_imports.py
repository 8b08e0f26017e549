"""What each entry point loads.  The package root resolves its exports from
one table on access, so importing it loads no submodule, and a scalar CLI
command never loads the claim harness or the asymptotics toolkit.  Every
check runs in a fresh interpreter, since this process has loaded everything."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import debell

SRC = Path(debell.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"


def _fresh(code: str):
    """Run ``code`` in a new interpreter that imports debell from SRC, and
    return the JSON value on the last line it prints."""
    prelude = f"import json, sys; sys.path.insert(0, {str(SRC)!r})\n"
    done = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'debell')))"


def test_root_loads_no_submodule():
    assert _fresh("import debell\n" + LOADED) == ["debell"]


def test_one_module_loads_only_itself():
    assert _fresh("import debell.exact\n" + LOADED) == ["debell", "debell.exact"]


def test_scalar_command_loads_neither_verify_nor_asymptotics():
    loaded = _fresh('from debell import cli\ncli.main(["omega", "--n", "3"], standalone_mode=False)\n'
                    + LOADED)
    assert "debell.verify" not in loaded and "debell.asymptotics" not in loaded
    assert loaded == sorted(
        ["debell", "debell.cli", "debell.exact", "debell.series", "debell.stirling",
         "debell.derangements", "debell.bell", "debell.enumeration"]
    )


def test_only_a_command_that_writes_csv_loads_the_csv_module():
    run = ("from debell import cli\ncli.main({}, standalone_mode=False)\n"
           "print(json.dumps('csv' in sys.modules))")
    plain = _fresh(run.format('["omega", "--n", "3"]'))
    csv = _fresh(run.format('["omega", "--n", "3", "--format", "csv"]'))
    assert (plain, csv) == (False, True)

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
        "import debell, importlib\n"
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
        "print(json.dumps([raised, bell.__name__]))"
    )
    raised, submodule = _fresh(code)
    assert raised == "module 'debell' has no attribute 'omega_egf'"
    assert submodule == "debell.bell"  # a module name still imports the submodule
