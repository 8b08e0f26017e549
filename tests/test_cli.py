import ast
import dataclasses
import hashlib
import importlib
import inspect
import json
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner

import debell
from debell import verify
from debell.cli import main
from debell.exact import ParamSet

README = Path(__file__).resolve().parents[1] / "README.md"

# stdout of every example in README "Command line", pinned byte for byte.
README_EXAMPLES = {
    "debell stirling --n 5 --k 3 --alpha 0 --beta 1 --gamma 0": "25\n",
    "debell rderange --k 2 --r 2": "2\n",
    "debell rderange --k 6 --r 2 --s 1": "5430\n",
    "debell bell --n 3 --lambda 1 --x 1 --alpha 0 --beta 1 --gamma 0": "5\n",
    "debell omega --n 3": "13\n",
    "debell enumerate --family r-deranged-partitions --n 3 --r 0": "5\n",
    "debell enumerate --family barred --n 2 --lambda 2 --list":
        "|{1,2}\n{1,2}|\n|{1}{2}\n{1}|{2}\n{1}{2}|\n|{2}{1}\n{2}|{1}\n{2}{1}|\n",
    "debell table --max-n 8 --gamma 1":
        "n,value\n0,1\n1,1\n2,2\n3,9\n4,55\n5,400\n6,3451\n7,34797\n8,401556\n",
    "debell asymp --n 4 --m 2 --delta 100 --delta 1000 --gamma 1":
        "delta,estimate,exact,rel_error,status\n100,4426125,26558125/6,1/19315,ok\n"
        "1000,41917623750,125752878125/3,11/201204605,ok\n",
    # 510,109 bytes of markdown, pinned by digest
    "debell verify --claims T5,EQ40-power --format markdown":
        "sha256:f2c7b1f71d3a38fa1ff8a932c646332e8605bd7cf984b943f9ae4143c1bbd041",
}


def invoke(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


class TestScalarCommands:
    def test_stirling_example(self):
        result = invoke("stirling", "--n", "5", "--k", "3", "--alpha", "0", "--beta", "1", "--gamma", "0")
        assert result.exit_code == 0
        assert result.output == "25\n"

    def test_stirling_egf_route_agrees(self):
        plain = invoke("stirling", "--n", "6", "--k", "2", "--alpha", "1", "--beta", "2", "--gamma", "2")
        egf = invoke("stirling", "--n", "6", "--k", "2", "--alpha", "1", "--beta", "2",
                     "--gamma", "2", "--route", "egf")
        assert plain.output == egf.output

    def test_rderange_example(self):
        result = invoke("rderange", "--k", "2", "--r", "2")
        assert result.exit_code == 0
        assert result.output == "2\n"

    def test_rderange_recurrence_route(self):
        result = invoke("rderange", "--k", "5", "--r", "2", "--s", "1")
        assert result.output == invoke("rderange", "--k", "5", "--r", "2").output

    @pytest.mark.parametrize("r, s", [(3, 0), (2, 3), (0, 1)])
    def test_rderange_pivot_outside_range_is_usage_error(self, r, s):
        result = invoke("rderange", "--k", "5", "--r", str(r), "--s", str(s))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"1..r = 1..{r}" in result.stderr

    def test_bell_example(self):
        result = invoke(
            "bell", "--n", "3", "--r", "0", "--lambda", "1", "--x", "1",
            "--alpha", "0", "--beta", "1", "--gamma", "0",
        )
        assert result.exit_code == 0
        assert result.output == "5\n"

    def test_omega_fubini(self):
        result = invoke("omega", "--n", "3")
        assert result.output == "13\n"

    def test_rational_flags(self):
        result = invoke("stirling", "--n", "3", "--k", "1", "--alpha", "1/2", "--beta", "3/2", "--gamma", "0")
        assert result.exit_code == 0
        assert "/" in result.output or result.output.strip().lstrip("-").isdigit()

    def test_json_schema(self):
        result = invoke("bell", "--n", "4", "--gamma", "2", "--format", "json")
        doc = json.loads(result.output)
        assert set(doc) == {"command", "point", "n", "route", "value"}
        assert doc["command"] == "bell"
        assert set(doc["point"]) == {"alpha", "beta", "gamma", "x", "lam", "r"}
        assert doc["value"].lstrip("-").replace("/", "").isdigit()

    def test_identical_invocations_identical_bytes(self):
        args = ("bell", "--n", "5", "--lambda", "2", "--gamma", "2", "--format", "json")
        assert invoke(*args).output == invoke(*args).output

    def test_csv_bytes(self):
        # the point cell as the verify CSV writes it; rderange without --s has an empty s cell
        result = invoke("rderange", "--k", "3", "--r", "1", "--format", "csv")
        assert result.exit_code == 0
        assert result.stdout == (
            "command,k,point,r,s,value\n"
            "rderange,3,alpha=0;beta=1;gamma=0;x=1;lam=1;r=1,1,,9\n"
        )
        result = invoke("bell", "--n", "3", "--x", "1/3", "--format", "csv")
        assert result.stdout == (
            "command,n,point,route,value\n"
            "bell,3,alpha=0;beta=1;gamma=0;x=1/3;lam=1;r=0,egf,11/27\n"
        )


class TestVersion:
    def test_version_flag(self):
        result = invoke("--version")
        assert result.exit_code == 0
        assert result.stdout == "debell, version 0.1.0\n"

    def test_pyproject_states_the_package_version(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        pyproject = tomllib.loads((README.parent / "pyproject.toml").read_text())
        assert pyproject["project"]["version"] == debell.__version__

    def test_pyproject_console_script_is_the_cli(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        pyproject = tomllib.loads((README.parent / "pyproject.toml").read_text())
        module, _, attr = pyproject["project"]["scripts"]["debell"].partition(":")
        assert getattr(importlib.import_module(module), attr) is main


class TestEnumerateCommand:
    def test_count(self):
        result = invoke("enumerate", "--family", "set-partitions", "--n", "4", "--k", "2")
        assert result.output == "7\n"

    def test_listing(self):
        result = invoke("enumerate", "--family", "r-derangements", "--k", "2", "--r", "2", "--list")
        assert result.output.splitlines() == ["(1 3)(2 4)", "(1 4)(2 3)"]

    def test_missing_flag_is_usage_error(self):
        result = invoke("enumerate", "--family", "set-partitions", "--n", "4")
        assert result.exit_code == 2

    def test_cap_exceeded_is_computation_error(self):
        result = invoke("enumerate", "--family", "ordered", "--n", "11")
        assert result.exit_code == 1
        assert "exceeds cap" in result.stderr

    def test_env_override_lowers_cap(self):
        result = invoke(
            "enumerate", "--family", "ordered", "--n", "5", env={"DEBELL_MAX_ENUM": "3"}
        )
        assert result.exit_code == 1
        assert "exceeds cap 3" in result.stderr

    @pytest.mark.parametrize("bad", ["abc", "-1"])
    def test_malformed_env_override_is_computation_error(self, bad):
        result = invoke("enumerate", "--family", "ordered", "--n", "2", env={"DEBELL_MAX_ENUM": bad})
        assert result.exit_code == 1
        assert result.stderr == f"error: DEBELL_MAX_ENUM must be a nonnegative integer, got {bad!r}\n"

    def test_json_output(self):
        result = invoke("enumerate", "--family", "barred", "--n", "2", "--lambda", "2", "--format", "json")
        doc = json.loads(result.output)
        assert doc["count"] == 8 and doc["family"] == "barred"


class TestAsympCommand:
    def test_csv_table(self):
        result = invoke("asymp", "--n", "2", "--m", "1", "--delta", "10", "--delta", "100", "--gamma", "1")
        lines = result.output.splitlines()
        assert lines[0] == "delta,estimate,exact,rel_error,status"
        assert len(lines) == 3
        assert lines[1].startswith("10,") and lines[1].endswith(",0,ok")

    def test_json_table(self):
        result = invoke("asymp", "--n", "2", "--delta", "10", "--gamma", "1", "--format", "json")
        doc = json.loads(result.output)
        assert doc["m"] == 1  # defaults to n-1
        assert doc["rows"][0]["status"] == "ok"

    def test_bad_delta(self):
        result = invoke("asymp", "--n", "4", "--delta", "2", "--gamma", "1")
        assert result.exit_code == 1


class TestVerifyCommand:
    def test_passing_claim_exits_zero(self):
        result = invoke("verify", "--claims", "T5", "--max-n", "3")
        assert result.exit_code == 0
        assert result.output.startswith("claim,point,lhs,rhs,status,note")

    def test_recorded_discrepancies_still_exit_zero(self):
        result = invoke("verify", "--claims", "EX-B1x2", "--max-n", "3")
        assert result.exit_code == 0
        assert "UNEQUAL" in result.output

    def test_required_failures_are_listed_on_stderr(self, monkeypatch):
        registry = verify.claim_registry()
        t5 = registry["T5"]

        def evaluate(params, grid):
            rows = t5.evaluate(params, grid)
            if params == ParamSet.make(r=1):
                rows[2] = dataclasses.replace(rows[2], rhs="-1", status=verify.UNEQUAL)
            return rows

        monkeypatch.setitem(registry, "T5", dataclasses.replace(t5, evaluate=evaluate))
        result = invoke("verify", "--claims", "T5", "--max-n", "3")
        assert result.exit_code == 1
        report = verify.run_claims(["T5"], verify.GridSpec(max_n=3))
        assert result.stdout == verify.emit_report(report, "csv").decode()
        assert result.stderr.splitlines() == [
            "required-equal failures: 1",
            "  T5 alpha=0,beta=1,gamma=0,x=1,lam=1,r=1,n=2 lhs=3 rhs=-1",
        ]

    def test_unknown_claim_is_usage_error(self):
        result = invoke("verify", "--claims", "NOPE")
        assert result.exit_code == 2

    @pytest.mark.parametrize("claims", [",", ""])
    def test_empty_claim_list_is_usage_error(self, claims):
        result = invoke("verify", "--claims", claims)
        assert result.exit_code == 2
        assert "--claims names no claim id" in result.stderr

    def test_markdown_format(self):
        result = invoke("verify", "--claims", "T5", "--max-n", "2", "--format", "markdown")
        assert "## T5" in result.output

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        result = invoke("verify", "--claims", "T5", "--max-n", "2", "--format", "json", "--out", str(target))
        assert result.exit_code == 0
        assert json.loads(target.read_text())["rows"]


class TestTableCommand:
    def test_csv(self):
        result = invoke("table", "--max-n", "3", "--gamma", "0")
        assert result.output == "n,value\n0,1\n1,0\n2,1\n3,5\n"

    def test_out_file(self, tmp_path):
        target = tmp_path / "table.csv"
        invoke("table", "--max-n", "2", "--out", str(target))
        assert target.read_text().splitlines()[0] == "n,value"


class TestReadmeExamples:
    def test_table_lists_every_readme_example(self):
        section = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
        lines = [line.split("#")[0].strip() for line in section.splitlines()]
        assert [line for line in lines if line.startswith("debell ")] == list(README_EXAMPLES)

    @pytest.mark.parametrize("line", list(README_EXAMPLES))
    def test_stdout_and_exit_code(self, line):
        result = invoke(*line.split()[1:])
        assert result.exit_code == 0
        expected = README_EXAMPLES[line]
        if expected.startswith("sha256:"):
            assert "sha256:" + hashlib.sha256(result.stdout.encode()).hexdigest() == expected
        else:
            assert result.stdout == expected


class TestRemovedKnobs:
    @pytest.mark.parametrize(
        "args",
        [
            ("bell", "--n", "3", "--order", "0"),
            ("omega", "--n", "3", "--order", "3"),
            ("stirling", "--n", "3", "--k", "1", "--x", "2"),
            ("enumerate", "--family", "ordered", "--n", "2", "--list", "--format", "json"),
            ("asymp", "--n", "4", "--m", "2", "--delta", "100", "--gamma", "1", "--lambda", "3"),
            ("omega", "--n", "3", "--r", "2"),
            ("enumerate", "--family", "set-partitions", "--n", "3", "--k", "2", "--r", "5"),
            ("enumerate", "--family", "ordered", "--n", "3", "--k", "7", "--lambda", "4"),
            ("enumerate", "--family", "ordered", "--n", "3", "--lambda", "4"),
            ("enumerate", "--family", "barred", "--n", "2", "--r", "0"),
        ],
    )
    def test_is_usage_error(self, args):
        result = invoke(*args)
        assert result.exit_code == 2
        assert result.stdout == ""

    def test_flag_defaults_still_apply(self):
        # r and lambda keep their defaults for the families that read them
        assert invoke("enumerate", "--family", "r-stirling", "--n", "4", "--k", "2").stdout == "7\n"
        assert invoke("enumerate", "--family", "barred", "--n", "2").stdout == "3\n"
        assert json.loads(invoke("omega", "--n", "3", "--format", "json").stdout)["point"]["r"] == "0"


def _reads(fn) -> set:
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    body = tree.body[0].body
    return {
        node.id
        for stmt in body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


class TestEveryFlagIsRead:
    @pytest.mark.parametrize("name", sorted(main.commands))
    def test_each_declared_parameter_is_read(self, name):
        command = main.commands[name]
        declared = {param.name for param in command.params}
        assert declared == set(inspect.signature(command.callback).parameters)
        assert declared - _reads(command.callback) == set()
