import ast
import dataclasses
import hashlib
import importlib
import inspect
import json
import os
import select
import subprocess
import sys
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
        if r == 0:  # an empty range is named as such, not as "1..0"
            assert "--s needs --r >= 1" in result.stderr
            assert "1..0" not in result.stderr
        else:
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

    def test_decimal_flag_reads_the_same_rational(self):
        # "0.5" is read exactly as 1/2: the same output bytes
        half = invoke("bell", "--n", "4", "--alpha", "1/2", "--x", "1/2", "--format", "json")
        decimal = invoke("bell", "--n", "4", "--alpha", "0.5", "--x", "5e-1", "--format", "json")
        assert half.exit_code == decimal.exit_code == 0
        assert decimal.stdout_bytes == half.stdout_bytes

    @pytest.mark.parametrize("flag, value", [("--alpha", "abc"), ("--x", "1/0")])
    def test_unreadable_rational_is_usage_error(self, flag, value):
        result = invoke("bell", "--n", "2", flag, value)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"{value!r} is not an integer or p/q rational" in result.stderr

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

    def test_listing_past_the_cap_creates_no_out_file(self, tmp_path):
        target = tmp_path / "listing.txt"
        result = invoke("enumerate", "--family", "ordered", "--n", "10", "--list", "--out", str(target))
        assert (result.exit_code, result.stderr) == (1, "error: ordered: size 10 exceeds cap 9\n")
        assert not target.exists()

    def test_listing_at_the_cap_streams(self):
        """The 7,087,261 lines of the ordered listing at its cap are written as
        they are made: the first comes within seconds, not after the whole
        listing is built, and a reader that leaves ends the run with 141."""
        env = dict(os.environ, PYTHONPATH=str(Path(debell.__file__).resolve().parents[1]))
        args = ["enumerate", "--family", "ordered", "--n", "9", "--list"]
        child = subprocess.Popen([sys.executable, "-m", "debell.cli", *args], env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert select.select([child.stdout], [], [], 30)[0], "no output within 30 s"
            assert child.stdout.readline() == b"{1,2,3,4,5,6,7,8,9}\n"
            child.stdout.close()
            assert child.wait(timeout=60) == 141
            assert child.stderr.read() == b""
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
            child.stderr.close()

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
                rows[2] = rows[2]._replace(rhs="-1", status=verify.UNEQUAL)
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

    def test_unknown_claim_with_out_writes_no_file(self, tmp_path):
        target = tmp_path / "report.csv"
        result = invoke("verify", "--claims", "T5,NOPE", "--out", str(target))
        assert result.exit_code == 2
        assert "unknown claim ids: NOPE" in result.stderr
        assert not target.exists()

    def test_unwritable_out_fails_before_any_claim_runs(self, monkeypatch, tmp_path):
        """The --out file is opened before the round, which takes about a second."""
        def run_claims(*args):
            pytest.fail("run_claims was called before --out was opened")

        monkeypatch.setattr(verify, "run_claims", run_claims)
        target = tmp_path / "no-such-dir" / "x"
        result = invoke("verify", "--out", str(target))
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [f"error: cannot write {target}: No such file or directory"]
        assert result.stdout == "" and not target.parent.exists()

    @pytest.mark.parametrize("claims", [",", ""])
    def test_empty_claim_list_is_usage_error(self, claims):
        result = invoke("verify", "--claims", claims)
        assert result.exit_code == 2
        assert "--claims names no claim id" in result.stderr

    @staticmethod
    def _row_ns(stdout: str) -> dict:
        """{claim: the set of n over its rows} from a CSV report."""
        ns: dict = {}
        for line in stdout.splitlines()[1:]:
            claim, point = line.split(",")[:2]
            ns.setdefault(claim, set()).add(int(dict(kv.split("=") for kv in point.split(";"))["n"]))
        return ns

    @pytest.mark.parametrize(
        "max_n, expected",
        [
            (3, {"EX-B1x2": {2}, "ASYMP-r0": {1, 2, 3}}),
            (5, {"EX-B1x2": {2}, "EX-B2x4": {4}, "W4-explicit": {5}, "ASYMP-r0": {1, 2, 3, 4}}),
            (12, {"EX-B1x2": {2}, "EX-B2x4": {4}, "EX-B2x6": {6}, "W4-explicit": set(range(5, 13)),
                  "W5-explicit": set(range(6, 13)), "ASYMP-r0": {1, 2, 3, 4}}),
            (0, {}),
            (20, {"EX-B1x2": {2}, "EX-B2x4": {4}, "EX-B2x6": {6}, "W4-explicit": set(range(5, 13)),
                  "W5-explicit": set(range(6, 13)), "ASYMP-r0": {1, 2, 3, 4}}),
        ],
    )
    def test_max_n_bounds_the_fixed_n_claims(self, max_n, expected):
        claims = "EX-B1x2,EX-B2x4,EX-B2x6,W4-explicit,W5-explicit,ASYMP-r0"
        result = invoke("verify", "--claims", claims, "--max-n", str(max_n))
        assert result.exit_code == 0
        assert self._row_ns(result.stdout) == expected

    @pytest.mark.parametrize("max_n", [3, 5])
    def test_grid_max_n_is_the_flag(self, max_n):
        claims = ["W4-explicit", "W5-explicit", "ASYMP-r0"]
        result = invoke("verify", "--claims", ",".join(claims), "--max-n", str(max_n))
        report = verify.run_claims(claims, verify.GridSpec(max_n=max_n))
        assert result.stdout == verify.emit_report(report, "csv").decode()

    def test_max_n_bounds_every_row(self):
        result = invoke("verify", "--max-n", "3")
        assert result.exit_code == 0
        ns = self._row_ns(result.stdout)
        # W4-explicit, W5-explicit, EX-B2x4 and EX-B2x6 write no row
        assert len(ns) == len(verify.claim_registry()) - 4
        assert set().union(*ns.values()) == {0, 1, 2, 3}

    def test_markdown_format(self):
        result = invoke("verify", "--claims", "T5", "--max-n", "2", "--format", "markdown")
        assert "## T5" in result.output

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        result = invoke("verify", "--claims", "T5", "--max-n", "2", "--format", "json", "--out", str(target))
        assert result.exit_code == 0
        assert json.loads(target.read_text())["rows"]

    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    def test_streamed_report_is_emit_report(self, fmt, tmp_path):
        """stdout and ``--out`` both get the chunks of ``emit_report``'s own emitter."""
        args = ["verify", "--claims", "T5,OMEGA-ID", "--max-n", "3", "--format", fmt]
        report = verify.run_claims(["T5", "OMEGA-ID"], verify.GridSpec(max_n=3))
        result = invoke(*args)
        assert result.exit_code == 0
        assert result.stdout_bytes == verify.emit_report(report, fmt)
        target = tmp_path / f"report.{fmt}"
        assert invoke(*args, "--out", str(target)).stdout_bytes == b""
        assert target.read_bytes() == result.stdout_bytes


    def test_closed_stdout_exits_141_quietly(self):
        """A reader that leaves early gets the shell's SIGPIPE status, which no
        failed claim shares, and nothing on stderr."""
        env = dict(os.environ, PYTHONPATH=str(Path(debell.__file__).resolve().parents[1]))
        args = ["verify", "--claims", "T5", "--max-n", "3", "--format", "json"]  # 289 kB
        child = subprocess.Popen([sys.executable, "-m", "debell.cli", *args], env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert child.stdout.read(100).startswith(b'{\n  "rows": [')
        child.stdout.close()
        assert child.wait(timeout=60) == 141
        assert child.stderr.read() == b""
        child.stderr.close()


_OUT_COMMANDS = [["omega", "--n", "3"], ["table", "--max-n", "2"],
                 ["verify", "--claims", "T5", "--max-n", "1"]]


@pytest.mark.parametrize(
    "args, is_dir",
    [pytest.param(args, False, id=args[0]) for args in _OUT_COMMANDS]
    + [pytest.param(args, True, id=f"{args[0]}-directory") for args in _OUT_COMMANDS],
)
def test_unwritable_out_is_one_error_line(args, is_dir, tmp_path):
    """An --out path whose directory is missing, or that is a directory, exits 1 with one
    stderr line: the open in _sink judges it, not click, whose usage error would exit 2."""
    target = tmp_path if is_dir else tmp_path / "no-such-dir" / "x"
    reason = "Is a directory" if is_dir else "No such file or directory"
    env = dict(os.environ, PYTHONPATH=str(Path(debell.__file__).resolve().parents[1]))
    child = subprocess.run([sys.executable, "-m", "debell.cli", *args, "--out", str(target)],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 1
    assert child.stderr.splitlines() == [f"error: cannot write {target}: {reason}"]
    assert child.stdout == ""
    assert list(tmp_path.iterdir()) == []  # no directory made, nothing written into one


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


# Every command in each format it accepts, rational points, an exact-zero asymp
# row and three computation errors: (exit code, sha256 of stdout, stderr).
PINNED_BYTES = {
    "stirling --n 5 --k 3":
        (0, "64aeb9975f234becd55bb4635e6e2f2da7a6b7bf0a896f0c07763bdfbfb31420", ''),
    "stirling --n 5 --k 3 --format json":
        (0, "cc1808075cda6a5bb5a7151e3db3f317905ed9be0d338105b4ba5a1a13ed760a", ''),
    "stirling --n 5 --k 3 --format csv":
        (0, "12a6cb08b17b42e85a5d2a2a2de5e6844dee63ae3ac612ffc416373555a61a84", ''),
    "stirling --n 4 --k 2 --alpha 1/2 --beta 3/2 --gamma 1/3 --route egf --format json":
        (0, "e80eefcbcb70a87f43d48d9d48000dcf40674d3c0302c9bb80d7f7878eaf23af", ''),
    "stirling --n 4 --k 2 --alpha 1/2 --beta 3/2 --gamma 1/3 --format csv":
        (0, "b25f7e99194897d78a4f79015cdf2608ae5a3bc6de18b98b99dd1447b93ffa2a", ''),
    "rderange --k 3 --r 1":
        (0, "2e6d31a5983a91251bfae5aefa1c0a19d8ba3cf601d0e8a706b4cfa9661a6b8a", ''),
    "rderange --k 3 --r 1 --format json":
        (0, "69b6552e0110ce1c4c19cc036d96553e8c83132429d5def5344b91e0e93751dd", ''),
    "rderange --k 3 --r 1 --format csv":
        (0, "2c894eb63894b5a7d980a0c0b1d36b907dd6178916821843ba1251ba3303634b", ''),
    "rderange --k 6 --r 2 --s 1 --format csv":
        (0, "dbece52784aba7dc261fc39598330db849c9d7dc82daaaf2c786a13b89f90de7", ''),
    "rderange --k 1 --r 3":  # k < r
        (0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa", ''),
    "rderange --k 2 --r 2":  # k = r
        (0, "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3", ''),
    "bell --n 3 --x 1/3":
        (0, "2d9aacaed3e92faf94ff2bb574bef1b2df83a8eb7e7ee8b8a0aed772317ca8c6", ''),
    "bell --n 3 --x 1/3 --format json":
        (0, "cf3e52a6d1cd294abb8077f886622c0c6f49f410f2084cd472dfda0c82ad499b", ''),
    "bell --n 4 --lambda 2 --r 1 --gamma 2 --format csv":
        (0, "ba7932e323d0587bbe5540332ed82fbfc565d379626b376f340b8b5e95668723", ''),
    "bell --n 5 --route closed --lambda 2 --alpha 1 --beta 2 --format json":
        (0, "e2a5acfc3c66ceede669843c3d5122c6efe56ca973b64865c19f728cbba56946", ''),
    # S > 1: the closed sum divides the scaled row reads by S^n (prints 2173635/16)
    "bell --n 6 --route closed --alpha 1/2 --x 3/2 --lambda 2 --r 1":
        (0, "e5eff3e92a06bd1bec617cd074e2fbf6efdbf3f788fba0600a16a41003a6db29", ''),
    "bell --n 6 --route closed --alpha 1/2 --x 3/2 --lambda 2 --r 1 --format json":
        (0, "74d5f9e86070859dbdcb3b529fdde955a9ef4ab4d272ebebeb55de9d9d8aa59c", ''),
    "bell --n 6 --route classic --r 2 --gamma 2":
        (0, "0a35d14ccde55aca9afe66b2007017421935c9ead0e0658a190a5fc1d589ea42", ''),
    "omega --n 3":
        (0, "1a252402972f6057fa53cc172b52b9ffca698e18311facd0f3b06ecaaef79e17", ''),
    "omega --n 4 --lambda 2 --x 2 --format json":
        (0, "02c785305b6b038e25cc87cede806402f695acb8ddf022d65d6fba78c74f6ed8", ''),
    "omega --n 4 --lambda 2 --x 2 --format csv":
        (0, "330720777b428c06be496737a63cf5bd30e740f41c18a8c263cc87f782f6e2a9", ''),
    "enumerate --family set-partitions --n 4 --k 2":
        (0, "10159baf262b43a92d95db59dae1f72c645127301661e0a3ce4e38b295a97c58", ''),
    "enumerate --family set-partitions --n 4 --k 2 --format json":
        (0, "a419bf7a9d86aa97f022c7c056794c72abc72702c3dc0b6522c740d1be07d47b", ''),
    "enumerate --family barred --n 2 --lambda 2 --format csv":
        (0, "e6962d98c386851a9834ac3ab259bfb4b20a7f60ba23680ba45ad9f3642bf58f", ''),
    "enumerate --family r-deranged-partitions --n 3 --r 1 --format csv":
        (0, "9d33e38aa34ffc830bbec26f786bc7981b2d9f0611b5c9a468cc2496da0b5099", ''),
    "enumerate --family r-derangements --k 2 --r 2 --list":
        (0, "1125d4169f40c2e095d8977c9bb0aab9e0fded83d7d2cdde24a34d0220a0504f", ''),
    "enumerate --family barred --n 3 --lambda 2 --list":
        (0, "7cb826bb03085ae3819739141a9c044bd50360dbc65cb445dcd5de6292ef3e1b", ''),
    "asymp --n 4 --m 2 --delta 100 --delta 1000 --gamma 1":
        (0, "882977eacb03efce299c42a2cf5680c44c2bf1aa5b04c5e49e055e327e2c7134", ''),
    "asymp --n 4 --m 2 --delta 100 --delta 1000 --gamma 1 --format json":
        (0, "e80f0f8375c098635d281fddaea9fb0f804a95e624a7ef68be1d95f848add48f", ''),
    "asymp --n 3 --delta 10 --r 1":
        (0, "9afc3b627a2c98a78f40c778a7457aa57f6dff45c99bc7394217f26d48a9266a", ''),
    "asymp --n 3 --delta 10 --r 1 --format json":
        (0, "b55af12cdb15fb42e4b297a9d410c8b7dc53acfdb74bf510a0e967d27e36e0da", ''),
    "asymp --n 2 --delta 10 --alpha 1/2 --gamma 1 --x 2/3":
        (0, "ac9ccf9ee1b0c8c32ac3cc6d80884edef8984d4bf4c9fb1eb2409f5c2c16f37c", ''),
    "table --max-n 8 --gamma 1":
        (0, "cb0bd8e30fdd74a020154e4e3977803acdbb6be63ba39eac40f131aff92313b6", ''),
    "table --max-n 6 --x 1/3 --lambda 2 --r 1":
        (0, "39566551244a68508ec438fedef4281ea4168b095b8c11f69f01464c38bb51df", ''),
    # N = 200 at gamma != 0, so the head multiplies a large-order factor: a dense head
    # at polynomial u, a dense head at alpha = 0, and a polynomial head
    "table --max-n 200 --alpha 1/3 --gamma 1/2 --x 3/2 --lambda 3 --r 1":
        (0, "b41109ece7d8f7576fab490c0b9f19e50b9d88e6fe8b3db8acfba0f6ee938f85", ''),
    "table --max-n 200 --gamma 2 --lambda 2 --r 1":
        (0, "5ea02368c4dccf36c1d5cc2b064d264e7d1c95e410a496da5756b41f1e23b161", ''),
    "table --max-n 200 --alpha 1 --beta 2 --gamma 4 --x 2 --lambda 3 --r 2":
        (0, "b978c6d266cc7a2241dbce9ba22beb169729b91b44739ab92c1c05867f49aa27", ''),
    # alpha = 0 with p = r lam = 6 and gamma != 0: X^p F by shift passes under a dense head
    "table --max-n 120 --beta 2/3 --gamma 1/2 --x 3/2 --lambda 3 --r 2":
        (0, "e750d0936f0616a0b35f91629b851089a2b128e08256da3578c2466bebf6de06", ''),
    "verify --claims T5,OMEGA-ID --max-n 2 --format json":
        (0, "53391a82248fb332422bd4c00d3d810da6311c515c7c8d76430b1c50c94a3251", ''),
    "verify --claims T5,OMEGA-ID --max-n 2 --format csv":
        (0, "d7c32720eab307269af77d233446b500f01ab56f411e86277ae8b1cce8dd417a", ''),
    "verify --claims T5,OMEGA-ID --max-n 2 --format markdown":
        (0, "d0f3f819369e55167b57a35802ece994ae51eaaeead4bfeabc32cce7d9882515", ''),
    "enumerate --family ordered --n 11":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: ordered: size 11 exceeds cap 9\n'),
    "enumerate --family ordered --n 10 --list":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: ordered: size 10 exceeds cap 9\n'),
    "bell --n 3 --route convolution --lambda 0":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: the convolution route requires lam >= 1\n'),
    "asymp --n 4 --delta 2 --gamma 1":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: delta must be an integer >= n\n'),
}


class TestPinnedBytes:
    @pytest.mark.parametrize("line", list(PINNED_BYTES))
    def test_exit_code_stdout_and_stderr(self, line):
        result = invoke(*line.split())
        digest = hashlib.sha256(result.stdout.encode()).hexdigest()
        assert (result.exit_code, digest, result.stderr) == PINNED_BYTES[line]

    def test_out_file_holds_the_stdout_bytes(self, tmp_path):
        for i, (line, (code, digest, _)) in enumerate(PINNED_BYTES.items()):
            if code == 0:
                target = tmp_path / f"out{i}"
                result = invoke(*line.split(), "--out", str(target))
                assert (result.exit_code, result.stdout) == (0, ""), line
                assert hashlib.sha256(target.read_bytes()).hexdigest() == digest, line


# The top-level and per-command help, and the usage errors of the two --family and --route
# choices, as the console script prints them at 80 columns: (exit code, sha256 of stdout,
# stderr).  The choices are declared without importing the modules that implement them.
HELP_BYTES = {
    "--help":
        (0, "33f0d9dbf42f2e174419dae75edf446df7c2d21ea3d2f2e57db2e43a795ce65a", ""),
    "asymp --help":
        (0, "a01db9ce2f3f82d6fde64ded803f5a33fdd0d30c9c60efeeae59928c75688cdb", ""),
    "bell --help":
        (0, "a12d48567d494e5274ace206e383ecc41947720b4563e42bfe2edff936dbee5a", ""),
    "enumerate --help":
        (0, "446b4a0e42b033472d51cf7235497778b2a80067ca776bcded600da6db7c6bae", ""),
    "omega --help":
        (0, "93f8292f9545c8c5573215bcbcbc2f1f5ca3b42b3dda996c85046a1899e46695", ""),
    "rderange --help":
        (0, "308528196e49b1f2fef8caca098524f8b860af82949ab5969792639d7bde3a4e", ""),
    "stirling --help":
        (0, "ffa4f3065052e4cff567b11ad3f56ff9fddf0e4a971d2728bbb2aaf1cd0ba1ca", ""),
    "table --help":
        (0, "ff5d73f6008a14cf7eeae3ffb55295450375621041c36ba76023fbcd48970716", ""),
    "verify --help":
        (0, "a4e289250a4f1ea50ce5436488766158a590fb6fd3460d9eb61f6fd999f33e51", ""),
    "enumerate --family nope --n 1":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "Usage: debell enumerate [OPTIONS]\nTry 'debell enumerate --help' for help.\n\n"
         "Error: Invalid value for '--family': 'nope' is not one of 'set-partitions', "
         "'r-stirling', 'ordered', 'barred', 'r-derangements', 'r-deranged-partitions'.\n"),
    "bell --n 1 --route nope":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "Usage: debell bell [OPTIONS]\nTry 'debell bell --help' for help.\n\n"
         "Error: Invalid value for '--route': 'nope' is not one of 'egf', 'lambda1', "
         "'closed', 'convolution', 'classic'.\n"),
}


class TestHelpBytes:
    def test_every_command_has_a_help_pin(self):
        assert {line for line in HELP_BYTES if line.endswith(" --help")} == {
            f"{name} --help" for name in main.commands
        }

    @pytest.mark.parametrize("line", list(HELP_BYTES))
    def test_exit_code_stdout_and_stderr(self, line):
        result = CliRunner().invoke(main, line.split(), prog_name="debell", terminal_width=80)
        digest = hashlib.sha256(result.stdout.encode()).hexdigest()
        assert (result.exit_code, digest, result.stderr) == HELP_BYTES[line]

    def test_family_choices_are_the_enumeration_families(self):
        from debell import cli, enumeration

        assert cli.FAMILY_NAMES == tuple(enumeration.FAMILIES)


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
