"""The four benchmark workloads and the gates that check their outputs.

Each workload builds its inputs from a seeded ``random.Random`` (the seed
only permutes the order of operations), runs rounds of timed operations
through debell's public API or the ``debell`` CLI, and checks every output
outside the timed phase.  A round starts from empty debell caches, as a
fresh ``debell`` process would.

Gates are plain functions of (observed, expected) that return the labels of
the operations whose outputs are wrong, so ``gatecheck.py`` can feed each one
a corrupted expected value and confirm it fires.

``run_round`` times its operations with the ``clock`` it is given, so the
caller can exclude time that is not the workload's own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import traceback
from fractions import Fraction
from time import perf_counter

MODULES = ["exact", "series", "stirling", "derangements", "bell", "asymptotics",
           "enumeration", "verify"]


@dataclasses.dataclass
class Round:
    """One timed pass over a workload's operations."""

    ops: list  # (label, seconds) per operation, in the order run
    checked: int  # outputs compared against their expected values
    failures: set  # labels of operations that failed or gave a wrong output
    emit_s: float | None = None  # time spent serializing output, where measured
    digest: str | None = None  # sha256 of the round's main output bytes
    child_rss_kib: int = 0  # peak RSS of the child processes the round ran


class Context:
    """debell imported from ``<root>/src`` plus the pinned expected outputs."""

    def __init__(self, root):
        import importlib

        self.root = root
        self.modules = {name: importlib.import_module("debell." + name) for name in MODULES}
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "expected.json"), encoding="utf-8") as fh:
            self.expected = json.load(fh)
        self.child_env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.child_env.pop("DEBELL_MAX_ENUM", None)
        self._caches = {
            id(value): value
            for mod in self.modules.values()
            for value in vars(mod).values()
            if callable(getattr(value, "cache_clear", None))
        }

    def clear_caches(self) -> None:
        """Empty every lru_cache in debell and the Stirling triangle store."""
        for cache in self._caches.values():
            cache.cache_clear()
        getattr(self.modules["stirling"], "_TABLES", {}).clear()


def _attempt(label: str, failures: set, fn, *args):
    """Run one operation; an exception marks it failed and yields None."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        failures.add(label)
        return None


def spawn(argv: list, env: dict, cwd) -> tuple:
    """Run a child to completion: (stdout+stderr bytes, exit code, maxrss KiB).

    SIGALRM is held while the child runs, so the calibration sampler in
    run.py never competes with the child for a core; a tick that falls due
    is taken as soon as the child has exited."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            stdin=subprocess.DEVNULL, env=env, cwd=cwd)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- gates ----------------------------------------------------------------------


def gate_verify(summary: dict, report_sha: str, fixture: dict, expected_sha: str) -> set:
    """Claims whose outcome digest differs from the fixture, plus the report
    bytes when their sha256 differs from the pinned one."""
    bad = {cid for cid in fixture if summary.get(cid) != fixture[cid]}
    bad |= {cid for cid in summary if cid not in fixture}
    if report_sha != expected_sha:
        bad.add("report-bytes")
    return bad


def gate_equal(label: str, observed, expected) -> set:
    return set() if observed == expected else {label}


def gate_closed_sums(bell, label: str, params, b: list, o: list) -> set:
    """The B and omega vectors of one table-deep point against the closed-sum
    routes: bell_lambda1 at every n when lam = 1, omega at every n, and the
    section convolution at the largest n when lam = 2."""
    bad = set()
    top = len(b) - 1
    if params.lam == 1 and any(bell.bell_lambda1(n, params) != b[n] for n in range(top + 1)):
        bad.add("bell_egf:" + label)
    if params.lam == 2 and bell.bell_convolution(top, params) != b[top]:
        bad.add("bell_egf:" + label)
    if any(bell.omega(n, params) != o[n] for n in range(top + 1)):
        bad.add("omega_egf:" + label)
    return bad


# -- workloads ------------------------------------------------------------------


class VerifyGrid:
    """run_claims() for every claim over the default grid, then the JSON report."""

    name = "verify-grid"

    def __init__(self, ctx: Context, rng):
        self.ctx = ctx
        verify = ctx.modules["verify"]
        default = verify.GridSpec.default()
        # The seed reorders every grid axis; the report is sorted, so its bytes
        # do not depend on the evaluation order.
        axes = {}
        for field in dataclasses.fields(default):
            value = getattr(default, field.name)
            axes[field.name] = tuple(rng.sample(value, len(value))) if isinstance(value, tuple) else value
        self.grid = verify.GridSpec(**axes)
        with open(ctx.root / "tests" / "fixtures" / "claim_outcomes.json", encoding="utf-8") as fh:
            self.fixture = json.load(fh)
        self.report_sha = ctx.expected["verify_report_sha256"]

    def run_round(self, clock=perf_counter, tracer=None) -> Round:
        verify = self.ctx.modules["verify"]
        failures: set = set()
        t0 = clock()
        report = _attempt("verify", failures, verify.run_claims, None, self.grid)
        t1 = clock()
        data = None if report is None else _attempt("verify", failures, verify.emit_report, report, "json")
        t2 = clock()
        checked = len(self.fixture) + 1
        if data is None:
            return Round([("verify", t2 - t0)], checked, set(self.fixture) | {"report-bytes"})
        digest = sha256(data)
        failures |= gate_verify(verify.fixture_summary(report), digest, self.fixture, self.report_sha)
        return Round([("verify", t2 - t0)], checked, failures, emit_s=t2 - t1, digest=digest)

    def final_checks(self) -> set:
        return set()


TABLE_N = 200
TABLE_POINTS = {
    "a0-l1-r0": dict(alpha=0, lam=1, r=0),
    "a0-l2-r1": dict(alpha=0, lam=2, r=1),
    "a1-l2-r1-x2": dict(alpha=1, lam=2, r=1, x=2),
    "a1/3-l2-r1": dict(alpha=Fraction(1, 3), lam=2, r=1),
    "a1/3-x3/2-l1-r2": dict(alpha=Fraction(1, 3), x=Fraction(3, 2), lam=1, r=2),
}


def table_bytes(values, format_rat) -> bytes:
    """The ``n,value`` CSV that ``debell table`` writes for these values."""
    lines = ["n,value"] + [f"{n},{format_rat(v)}" for n, v in enumerate(values)]
    return ("\n".join(lines) + "\n").encode()


class TableDeep:
    """bell_egf and omega_egf at N = 200 at five points, from empty caches."""

    name = "table-deep"

    def __init__(self, ctx: Context, rng):
        self.ctx = ctx
        make = ctx.modules["exact"].ParamSet.make
        self.params = {label: make(**kw) for label, kw in TABLE_POINTS.items()}
        ops = [(fn, label) for label in TABLE_POINTS for fn in ("bell_egf", "omega_egf")]
        self.ops = rng.sample(ops, len(ops))
        self.expected = ctx.expected["table_sha256"]
        self.values: dict = {}

    def run_round(self, clock=perf_counter, tracer=None) -> Round:
        bell, exact = self.ctx.modules["bell"], self.ctx.modules["exact"]
        ops, failures, emit_s = [], set(), 0.0
        for fn, label in self.ops:
            key = f"{fn}:{label}"
            t0 = clock()
            values = _attempt(key, failures, getattr(bell, fn), TABLE_N, self.params[label])
            t1 = clock()
            data = None if values is None else _attempt(key, failures, table_bytes, values, exact.format_rat)
            t2 = clock()
            ops.append((key, t2 - t0))
            emit_s += t2 - t1
            self.values[key] = values
            if data is not None:
                failures |= gate_equal(key, sha256(data), self.expected[key])
        return Round(ops, len(ops), failures, emit_s=emit_s)

    def final_checks(self) -> set:
        bell = self.ctx.modules["bell"]
        bad = set()
        for label, params in self.params.items():
            b, o = self.values.get("bell_egf:" + label), self.values.get("omega_egf:" + label)
            if b is None or o is None:
                continue  # already counted as failed
            bad |= _attempt("closed-sums:" + label, bad, gate_closed_sums, bell, label, params, b, o) or set()
        return bad


CLI_INVOCATIONS = {
    "stirling": ["stirling", "--n", "5", "--k", "3", "--alpha", "0", "--beta", "1", "--gamma", "0"],
    "rderange": ["rderange", "--k", "2", "--r", "2"],
    "rderange-s": ["rderange", "--k", "6", "--r", "2", "--s", "1"],
    "bell": ["bell", "--n", "3", "--lambda", "1", "--x", "1", "--alpha", "0", "--beta", "1",
             "--gamma", "0"],
    "omega": ["omega", "--n", "3"],
    "enumerate": ["enumerate", "--family", "r-deranged-partitions", "--n", "3", "--r", "0"],
    "table": ["table", "--max-n", "8", "--gamma", "1"],
    "asymp": ["asymp", "--n", "4", "--m", "2", "--delta", "100", "--delta", "1000", "--gamma", "1"],
}


class CliOneshot:
    """A closed loop with one client: one fresh ``debell`` process per step."""

    name = "cli-oneshot"

    def __init__(self, ctx: Context, rng):
        self.ctx = ctx
        self.rng = rng
        self.labels = list(CLI_INVOCATIONS)
        self.expected = ctx.expected["cli_stdout"]

    def run_round(self, clock=perf_counter, tracer=None) -> Round:
        ops, failures, rss = [], set(), 0
        for label in self.rng.sample(self.labels, len(self.labels)):
            argv = [sys.executable, "-m", "debell.cli", *CLI_INVOCATIONS[label]]
            command = argv[3]
            run = spawn if tracer is None else tracer.wrap("cli." + command, spawn)
            t0 = clock()
            out, code, maxrss = run(argv, self.ctx.child_env, self.ctx.root)
            ops.append((command, clock() - t0))
            rss = max(rss, maxrss)
            if code != 0:
                failures.add(label)
            failures |= gate_equal(label, out.decode(errors="replace"), self.expected[label])
        return Round(ops, len(ops), failures, child_rss_kib=rss)

    def final_checks(self) -> set:
        return set()


ENUM_GROUPS = [
    ("set-partitions", "set_partitions_count", [(10, k) for k in range(11)]),
    ("r-stirling", "r_stirling_count", [(8, k, 2) for k in range(9)]),
    ("ordered", "ordered_partitions_count", [(9,)]),
    ("barred", "barred_count", [(9, lam) for lam in (1, 2, 3)]),
    ("r-derangements", "r_derangements_enum", [(7, 2)]),
    ("r-deranged-partitions-r0", "r_deranged_partitions_enum", [(8, 0)]),
    ("r-deranged-partitions-r2", "r_deranged_partitions_enum", [(6, 2)]),
]


def enum_formula(mods: dict, fn: str, args: tuple) -> int:
    """The formula-route value each enumerator count must equal."""
    stirling, bell, exact = mods["stirling"], mods["bell"], mods["exact"]
    if fn == "set_partitions_count":
        return stirling.stirling_rec(*args, 0, 1, 0)
    if fn == "r_stirling_count":
        n, k, r = args
        return stirling.stirling_rec(n, k, 0, 1, r)
    if fn == "ordered_partitions_count":
        return bell.omega(args[0], exact.ParamSet.make(lam=1))
    if fn == "barred_count":
        n, lam = args
        return bell.omega(n, exact.ParamSet.make(lam=lam))
    if fn == "r_derangements_enum":
        return mods["derangements"].r_derangement(*args)
    return bell.deranged_bell_classic(*args)


class OracleEnum:
    """The brute-force enumerators at their default caps."""

    name = "oracle-enum"

    def __init__(self, ctx: Context, rng):
        self.ctx = ctx
        self.rng = rng
        self.formulas: dict = {}

    def run_round(self, clock=perf_counter, tracer=None) -> Round:
        enumeration = self.ctx.modules["enumeration"]
        ops, failures, counts = [], set(), {}
        for label, fn, arglist in self.rng.sample(ENUM_GROUPS, len(ENUM_GROUPS)):
            t0 = clock()
            for args in self.rng.sample(arglist, len(arglist)):
                key = f"{fn}{args}"
                counts[key] = _attempt(key, failures, getattr(enumeration, fn), *args)
            ops.append((label, clock() - t0))
        if not self.formulas:
            self.formulas = {
                f"{fn}{args}": enum_formula(self.ctx.modules, fn, args)
                for _, fn, arglist in ENUM_GROUPS
                for args in arglist
            }
        for key, formula in self.formulas.items():
            failures |= gate_equal(key, counts[key], formula)
        return Round(ops, len(self.formulas), failures)

    def final_checks(self) -> set:
        return set()


WORKLOADS = {w.name: w for w in (VerifyGrid, TableDeep, CliOneshot, OracleEnum)}
