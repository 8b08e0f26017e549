"""Prove that every correctness gate of the benchmark fires.

    python3 perfbench/gatecheck.py

Each gate is first given a true expected value (it must pass) and then one
corrupted expected value (it must report the operation).  The script also
checks that the tracer's wrappers reach every binding and compute self time
as documented, and that BENCHMARK.json lists exactly the metrics the
benchmark prints.  It takes a few seconds and exits 1 on any failure.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

FAILURES = []


def expect(name: str, observed, wanted) -> None:
    status = "ok" if observed == wanted else "FAIL"
    if observed != wanted:
        FAILURES.append(name)
    shown = repr(sorted(observed) if isinstance(observed, set) else observed)
    print(f"{status:<4} {name}: got {shown[:100]}")


def check_verify(ctx) -> None:
    verify = ctx.modules["verify"]
    ids = ["EX-B1x2", "W4-explicit"]
    report = verify.run_claims(ids)
    summary = verify.fixture_summary(report)
    fixture = json.loads((ROOT / "tests/fixtures/claim_outcomes.json").read_text())
    expected = {cid: fixture[cid] for cid in ids}
    sha = W.sha256(verify.emit_report(report, "json"))
    expect("verify gate, true fixture", W.gate_verify(summary, sha, expected, sha), set())
    corrupted = copy.deepcopy(expected)
    corrupted["EX-B1x2"]["sha256"] = "0" * 64
    expect("verify gate, corrupted claim digest", W.gate_verify(summary, sha, corrupted, sha), {"EX-B1x2"})
    corrupted = copy.deepcopy(expected)
    corrupted["W4-explicit"]["equal"] += 1
    expect("verify gate, corrupted status count", W.gate_verify(summary, sha, corrupted, sha),
           {"W4-explicit"})
    expect("verify gate, corrupted report sha256", W.gate_verify(summary, sha, expected, "0" * 64),
           {"report-bytes"})


def check_table(ctx) -> None:
    bell, exact = ctx.modules["bell"], ctx.modules["exact"]
    label = "a1-l2-r1-x2"
    params = exact.ParamSet.make(**W.TABLE_POINTS[label])
    b = bell.bell_egf(W.TABLE_N, params)
    o = bell.omega_egf(W.TABLE_N, params)
    key = "bell_egf:" + label
    sha = W.sha256(W.table_bytes(b, exact.format_rat))
    pinned = ctx.expected["table_sha256"][key]
    expect("table bytes gate, pinned sha256", W.gate_equal(key, sha, pinned), set())
    expect("table bytes gate, corrupted sha256", W.gate_equal(key, sha, pinned[:-1] + "x"), {key})
    expect("closed sums, lam=2 point", W.gate_closed_sums(bell, label, params, b, o), set())
    bad_b = b[:-1] + [b[-1] + 1]
    expect("closed sums, corrupted B[N] (convolution)",
           W.gate_closed_sums(bell, label, params, bad_b, o), {key})
    bad_o = o[:5] + [o[5] + 1] + o[6:]
    expect("closed sums, corrupted omega[5]",
           W.gate_closed_sums(bell, label, params, b, bad_o), {"omega_egf:" + label})
    label = "a0-l1-r0"
    params = exact.ParamSet.make(**W.TABLE_POINTS[label])
    b, o = bell.bell_egf(20, params), bell.omega_egf(20, params)
    expect("closed sums, lam=1 point", W.gate_closed_sums(bell, label, params, b, o), set())
    bad_b = b[:7] + [b[7] + 1] + b[8:]
    expect("closed sums, corrupted B[7] (lambda-1 sum)",
           W.gate_closed_sums(bell, label, params, bad_b, o), {"bell_egf:" + label})


def check_cli(ctx) -> None:
    argv = [sys.executable, "-m", "debell.cli", *W.CLI_INVOCATIONS["stirling"]]
    out, code, _ = W.spawn(argv, ctx.child_env, ROOT)
    pinned = ctx.expected["cli_stdout"]["stirling"]
    expect("cli exit code", code, 0)
    expect("cli bytes gate, pinned stdout", W.gate_equal("stirling", out.decode(), pinned), set())
    expect("cli bytes gate, corrupted stdout", W.gate_equal("stirling", out.decode(), "26\n"),
           {"stirling"})


def check_enum(ctx) -> None:
    count = ctx.modules["enumeration"].set_partitions_count(10, 3)
    formula = W.enum_formula(ctx.modules, "set_partitions_count", (10, 3))
    expect("enumeration gate, formula value", W.gate_equal("S(10,3)", count, formula), set())
    expect("enumeration gate, corrupted formula value", W.gate_equal("S(10,3)", count, formula + 1),
           {"S(10,3)"})


def check_tracer(ctx) -> None:
    import debell

    tracer = tracing.Tracer()
    originals = {name: getattr(ctx.modules[name], "binpow") for name in ("series", "bell", "stirling",
                                                                        "derangements")}
    tracer.install(ctx.modules)
    bound = {name: hasattr(getattr(ctx.modules[name], "binpow"), "__wrapped__") for name in originals}
    bound["debell"] = hasattr(debell.binpow, "__wrapped__")
    expect("binpow wrapped in every binding module", all(bound.values()), True)
    ctx.modules["derangements"].r_derangement_egf(3, 1)
    totals = tracer.totals()
    expect("series.inverse reached through r_derangement_egf", totals["series.inverse"][0] > 0, True)
    tracer.uninstall()
    restored = all(getattr(ctx.modules[name], "binpow") is fn for name, fn in originals.items())
    expect("uninstall restores every binding", restored, True)

    # Self time: an outer span that calls an inner one twice.
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner() + sum(range(20000)))
    outer()
    totals = tracer.totals()
    _, total_o, self_o = totals["outer"]
    _, total_i, _ = totals["inner"]
    expect("self time is duration minus children", abs(self_o - (total_o - total_i)) < 1e-9, True)
    expect("span parents recorded", list(tracer.span_parent), [-1, 0, 0])


def check_benchmark_json() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
    expect("BENCHMARK.json end_to_end matches run.py", listed, run.END_TO_END)
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    expect("BENCHMARK.json per_layer matches tracing.py", listed, tracing.per_layer_metrics())
    expect("BENCHMARK.json workloads match workloads.py", [w["name"] for w in doc["workloads"]],
           list(W.WORKLOADS))


def main() -> int:
    ctx = W.Context(ROOT)
    check_verify(ctx)
    check_table(ctx)
    check_cli(ctx)
    check_enum(ctx)
    check_tracer(ctx)
    check_benchmark_json()
    if FAILURES:
        print(f"{len(FAILURES)} gate checks failed: {FAILURES}")
        return 1
    print("every gate fires on a corrupted expected value")
    return 0


if __name__ == "__main__":
    sys.exit(main())
