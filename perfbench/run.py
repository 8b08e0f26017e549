"""Benchmark for debell: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a debell checkout; debell is imported from ``src/``.
Human-readable metric lines go to stdout, and the last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run (see README.md).

The round times (wall_s, op_p50_ms) are calibrated.  While the rounds run, a
fixed reference kernel is timed every REF_PERIOD_S seconds on SIGALRM, and
each round time is scaled by REF_NOMINAL_S over the kernel's median time in
the run: it reads as seconds on a machine where the kernel takes
REF_NOMINAL_S.  On a host whose speed drifts by tens of percent over minutes
this keeps repeated runs comparable; the raw times are printed as well.
setup_s is not calibrated: process start-up does not track the kernel.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10  # set-up samples per run, half before and half after the rounds
CLI_PROBES = 5
REF_PERIOD_S = 0.2
REF_NOMINAL_S = 0.0025

# (name, unit, better): the metrics of an untraced run, in report order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]


def _reference_kernel() -> None:
    """Fixed work in the style of debell's: small Fraction arithmetic, and
    products and quotients of integers of a few thousand bits.  It never
    changes, so its time tracks only the machine."""
    acc, x = Fraction(0), 1
    for i in range(1, 100):
        acc += Fraction(i, i + 1) * Fraction(2 * i + 1, 3)
        x = x * 12345 + i
    big, other = 3**2000 + 1, 7**1500 + 3
    for i in range(20):
        Fraction(big * other, other + i)


class Calibrator:
    """While active, times the reference kernel every REF_PERIOD_S seconds."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        _reference_kernel()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed

    def clock(self) -> float:
        """perf_counter() minus the time spent in the kernel so far."""
        spent = self.spent
        return perf_counter() - spent

    def scale(self, since: int = 0) -> float:
        """Factor from seconds measured since sample ``since`` to calibrated
        seconds (one sample is taken now if there is none yet)."""
        if len(self.samples) <= since:
            self._tick(None, None)
        return REF_NOMINAL_S / statistics.median(self.samples[since:])

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _median_ms(samples: list) -> float:
    return statistics.median(samples) * 1000 if samples else 0.0


def _rounds(workload, ctx, seconds: float, cal=None, tracer=None, on_round=None) -> list:
    """Run rounds while one more, at the mean round time so far, would end
    within ``seconds`` (at least one round).  With a calibrator, each round's
    times are scaled by the factor measured during that round."""
    rounds, spent = [], 0.0
    while not rounds or spent + spent / len(rounds) <= seconds:
        ctx.clear_caches()
        gc.collect()
        if tracer is not None:
            tracer.reset_totals()
            tracer.install(ctx.modules)
        first = len(cal.samples) if cal else 0
        t0 = perf_counter()
        try:
            rnd = workload.run_round(cal.clock if cal else perf_counter, tracer)
        finally:
            spent += perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if cal:
            scale = cal.scale(first)
            rnd.ops = [(label, s * scale) for label, s in rnd.ops]
            rnd.emit_s = None if rnd.emit_s is None else rnd.emit_s * scale
        if on_round is not None:
            on_round(rnd)
        rounds.append(rnd)
    return rounds


def _setup_samples(args, count: int) -> list:
    """Seconds from spawning a fresh interpreter until debell is imported and
    the workload's inputs are built, once per probe process."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1"]
    samples = []
    for _ in range(count):
        t0 = perf_counter()
        out, code, _ = workloads.spawn(argv, dict(os.environ), ROOT)
        samples.append(perf_counter() - t0)
        if code != 0:
            raise RuntimeError("setup probe failed:\n" + out.decode(errors="replace"))
    return samples


def _cli_probes(ctx) -> dict:
    """Median bare-interpreter start and ``import debell.cli`` time, in ms."""
    interp, imports = [], []
    code = ("import time; t = time.perf_counter(); import debell.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(CLI_PROBES):
        t0 = perf_counter()
        workloads.spawn([sys.executable, "-c", "pass"], ctx.child_env, ROOT)
        interp.append(perf_counter() - t0)
        out, status, _ = workloads.spawn([sys.executable, "-c", code], ctx.child_env, ROOT)
        if status != 0:
            raise RuntimeError("import probe failed:\n" + out.decode(errors="replace"))
        imports.append(float(out))
    return {"cli.interp_ms": _median_ms(interp), "cli.import_ms": _median_ms(imports)}


def _print_line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<16} {value:>14.6g} {unit:<6} {note}".rstrip())


def run_end_to_end(args, ctx, workload) -> tuple:
    # Set-up probes straddle the rounds so they sample the machine at both ends.
    setup_s = _setup_samples(args, SETUP_PROBES // 2)
    with Calibrator() as cal:
        rounds = _rounds(workload, ctx, args.seconds, cal)
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_s += _setup_samples(args, SETUP_PROBES - SETUP_PROBES // 2)
    scale = cal.scale()  # over the whole run, to report the raw times
    rss_kib = max(r.child_rss_kib for r in rounds) if workload.name == "cli-oneshot" else own_rss
    rounds[-1].failures |= workload.final_checks()
    walls = [sum(s for _, s in r.ops) for r in rounds]
    ops = [s for r in rounds for _, s in r.ops]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(walls),
        "op_p50_ms": _median_ms(ops),
        "peak_rss_mib": rss_kib / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_s)} set-ups",
        "wall_s": f"median of {len(rounds)} rounds",
        "op_p50_ms": f"median of {len(ops)} operations",
        "peak_rss_mib": "debell child processes" if workload.name == "cli-oneshot" else "this process",
    }
    for name, unit, _ in END_TO_END:
        note = notes[name]
        if name in ("wall_s", "op_p50_ms"):
            note += f", about {metrics[name] / scale:.6g} raw"
        _print_line(name, metrics[name], unit, note)
    emits = [r.emit_s for r in rounds if r.emit_s is not None]
    if emits:
        _print_line("emit_s", statistics.median(emits), "s", f"median of {len(emits)} rounds")
    if len(ops) >= 100:
        p90 = statistics.quantiles(ops, n=10)[-1] * 1000
        _print_line("op_p90_ms", p90, "ms", f"{len(ops)} operations, {len(ops) // 10} beyond p90")
    _print_line("calibration", scale, "x", f"reference kernel median "
                f"{statistics.median(cal.samples) * 1000:.4g} ms over {len(cal.samples)} samples")
    return rounds, metrics, {name: unit for name, unit, _ in END_TO_END}


def run_traced(args, ctx, workload) -> tuple:
    half = args.seconds / 2
    plain = _rounds(workload, ctx, half)
    tracer = tracing.Tracer()
    per_round = []
    traced = _rounds(
        workload, ctx, half, tracer=tracer,
        on_round=lambda rnd: per_round.append(tracing.layer_values(tracer, ctx.modules)),
    )
    rounds = plain + traced
    rounds[-1].failures |= workload.final_checks()

    def wall(rs):
        return statistics.median(sum(s for _, s in r.ops) for r in rs)

    measured = _cli_probes(ctx)
    measured["trace.overhead_s"] = wall(traced) - wall(plain)
    measured["trace.spans"] = tracer.write(HERE / "out" / f"trace-{workload.name}.csv.gz")
    for command in tracing.CLI_COMMANDS:
        samples = [s for r in traced for label, s in r.ops if label == command]
        measured[f"cli.{command}.p50_ms"] = _median_ms(samples)
    metrics, units = {}, {}
    for name, unit, _ in tracing.per_layer_metrics():
        if name in measured:
            metrics[name] = measured[name]
        else:
            metrics[name] = statistics.median(values[name] for values in per_round)
        units[name] = unit
        _print_line(name, metrics[name], unit)

    # Tracing must not change output bytes, and every series entry point the
    # table kernel reaches must have gone through its wrapper.
    digests = {r.digest for r in rounds}
    rounds[-1].checked += 1
    if len(digests) != 1:
        print(f"traced output bytes differ from untraced: {sorted(map(str, digests))}", file=sys.stderr)
        rounds[-1].failures.add("trace-bytes")
    if workload.name == "table-deep":
        reached = ["series.mul", "series.exp", "series.log", "series.pow_int", "series.binpow"]
        missed = [p for p in reached if p in tracer.installed and metrics[p + ".calls"] == 0]
        rounds[-1].checked += 1
        if missed:
            print(f"series wrappers never called on table-deep: {missed}", file=sys.stderr)
            rounds[-1].failures.add("trace-bindings")
    print(f"traced rounds {len(traced)}, untraced rounds {len(plain)}, "
          f"spans written to {HERE.name}/out/trace-{workload.name}.csv.gz")
    return rounds, metrics, units


def _run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out, code, _ = workloads.spawn(argv, dict(os.environ), ROOT)
        text = out.decode(errors="replace")
        print(text, end="", flush=True)
        last = text.strip().splitlines()[-1] if text.strip() else ""
        ok = code == 0 and last.startswith("{") and json.loads(last)["correct"]
        status = status or (0 if ok else 1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify-grid", "table-deep", "cli-oneshot", "oracle-enum", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "debell" / "__init__.py").is_file():
        print(f"error: no debell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    fixture = ROOT / "tests" / "fixtures" / "claim_outcomes.json"
    if not fixture.is_file():
        print(f"error: missing {fixture}", file=sys.stderr)
        return 2
    os.environ.pop("DEBELL_MAX_ENUM", None)
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    ctx = workloads.Context(ROOT)
    workload = workloads.WORKLOADS[args.workload](ctx, random.Random(args.seed))
    if args.setup_probe:
        return 0
    src = Path(ctx.modules["exact"].__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"error: debell imported from {src}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        rounds, metrics, units = run_traced(args, ctx, workload)
    else:
        rounds, metrics, units = run_end_to_end(args, ctx, workload)
    attempted = sum(r.checked for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    _print_line("failed_ops", failed / attempted, "ratio", f"{failed} of {attempted} checked outputs")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
