"""Span tracer for the traced benchmark run.

The tracer wraps debell's public functions from outside: each wrapper is
installed on every debell module that binds the original object (so a name
imported with ``from .series import binpow`` is wrapped in the importing
module too), and ``TruncatedSeries`` methods are patched on the class.
Nothing under ``src/`` is edited; ``uninstall`` restores every binding.

Every call through a wrapper records a span (name, parent span, start, end)
in compact in-memory arrays.  The spans are written out once, when the run
ends.  Self time is a span's duration minus the time covered by its child
spans; spans nest strictly because the benchmark runs on one thread.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import sys
from array import array
from time import perf_counter_ns

# (module, attribute, metric prefix) for each wrapped public function.
FUNCTIONS = [
    ("series", "binpow", "series.binpow"),
    ("bell", "bell_egf", "bell.bell_egf"),
    ("bell", "bell_lambda1", "bell.bell_lambda1"),
    ("bell", "bell_general_closed", "bell.bell_general_closed"),
    ("bell", "bell_convolution", "bell.bell_convolution"),
    ("bell", "bell_convolution_nr", "bell.bell_convolution_nr"),
    ("bell", "omega_identity_check", "bell.omega_identity_check"),
    ("bell", "product_form_check", "bell.product_form_check"),
    ("bell", "omega", "bell.omega"),
    ("bell", "omega_egf", "bell.omega_egf"),
    ("stirling", "stirling_egf", "stirling.stirling_egf"),
    ("exact", "gen_falling", "exact.gen_falling"),
    ("exact", "binomial", "exact.binomial"),
    ("exact", "format_rat", "exact.format_rat"),
    ("asymptotics", "w_coefficient", "asymptotics.w_coefficient"),
    ("asymptotics", "w_explicit", "asymptotics.w_explicit"),
    ("asymptotics", "bell_asymptotic_estimate", "asymptotics.bell_asymptotic_estimate"),
    ("verify", "run_claims", "verify.run_claims"),
    ("verify", "emit_report", "verify.emit_report"),
    ("enumeration", "set_partitions_count", "enumeration.set_partitions_count"),
    ("enumeration", "r_stirling_count", "enumeration.r_stirling_count"),
    ("enumeration", "ordered_partitions_count", "enumeration.ordered_partitions_count"),
    ("enumeration", "barred_count", "enumeration.barred_count"),
    ("enumeration", "r_derangements_enum", "enumeration.r_derangements_enum"),
    ("enumeration", "r_deranged_partitions_enum", "enumeration.r_deranged_partitions_enum"),
]

# (method of TruncatedSeries, metric prefix); binary multiplication is __mul__.
SERIES_METHODS = [
    ("__mul__", "series.mul"),
    ("exp", "series.exp"),
    ("log", "series.log"),
    ("inverse", "series.inverse"),
    ("pow_int", "series.pow_int"),
]

# (module, lru_cache object, metric) read through cache_info() after a round.
CACHES = [
    ("bell", "_bell_egf", "bell.bell_egf.cache_hit_ratio"),
    ("bell", "_lambda1", "bell.lambda1.cache_hit_ratio"),
    ("bell", "_product_forms", "bell.product_forms.cache_hit_ratio"),
    ("derangements", "r_derangement", "derangements.r_derangement.cache_hit_ratio"),
    ("asymptotics", "partitions_with_parts", "asymptotics.partitions_with_parts.cache_hit_ratio"),
    ("enumeration", "_partition_tally", "enumeration.partition_tally.cache_hit_ratio"),
]

CLAIM_IDS = [
    "ASYMP-r0", "EQ40-literal", "EQ40-power", "EX-B1x2", "EX-B2x4", "EX-B2x6",
    "OMEGA-ID", "T3-n", "T3-nr", "T33", "T5", "W4-explicit", "W5-explicit",
]

CLI_COMMANDS = ["stirling", "rderange", "bell", "omega", "enumerate", "table", "asymp"]

SERIES_OPS = [prefix for _, prefix in SERIES_METHODS] + ["series.binpow"]


def per_layer_metrics() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for prefix in SERIES_OPS:
        out += [(prefix + ".calls", "count", "lower"), (prefix + ".self_s", "s", "lower")]
    out += [
        ("series.mul.coeff_products", "count", "lower"),
        ("series.max_coeff_bits", "bits", "lower"),
    ]
    for _, _, prefix in FUNCTIONS:
        if prefix.startswith(("series.", "verify.")):
            continue
        out += [(prefix + ".calls", "count", "lower"), (prefix + ".self_s", "s", "lower")]
    out += [(metric, "ratio", "higher") for _, _, metric in CACHES]
    out.append(("stirling.table.rows", "count", "lower"))
    for cid in CLAIM_IDS:
        out += [
            (f"verify.claim.{cid}.s", "s", "lower"),
            (f"verify.claim.{cid}.self_s", "s", "lower"),
        ]
    out += [
        ("verify.run_claims.self_s", "s", "lower"),
        ("verify.emit_report.s", "s", "lower"),
        ("verify.emit_report.bytes", "bytes", "lower"),
        ("cli.interp_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
    ]
    out += [(f"cli.{cmd}.p50_ms", "ms", "lower") for cmd in CLI_COMMANDS]
    out += [("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower")]
    return out


def _coeff_bits(series) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in series.coeffs)


class Tracer:
    """Records spans and per-name call/self-time totals while installed."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list = []  # [span id, ns covered by children]
        self._undo: list = []
        self.installed: set = set()
        self.reset_totals()

    def reset_totals(self) -> None:
        self.calls = [0] * len(self.names)
        self.total_ns = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.coeff_products = 0
        self.max_coeff_bits = 0
        self.emit_bytes = 0

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording one span per call of ``fn``.  ``after(args,
        result)`` updates counters; its time is charged to no span's self time."""
        nid = self._name_id(name)
        stack = self._stack
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            starts.append(0)
            ends.append(0)
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
                self.calls[nid] += 1
                self.total_ns[nid] += t1 - t0
                self.self_ns[nid] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if after is not None:
                t2 = perf_counter_ns()
                after(args, result)
                if stack:
                    stack[-1][1] += perf_counter_ns() - t2
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "debell" or modname.startswith("debell.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append(functools.partial(setattr, mod, attr, original))

    def install(self, modules: dict) -> None:
        """Wrap every listed function, series method and claim evaluator that
        exists in ``modules`` (a map from short module name to module)."""
        hooks = {"series.binpow": self._after_series, "verify.emit_report": self._after_emit}
        for modname, attr, prefix in FUNCTIONS:
            original = getattr(modules[modname], attr, None)
            if original is None:
                continue
            self._rebind(original, self.wrap(prefix, original, hooks.get(prefix)))
            self.installed.add(prefix)
        cls = getattr(modules["series"], "TruncatedSeries", None)
        for method, prefix in SERIES_METHODS:
            original = getattr(cls, method, None) if cls is not None else None
            if original is None:
                continue
            after = self._after_mul if method == "__mul__" else self._after_series
            setattr(cls, method, self.wrap(prefix, original, after))
            self._undo.append(functools.partial(setattr, cls, method, original))
            self.installed.add(prefix)
        registry = modules["verify"].claim_registry()
        for cid, claim in list(registry.items()):
            wrapped = self.wrap(f"verify.claim.{cid}", claim.evaluate)
            registry[cid] = dataclasses.replace(claim, evaluate=wrapped)
            self._undo.append(functools.partial(registry.__setitem__, cid, claim))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- counters -------------------------------------------------------------

    def _after_series(self, args, result) -> None:
        bits = _coeff_bits(result)
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits

    def _after_mul(self, args, result) -> None:
        n = result.order
        self.coeff_products += (n + 1) * (n + 2) // 2
        self._after_series(args, result)

    def _after_emit(self, args, result) -> None:
        self.emit_bytes += len(result)

    # -- reporting ------------------------------------------------------------

    def totals(self) -> dict:
        """Per-name (calls, inclusive seconds, self seconds) since the last reset."""
        return {
            name: (self.calls[i], self.total_ns[i] / 1e9, self.self_ns[i] / 1e9)
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> int:
        """Write every recorded span as gzip CSV; return the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,name,start_ns,end_ns\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i},{self.span_parent[i]},{names[self.span_name[i]]},"
                    f"{self.span_start[i]},{self.span_end[i]}\n"
                )
        return len(self.span_start)


def _hit_ratio(cache) -> float:
    if cache is None:
        return 0.0
    info = cache.cache_info()
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


def layer_values(tracer: Tracer, modules: dict) -> dict:
    """Every per-layer metric for one traced round.  A metric of a layer the
    round never reached reads 0, as do the cli.* and trace.* metrics, which
    the caller measures itself."""
    totals = tracer.totals()
    tables = getattr(modules["stirling"], "_TABLES", {})
    derived = {
        "series.mul.coeff_products": tracer.coeff_products,
        "series.max_coeff_bits": tracer.max_coeff_bits,
        "stirling.table.rows": sum(len(tab._rows) for tab in tables.values()),
        "verify.emit_report.bytes": tracer.emit_bytes,
    }
    derived.update(
        (metric, _hit_ratio(getattr(modules[mod], attr, None))) for mod, attr, metric in CACHES
    )
    values = {}
    for name, _, _ in per_layer_metrics():
        prefix, _, field = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif field in ("calls", "s", "self_s"):
            calls, total_s, self_s = totals.get(prefix, (0, 0.0, 0.0))
            values[name] = {"calls": calls, "s": total_s, "self_s": self_s}[field]
        else:
            values[name] = 0
    return values
