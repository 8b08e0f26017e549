"""Claim registry and grid runner.

Every identity of interest in the family is a named claim evaluated over a
parameter grid in exact arithmetic, alternative readings and variant forms
expected to disagree included.  A run produces a deterministic report of
per-point comparisons; claims that turn out false are recorded, never
patched.  A claim's ``required`` rule names the rows that must be EQUAL, and
those rows alone drive the harness exit code.
"""

from __future__ import annotations

import hashlib
import io
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import groupby, product
from json.encoder import encode_basestring_ascii as _js
from math import factorial
from typing import Callable, Iterator

from . import asymptotics, bell
from .exact import ParamSet, as_rat, binomial, csv_lines, falling, format_point, format_rat

EQUAL = "EQUAL"
UNEQUAL = "UNEQUAL"
SKIPPED = "SKIPPED"


class UnknownClaimError(ValueError):
    """A requested claim id is not in the registry."""


@dataclass(frozen=True, slots=True)
class ReportRow:
    claim: str
    point: tuple
    lhs: str
    rhs: str
    status: str
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple

    def counts(self) -> dict:
        out: dict = {}
        for row in self.rows:
            per = out.setdefault(row.claim, {EQUAL: 0, UNEQUAL: 0, SKIPPED: 0})
            per[row.status] += 1
        return out

    def required_failures(self) -> list:
        rules = {cid: claim.required for cid, claim in claim_registry().items() if claim.required}
        return [
            row
            for row in self.rows
            if row.status == UNEQUAL and row.claim in rules and rules[row.claim](dict(row.point))
        ]

    @property
    def all_required_equal(self) -> bool:
        return not self.required_failures()


@dataclass(frozen=True)
class GridSpec:
    """Parameter grid for claim evaluation: six axes and one bound on n.

    A claim binds its own axes and fixed n where it is registered.  ``max_n``
    cuts every claim: the grid claims run n = 0..max_n (0..8 without it), the
    W claims stop at min(12, max_n), ASYMP-r0 keeps n <= max_n, and an example
    claim whose fixed n exceeds max_n writes no rows."""

    alphas: tuple = (0, 1, 2)
    betas: tuple = (1, 2, 4)
    gammas: tuple = (0, 2, 4)
    xs: tuple = (1, 2)
    lambdas: tuple = (0, 1, 2, 3)
    rs: tuple = (0, 1, 2)
    max_n: int | None = None

    @classmethod
    def default(cls, max_n: int | None = None) -> "GridSpec":
        """The default grid, with every n range cut at ``max_n`` when given."""
        return cls(max_n=max_n)

    def top(self, bound: int | None = None) -> int:
        """The last n a claim writes: its own ``bound`` cut at ``max_n``, or,
        for a grid claim (no bound of its own), ``max_n`` itself, 8 without it."""
        return min((n for n in (bound, self.max_n) if n is not None), default=8)

    def triples(self) -> Iterator[tuple]:
        """The weights (alpha, beta, gamma) with alpha | beta and alpha | gamma
        (alpha = 0 passes everything)."""
        weights = (map(as_rat, axis) for axis in (self.alphas, self.betas, self.gammas))
        for a, b, g in product(*weights):
            if a == 0 or (b % a == 0 and g % a == 0):
                yield (a, b, g)

    def param_sets(self) -> Iterator[ParamSet]:
        for a, b, g in self.triples():
            for x, lam, r in product(self.xs, self.lambdas, self.rs):
                yield ParamSet.make(a, b, g, x, lam, r)


@dataclass(frozen=True)
class Claim:
    """A named identity, evaluated at the grid's points with the (axis, values)
    pairs of ``points`` replacing those axes; ``evaluate(claim_id, params,
    grid)`` returns one point's rows in ascending n (then delta, then m), and
    ``claim_registry()`` binds each claim's own id as ``claim_id``.
    ``required(point)`` is true for a row that must be EQUAL, ``point`` being
    the row's point as a dict; a claim whose ``required`` is None is recorded
    only (the variant-form and worked-example claims are expected to differ
    at many points, and the fixture regression pins their exact outcomes)."""

    id: str
    description: str
    points: tuple
    evaluate: Callable[..., list]
    required: Callable[[dict], bool] | None = None


@lru_cache(maxsize=None)
def _at(params: ParamSet, n: int, **extra) -> tuple:
    """A row's point: the parameters, n, then ``extra`` in the order given;
    built once, so every claim's rows at one point share one tuple."""
    return params.as_pairs() + (("n", str(n)),) + tuple((k, str(v)) for k, v in extra.items())


def _row(claim_id: str, point: tuple, lhs: Fraction, rhs: Fraction, note: str = "") -> ReportRow:
    status = EQUAL if lhs == rhs else UNEQUAL
    return ReportRow(claim_id, point, format_rat(lhs), format_rat(rhs), status, note)


def _b(params: ParamSet, grid: GridSpec) -> list:
    """B[0..top + r], what OMEGA-ID reads; B is memoized per (n_max, point), so
    every ``_vs_egf`` and EX claim reads this length and a point builds B once."""
    return bell.bell_egf(grid.top() + params.r, params)


def _vs_egf(claim_id: str, params: ParamSet, grid: GridSpec, route, needs_lam=False) -> list:
    """Rows n = 0..top comparing the series route B[n] with ``route(top,
    params)[n]``, or SKIPPED rows at lam = 0 for a route that ``needs_lam`` >= 1."""
    top = grid.top()
    points = [_at(params, n) for n in range(top + 1)]
    if needs_lam and params.lam < 1:
        return [ReportRow(claim_id, point, "", "", SKIPPED, "needs lam >= 1") for point in points]
    rhs = route(top, params)
    lhs = _b(params, grid)
    return [_row(claim_id, point, lhs[n], rhs[n]) for n, point in enumerate(points)]


# -- individual claims ---------------------------------------------------------


def _eval_omega_id(claim_id: str, params: ParamSet, grid: GridSpec) -> list:
    rows = bell.omega_identity_rows(grid.top(), params)
    return [_row(claim_id, _at(params, n), lhs, rhs) for n, (lhs, rhs) in enumerate(rows)]


def _ex_b1x2(lam: int, x: Fraction, beta: Fraction) -> Fraction:
    return lam**2 * x**2 * beta**2 + lam * x**2 * beta**2


def _ex_b2x4(lam: int, x: Fraction, beta: Fraction) -> Fraction:
    return (Fraction(lam**4, 2) - Fraction(lam**3, 2) + 2 * lam**3 + Fraction(lam**2, 2)
            - 3 * lam) * x**4 * beta**4


def _ex_b2x6(lam: int, x: Fraction, beta: Fraction) -> Fraction:
    return binomial(lam + 5, 6) * falling(6, 3) * x**6 * beta**6


def _eval_ex(claim_id: str, params: ParamSet, grid: GridSpec, poly, n: int) -> list:
    if grid.top(n) < n:
        return []
    _, beta, _, x, lam, _ = params.key
    lhs = _b(params, grid)[n]
    rhs = poly(lam, x, beta)
    return [_row(claim_id, _at(params, n), lhs, rhs, "candidate polynomial")]


def _eval_w(claim_id: str, params: ParamSet, grid: GridSpec, f: int, n_max: int) -> list:
    top = grid.top(n_max)
    if top <= f:
        return []
    c = bell.lambda1_sums(top, params)
    return [
        _row(claim_id, _at(params, n), asymptotics.w_from_base(c, n, f),
             asymptotics.w_explicit(c, n, f), "generic sum vs expanded form")
        for n in range(f + 1, top + 1)
    ]


def _eval_asymp(claim_id: str, params: ParamSet, grid: GridSpec, n_max: int, deltas: tuple) -> list:
    top = grid.top(n_max)
    if top < 1:
        return []
    c = bell.lambda1_sums(top, params)
    exact = [asymptotics.scaled_bell(top, delta, params) for delta in deltas]
    return [_row(claim_id, _at(params, n, delta=delta, m=n - 1),
                 asymptotics.expansion(c, delta, n, n - 1), Fraction(b[n], factorial(n)),
                 "full-order expansion vs exact")
            for n in range(1, top + 1) for delta, b in zip(deltas, exact)]


def _everywhere(point: dict) -> bool:
    return True


def _at_r0(point: dict) -> bool:
    return point.get("r") == "0"


# The axis sets the claims replace; the full grid is ``()``.
_LAM1 = (("lambdas", (1,)),)
_EX = (("lambdas", tuple(range(9))), ("betas", (1, 2)))


@lru_cache(maxsize=1)
def claim_registry() -> dict:
    # Each route reads its function off ``bell`` when called, so a rebound or
    # patched route is the one that runs.
    claims = [
        Claim("T5",
              "lam=1 closed sum over r-derangements and Stirling numbers equals the series route",
              _LAM1,
              partial(_vs_egf, route=lambda m, p: bell.lambda1_sums(m, p)),
              _everywhere),
        Claim("T33", "binomially weighted closed sum vs the series route, all lam", (),
              partial(_vs_egf, route=lambda m, p: bell.general_closed_sums(m, p))),
        Claim("T3-n", "section convolution over compositions of n vs the series route", (),
              partial(_vs_egf, needs_lam=True, route=lambda m, p: bell.section_convolution(m, p)),
              _everywhere),
        Claim("T3-nr", "section convolution with the n+r upper index vs the series route",
              (), partial(_vs_egf, needs_lam=True,
                          route=lambda m, p: bell.section_convolution(m + p.r, p)[p.r:])),
        Claim("OMEGA-ID", "fixed-block decomposition of omega[n+r] vs its closed sum",
              (), _eval_omega_id, _at_r0),
        Claim("EQ40-literal", "per-section product with index-scaled exponents vs the series route",
              (), partial(_vs_egf, needs_lam=True, route=lambda m, p: bell.product_literal(m, p))),
        Claim("EQ40-power", "lam-th power of the single-section factor vs the series route", (),
              partial(_vs_egf, needs_lam=True, route=lambda m, p: bell.product_power(m, p)),
              _everywhere),
        Claim("EX-B1x2", "candidate polynomial for n=2, r=1 evaluated at many points",
              _EX + (("rs", (1,)),), partial(_eval_ex, poly=_ex_b1x2, n=2)),
        Claim("EX-B2x4", "candidate polynomial for n=4, r=2 evaluated at many points",
              _EX + (("rs", (2,)),), partial(_eval_ex, poly=_ex_b2x4, n=4)),
        Claim("EX-B2x6", "candidate polynomial for n=6, r=2 evaluated at many points",
              _EX + (("rs", (2,)),), partial(_eval_ex, poly=_ex_b2x6, n=6)),
        Claim("W4-explicit", "expanded W(n,4) form vs the generic partition sum",
              _LAM1, partial(_eval_w, f=4, n_max=12)),
        Claim("W5-explicit", "expanded W(n,5) form vs the generic partition sum",
              _LAM1, partial(_eval_w, f=5, n_max=12)),
        Claim("ASYMP-r0", "r=0 expansion at full order m=n-1 equals the exact scaled value",
              _LAM1 + (("rs", (0,)),), partial(_eval_asymp, n_max=4, deltas=(100, 1000)),
              _everywhere),
    ]
    return {c.id: replace(c, evaluate=partial(c.evaluate, c.id)) for c in claims}


def run_claims(ids=None, grid: GridSpec | None = None) -> VerificationReport:
    """Evaluate the named claims (all of them by default) over the grid.

    Each distinct axis set is walked once, sorted by ``ParamSet.key``, and a
    point's rows come in ascending n, so rows are written in report order; a
    point the axes repeat is evaluated once, its rows written once per copy."""
    registry = claim_registry()
    if ids is None:
        ids = sorted(registry)
    unknown = sorted(set(ids) - set(registry))
    if unknown:
        raise UnknownClaimError(f"unknown claim ids: {', '.join(unknown)}")
    grid = grid or GridSpec()
    walks: dict = {}  # a claim's axis overrides -> (point, copies) pairs, sorted
    rows = []
    for cid in sorted(set(ids)):
        claim = registry[cid]
        if claim.points not in walks:
            points = Counter(replace(grid, **dict(claim.points)).param_sets())
            walks[claim.points] = sorted(points.items(), key=lambda item: item[0].key)
        for params, copies in walks[claim.points]:
            rows.extend(row for row in claim.evaluate(params, grid) for _ in range(copies))
    return VerificationReport(tuple(rows))


# -- serialization --------------------------------------------------------------


def _point_json(point: tuple) -> str:
    if not point:
        return "[]"
    pairs = ",\n".join(
        f"        [\n          {_js(k)},\n          {_js(v)}\n        ]" for k, v in point
    )
    return "[\n" + pairs + "\n      ]"


def _json_chunks(rows) -> Iterator[bytes]:
    """The JSON report in pieces: each row as json.dumps(..., sort_keys=True,
    indent=2) lays it out, led by the text that precedes it, then the closing
    text (the whole text of an empty report).  A claim's, note's and status's
    text is formatted once, and a point's once per distinct point."""
    claim_text = cache(lambda claim: f'    {{\n      "claim": {_js(claim)},\n      "lhs": ')
    note_text = cache(lambda note: f',\n      "note": {_js(note)},\n      "point": ')
    status_text = cache(lambda status: f',\n      "status": {_js(status)}\n    }}')
    point_json = cache(_point_json)
    lead = '{\n  "rows": [\n'
    for row in rows:
        yield (f"{lead}{claim_text(row.claim)}{_js(row.lhs)}{note_text(row.note)}"
               f'{point_json(row.point)},\n      "rhs": {_js(row.rhs)}{status_text(row.status)}'
               ).encode()
        lead = ",\n"
    yield b"\n  ]\n}\n" if lead == ",\n" else b'{\n  "rows": []\n}\n'


def _csv_chunks(rows) -> Iterator[bytes]:
    """The CSV report, one line per chunk; a point's cell is formatted once."""
    point_text = cache(format_point)
    cells = ([row.claim, point_text(row.point), row.lhs, row.rhs, row.status, row.note]
             for row in rows)
    return map(str.encode, csv_lines(["claim", "point", "lhs", "rhs", "status", "note"], cells))


def _markdown_chunks(rows) -> Iterator[bytes]:
    """The markdown report: a title, then a table per claim, one line per chunk."""
    point_text = cache(partial(format_point, sep="; "))
    yield b"# Verification report\n\n"
    for claim, claim_rows in groupby(rows, lambda row: row.claim):
        yield (f"## {claim}\n\n| point | lhs | rhs | status | note |\n"
               "| --- | --- | --- | --- | --- |\n").encode()
        for row in claim_rows:
            point = point_text(row.point)
            yield f"| {point} | {row.lhs} | {row.rhs} | {row.status} | {row.note} |\n".encode()


def report_chunks(report: VerificationReport, fmt: str) -> Iterator[bytes]:
    """The report in ``fmt`` (json, csv or markdown) as byte chunks, made as they are read."""
    emit = {"json": _json_chunks, "csv": _csv_chunks, "markdown": _markdown_chunks}.get(fmt)
    if emit is None:
        raise ValueError(f"unknown report format: {fmt}")
    return emit(report.rows)


def emit_report(report: VerificationReport, fmt: str) -> bytes:
    """``report_chunks`` written into one buffer; the JSON form is byte-identical
    to ``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline."""
    buf = io.BytesIO()
    buf.writelines(report_chunks(report, fmt))
    return buf.getvalue()


def fixture_summary(report: VerificationReport) -> dict:
    """Per-claim outcome digest used for drift regression: row counts by
    status plus a hash of the claim's serialized rows."""
    counts = report.counts()
    digests = {cid: hashlib.sha256() for cid in counts}
    point_text = cache(format_point)  # once per distinct point
    for row in report.rows:
        line = f"{row.claim}|{point_text(row.point)}|{row.lhs}|{row.rhs}|{row.status}\n"
        digests[row.claim].update(line.encode())
    return {
        cid: {"rows": sum(per.values()), "equal": per[EQUAL], "unequal": per[UNEQUAL],
              "skipped": per[SKIPPED], "sha256": digests[cid].hexdigest()}
        for cid, per in sorted(counts.items())
    }
