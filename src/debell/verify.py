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
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import groupby, product
from json.encoder import encode_basestring_ascii as _js
from math import factorial
from typing import Callable, Iterable, Iterator, NamedTuple

from . import asymptotics, bell
from .exact import ParamSet, as_rat, binomial, csv_lines, falling, format_point, format_rat

EQUAL = "EQUAL"
UNEQUAL = "UNEQUAL"
SKIPPED = "SKIPPED"


class UnknownClaimError(ValueError):
    """A requested claim id is not in the registry."""


class ReportRow(NamedTuple):
    claim: str
    point: tuple
    lhs: str
    rhs: str
    status: str
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple

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
        if self.max_n is not None and (bound is None or self.max_n < bound):
            return self.max_n
        return 8 if bound is None else bound

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


@lru_cache(maxsize=None)
def _points(params: ParamSet, top: int) -> tuple:
    """A row's point, the parameters then n, for n = 0..top: built once per (point, top),
    so every claim's rows at one point share one tuple per n, with no lookup per row."""
    pairs = params.as_pairs()
    return tuple([pairs + (("n", str(n)),) for n in range(top + 1)])


def _vs(claim: Claim, params: ParamSet, grid: GridSpec, lhs_r=False, rhs_r=False) -> Iterator:
    """n = 0..top: the vector routes ``claim.lhs`` and ``claim.rhs``, read off ``bell`` when
    called (a patched route is the one that runs), a side flagged ``*_r`` read at n + r.  The
    lhs is built to top + r, the length every B reader asks for, so a point builds B once."""
    top, r = grid.top(), params.r
    rhs = getattr(bell, claim.rhs)(top + r if rhs_r else top, params)
    lhs = getattr(bell, claim.lhs)(top + r, params)
    return zip(_points(params, top), lhs[r * lhs_r:], rhs[r * rhs_r:])


@dataclass(frozen=True)
class Claim:
    """A named identity between the functions named ``lhs`` and ``rhs`` (in ``bell``,
    ``asymptotics`` or this module), evaluated at the grid's points with the (axis, values)
    pairs of ``points`` replacing those axes: ``values(claim, params, grid)`` gives a point's
    (point, lhs, rhs) triples in ascending n (then delta, then m), and ``evaluate``, the row
    writer ``_rows`` bound by ``claim_registry()``, its rows.  ``required(point)``, ``point`` a
    row's point as a dict, is true for a row that must be EQUAL; a claim whose ``required`` is
    None is recorded only (variant forms and worked examples, whose outcomes the fixture pins)."""

    id: str
    description: str
    points: tuple
    lhs: str
    rhs: str
    required: Callable[[dict], bool] | None = None
    values: Callable[..., Iterable[tuple]] = _vs
    note: str = ""
    needs_lam: bool = False
    evaluate: Callable[..., list] | None = None


def _rows(claim: Claim, params: ParamSet, grid: GridSpec) -> list:
    """The row writer: one point's rows of ``claim``, each judged EQUAL or UNEQUAL with the
    claim's note, an EQUAL row's rhs text its lhs text (``format_rat`` is canonical), or,
    for a claim that ``needs_lam`` >= 1, SKIPPED rows n = 0..top at lam = 0.  Each row is
    made by ``tuple.__new__``: the same ``ReportRow``, without its Python-level ``__new__``."""
    new, cid, note = tuple.__new__, claim.id, claim.note
    if claim.needs_lam and params.lam < 1:
        return [new(ReportRow, (cid, point, "", "", SKIPPED, "needs lam >= 1"))
                for point in _points(params, grid.top())]
    return [new(ReportRow, (cid, point, text, text, EQUAL, note)) if lhs == rhs
            else new(ReportRow, (cid, point, text, format_rat(rhs), UNEQUAL, note))
            for point, lhs, rhs in claim.values(claim, params, grid) for text in (format_rat(lhs),)]


# -- individual claims ---------------------------------------------------------


def _ex_b1x2(lam: int, x: Fraction, beta: Fraction) -> Fraction:
    return lam**2 * x**2 * beta**2 + lam * x**2 * beta**2


def _ex_b2x4(lam: int, x: Fraction, beta: Fraction) -> Fraction:
    return (Fraction(lam**4, 2) - Fraction(lam**3, 2) + 2 * lam**3 + Fraction(lam**2, 2)
            - 3 * lam) * x**4 * beta**4


def _ex_b2x6(lam: int, x: Fraction, beta: Fraction) -> Fraction:
    return binomial(lam + 5, 6) * falling(6, 3) * x**6 * beta**6


def _ex(claim: Claim, params: ParamSet, grid: GridSpec, n: int) -> list:
    """B[n] against the candidate polynomial named ``claim.rhs`` in this module."""
    if grid.top(n) < n:
        return []
    _, beta, _, x, lam, r = params.key
    b = getattr(bell, claim.lhs)(grid.top() + r, params)
    return [(_points(params, grid.top())[n], b[n], globals()[claim.rhs](lam, x, beta))]


def _w(claim: Claim, params: ParamSet, grid: GridSpec, f: int, n_max: int) -> list:
    """W(n, f) at n = f+1..top, both sides read as one column each off one base vector."""
    top = grid.top(n_max)
    if top <= f:
        return []
    c, ns = bell.lambda1_sums(top, params), range(f + 1, top + 1)
    lhs, rhs = (getattr(asymptotics, side)(c, f, ns) for side in (claim.lhs, claim.rhs))
    return list(zip(_points(params, top)[f + 1:], lhs, rhs))


def _asymp(claim: Claim, params: ParamSet, grid: GridSpec, n_max: int, deltas: tuple) -> list:
    """n = 1..top, then each delta: the full-order sums off one base vector, every delta read
    at once, against one scaled B vector per delta."""
    top = grid.top(n_max)
    if top < 1:
        return []
    c = bell.lambda1_sums(top, params)
    lhs, rhs = getattr(asymptotics, claim.lhs), getattr(asymptotics, claim.rhs)
    exact = [rhs(top, delta, params) for delta in deltas]
    points = _points(params, top)
    return [(points[n] + (("delta", str(delta)), ("m", str(n - 1))), estimate,
             Fraction(b[n], factorial(n)))
            for n, estimates in enumerate(lhs(c, deltas, top), 1)
            for delta, b, estimate in zip(deltas, exact, estimates)]


def _everywhere(point: dict) -> bool:
    return True


def _at_r0(point: dict) -> bool:
    return point.get("r") == "0"


# The axis sets the claims replace; the full grid is ``()``.
_LAM1 = (("lambdas", (1,)),)
_EX = (("lambdas", tuple(range(9))), ("betas", (1, 2)))


@lru_cache(maxsize=1)
def claim_registry() -> dict:
    claims = [
        Claim("T5",
              "lam=1 closed sum over r-derangements and Stirling numbers equals the series route",
              _LAM1, "bell_egf", "lambda1_sums", _everywhere),
        Claim("T33", "binomially weighted closed sum vs the series route, all lam", (),
              "bell_egf", "general_closed_sums"),
        Claim("T3-n", "section convolution over compositions of n vs the series route", (),
              "bell_egf", "section_convolution", _everywhere, needs_lam=True),
        Claim("T3-nr", "section convolution with the n+r upper index vs the series route", (),
              "bell_egf", "section_convolution", values=partial(_vs, rhs_r=True), needs_lam=True),
        Claim("OMEGA-ID", "fixed-block decomposition of omega[n+r] vs its closed sum", (),
              "omega_sums", "fixed_block_sums", _at_r0, partial(_vs, lhs_r=True, rhs_r=True)),
        Claim("EQ40-literal", "per-section product with index-scaled exponents vs the series route",
              (), "bell_egf", "product_literal", needs_lam=True),
        Claim("EQ40-power", "lam-th power of the single-section factor vs the series route", (),
              "bell_egf", "product_power", _everywhere, needs_lam=True),
        Claim("EX-B1x2", "candidate polynomial for n=2, r=1 evaluated at many points",
              _EX + (("rs", (1,)),), "bell_egf", "_ex_b1x2", values=partial(_ex, n=2),
              note="candidate polynomial"),
        Claim("EX-B2x4", "candidate polynomial for n=4, r=2 evaluated at many points",
              _EX + (("rs", (2,)),), "bell_egf", "_ex_b2x4", values=partial(_ex, n=4),
              note="candidate polynomial"),
        Claim("EX-B2x6", "candidate polynomial for n=6, r=2 evaluated at many points",
              _EX + (("rs", (2,)),), "bell_egf", "_ex_b2x6", values=partial(_ex, n=6),
              note="candidate polynomial"),
        Claim("W4-explicit", "expanded W(n,4) form vs the generic partition sum", _LAM1,
              "w_column", "w_explicit_column", values=partial(_w, f=4, n_max=12),
              note="generic sum vs expanded form"),
        Claim("W5-explicit", "expanded W(n,5) form vs the generic partition sum", _LAM1,
              "w_column", "w_explicit_column", values=partial(_w, f=5, n_max=12),
              note="generic sum vs expanded form"),
        Claim("ASYMP-r0", "r=0 expansion at full order m=n-1 equals the exact scaled value",
              _LAM1 + (("rs", (0,)),), "full_expansions", "scaled_bell", _everywhere,
              partial(_asymp, n_max=4, deltas=(100, 1000)), note="full-order expansion vs exact"),
    ]
    return {c.id: replace(c, evaluate=partial(_rows, c)) for c in claims}


def claim_ids(ids=None) -> list:
    """``ids`` sorted, each once (all ids when None); an unknown id raises UnknownClaimError."""
    unknown = sorted(set(ids or ()) - set(claim_registry()))
    if unknown:
        raise UnknownClaimError(f"unknown claim ids: {', '.join(unknown)}")
    return sorted(claim_registry() if ids is None else set(ids))


def run_claims(ids=None, grid: GridSpec | None = None) -> VerificationReport:
    """Evaluate the named claims (all of them by default) over the grid.

    Each distinct axis set is walked once, sorted by ``ParamSet.key``, and a
    point's rows come in ascending n, so rows are written in report order; a
    point the axes repeat is evaluated once, its rows written once per copy."""
    registry = claim_registry()
    grid = grid or GridSpec()
    walks: dict = {}  # a claim's axis overrides -> (point, copies) pairs, sorted
    rows = []
    for cid in claim_ids(ids):
        claim = registry[cid]
        if claim.points not in walks:
            points = Counter(replace(grid, **dict(claim.points)).param_sets())
            walks[claim.points] = sorted(points.items(), key=lambda item: item[0].key)
        for params, copies in walks[claim.points]:
            new = claim.evaluate(params, grid)
            rows.extend(new if copies == 1 else (row for row in new for _ in range(copies)))
    return VerificationReport(tuple(rows))


# -- serialization --------------------------------------------------------------


def _json_chunks(rows) -> Iterator[bytes]:
    """The JSON report in pieces: each row as json.dumps(..., sort_keys=True,
    indent=2) lays it out, led by the text that precedes it, then the closing
    text (the whole text of an empty report).  Each distinct claim's, note's, status's,
    point's and (key, value) pair's text is formatted once, into a dict local to the call
    (``d.get(k) or d.setdefault(k, text)``: texts are nonempty, so only a miss formats)."""
    pairs, points, claims, notes, statuses = {}, {}, {}, {}, {}

    def pair_text(pair):
        return pairs.get(pair) or pairs.setdefault(
            pair, f"        [\n          {_js(pair[0])},\n          {_js(pair[1])}\n        ]")

    lead = '{\n  "rows": [\n'
    for claim, point, lhs, rhs, status, note in rows:  # unpacked: faster than six attribute reads
        c = claims.get(claim) or claims.setdefault(
            claim, f'    {{\n      "claim": {_js(claim)},\n      "lhs": ')
        n = notes.get(note) or notes.setdefault(
            note, f',\n      "note": {_js(note)},\n      "point": ')
        p = points.get(point) or points.setdefault(
            point, "[\n" + ",\n".join(map(pair_text, point)) + "\n      ]" if point else "[]")
        s = statuses.get(status) or statuses.setdefault(
            status, f',\n      "status": {_js(status)}\n    }}')
        yield f'{lead}{c}{_js(lhs)}{n}{p},\n      "rhs": {_js(rhs)}{s}'.encode()
        lead = ",\n"
    yield b"\n  ]\n}\n" if lead == ",\n" else b'{\n  "rows": []\n}\n'


def _csv_chunks(rows) -> Iterator[bytes]:
    """The CSV report, one line per chunk; a point's cell is formatted once."""
    point_text = cache(format_point)
    cells = ([claim, point_text(point), lhs, rhs, status, note]
             for claim, point, lhs, rhs, status, note in rows)
    return map(str.encode, csv_lines(["claim", "point", "lhs", "rhs", "status", "note"], cells))


def _markdown_chunks(rows) -> Iterator[bytes]:
    """The markdown report: a title, then a table per claim, one line per chunk."""
    point_text = cache(partial(format_point, sep="; "))
    yield b"# Verification report\n\n"
    for claim, claim_rows in groupby(rows, lambda row: row.claim):
        yield (f"## {claim}\n\n| point | lhs | rhs | status | note |\n"
               "| --- | --- | --- | --- | --- |\n").encode()
        for _, point, lhs, rhs, status, note in claim_rows:
            yield f"| {point_text(point)} | {lhs} | {rhs} | {status} | {note} |\n".encode()


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
    status plus a hash of the claim's serialized rows, both taken in one pass."""
    tallies = defaultdict(lambda: (Counter(), hashlib.sha256()))  # statuses counted, rows hashed
    point_text = cache(format_point)  # once per distinct point
    for claim, point, lhs, rhs, status, _ in report.rows:
        per, digest = tallies[claim]
        per[status] += 1
        digest.update(f"{claim}|{point_text(point)}|{lhs}|{rhs}|{status}\n".encode())
    return {
        cid: {"rows": sum(per.values()), "equal": per[EQUAL], "unequal": per[UNEQUAL],
              "skipped": per[SKIPPED], "sha256": digest.hexdigest()}
        for cid, (per, digest) in sorted(tallies.items())
    }
