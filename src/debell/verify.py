"""Claim registry and grid runner.

Every identity of interest in the family is a named claim evaluated over a
parameter grid in exact arithmetic, alternative readings and variant forms
expected to disagree included.  A run produces a deterministic report of
per-point comparisons; claims that turn out false are recorded, never
patched.  A claim's ``required`` rule names the rows that must be EQUAL, and
those rows alone drive the harness exit code.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, lru_cache, partial
from json.encoder import encode_basestring_ascii as _js
from typing import Callable, Iterable, Iterator

from . import asymptotics, bell
from .exact import ParamSet, as_rat, binomial, falling, format_point, format_rat, narrow

EQUAL = "EQUAL"
UNEQUAL = "UNEQUAL"
SKIPPED = "SKIPPED"


class UnknownClaimError(ValueError):
    """A requested claim id is not in the registry."""


@dataclass(frozen=True)
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
    """Parameter grid for claim evaluation.

    The weight triples honour the divisibility alpha | beta, alpha | gamma
    (alpha = 0 passes everything); the `ex_*` fields drive the worked-example
    claims, `w_max_n` the explicit-display claims, and `deltas`/`asymp_n` the
    expansion claim.
    """

    alphas: tuple = (0, 1, 2)
    betas: tuple = (1, 2, 4)
    gammas: tuple = (0, 2, 4)
    xs: tuple = (1, 2)
    lambdas: tuple = (0, 1, 2, 3)
    rs: tuple = (0, 1, 2)
    max_n: int = 8
    ex_lambdas: tuple = tuple(range(9))
    ex_betas: tuple = (1, 2)
    w_max_n: int = 12
    deltas: tuple = (100, 1000)
    asymp_n: tuple = (1, 2, 3, 4)

    @classmethod
    def default(cls) -> "GridSpec":
        return cls()

    def triples(self) -> Iterator[tuple]:
        for a in self.alphas:
            a = as_rat(a)
            for b in self.betas:
                b = as_rat(b)
                if a != 0 and b % a != 0:
                    continue
                for g in self.gammas:
                    g = as_rat(g)
                    if a != 0 and g % a != 0:
                        continue
                    yield (a, b, g)

    def param_sets(self) -> Iterator[ParamSet]:
        for a, b, g in self.triples():
            for x in self.xs:
                for lam in self.lambdas:
                    for r in self.rs:
                        yield ParamSet.make(a, b, g, x, lam, r)


@dataclass(frozen=True)
class Claim:
    """A named identity: ``points(grid)`` yields the parameter points and
    ``evaluate(params, grid)`` returns every report row of one point.
    ``required(point)`` is true for a row that must be EQUAL, ``point`` being
    the row's point as a dict; a claim whose ``required`` is None is recorded
    only (the variant-form and worked-example claims are expected to differ
    at many points, and the fixture regression pins their exact outcomes)."""

    id: str
    description: str
    points: Callable[[GridSpec], Iterable[ParamSet]]
    evaluate: Callable[[ParamSet, GridSpec], list]
    required: Callable[[dict], bool] | None = None


def _points(grid: GridSpec, **axes) -> Iterator[ParamSet]:
    """The grid's points with ``axes`` replacing its own; an axis given as a
    string names another field of the grid (``lambdas="ex_lambdas"``)."""
    axes = {k: getattr(grid, v) if isinstance(v, str) else v for k, v in axes.items()}
    return replace(grid, **axes).param_sets()


def _at(params: ParamSet, n: int, **extra) -> tuple:
    """A row's point: the parameters, n, then ``extra`` in the order given."""
    return params.as_pairs() + (("n", str(n)),) + tuple((k, str(v)) for k, v in extra.items())


def _row(claim_id: str, point: tuple, lhs: Fraction, rhs: Fraction, note: str = "") -> ReportRow:
    status = EQUAL if lhs == rhs else UNEQUAL
    return ReportRow(claim_id, point, format_rat(lhs), format_rat(rhs), status, note)


def _vs_egf(claim_id: str, params: ParamSet, grid: GridSpec, rhs) -> list:
    """Rows n = 0..max_n comparing the series route B[n] with ``rhs[n]``."""
    lhs = bell.bell_egf(grid.max_n, params)
    return [_row(claim_id, _at(params, n), lhs[n], rhs[n]) for n in range(grid.max_n + 1)]


def _skips(claim_id: str, params: ParamSet, grid: GridSpec, note: str) -> list:
    return [ReportRow(claim_id, _at(params, n), "", "", SKIPPED, note) for n in range(grid.max_n + 1)]


# -- individual claims ---------------------------------------------------------


def _eval_t5(params: ParamSet, grid: GridSpec) -> list:
    rhs = [bell.bell_lambda1(n, params) for n in range(grid.max_n + 1)]
    return _vs_egf("T5", params, grid, rhs)


def _eval_t33(params: ParamSet, grid: GridSpec) -> list:
    rhs = [bell.bell_general_closed(n, params) for n in range(grid.max_n + 1)]
    return _vs_egf("T33", params, grid, rhs)


def _eval_t3(claim_id: str, shifted_index: bool, params: ParamSet, grid: GridSpec) -> list:
    if params.lam < 1:
        return _skips(claim_id, params, grid, "needs lam >= 1")
    r = params.r
    conv = bell.section_convolution(grid.max_n + r, params)
    return _vs_egf(claim_id, params, grid, conv[r:] if shifted_index else conv)


def _eval_omega_id(params: ParamSet, grid: GridSpec) -> list:
    rows = bell.omega_identity_rows(grid.max_n, params)
    return [_row("OMEGA-ID", _at(params, n), lhs, rhs) for n, (lhs, rhs) in enumerate(rows)]


def _eval_eq40(claim_id: str, literal: bool, params: ParamSet, grid: GridSpec) -> list:
    if params.lam < 1:
        return _skips(claim_id, params, grid, "needs lam >= 1")
    route = bell.product_literal if literal else bell.product_power
    return _vs_egf(claim_id, params, grid, route(grid.max_n, params))


def _ex_b1x2(lam: int, x: Fraction, beta: Fraction) -> Fraction:
    return lam**2 * x**2 * beta**2 + lam * x**2 * beta**2


def _ex_b2x4(lam: int, x: Fraction, beta: Fraction) -> Fraction:
    xb = x**4 * beta**4
    return (
        Fraction(lam**4, 2) * xb
        - Fraction(lam**3, 2) * xb
        + 2 * lam**3 * xb
        + Fraction(lam**2, 2) * xb
        - 3 * lam * xb
    )


def _ex_b2x6(lam: int, x: Fraction, beta: Fraction) -> Fraction:
    return binomial(lam + 5, 6) * falling(6, 3) * x**6 * beta**6


def _eval_ex(claim_id: str, poly, n: int, params: ParamSet, grid: GridSpec) -> list:
    lhs = bell.bell_egf(n, params)[n]
    rhs = poly(params.lam, params.x, params.beta)
    return [_row(claim_id, _at(params, n), lhs, rhs, "candidate polynomial")]


def _eval_w(claim_id: str, f: int, params: ParamSet, grid: GridSpec) -> list:
    b = asymptotics.bell_base(params, max(grid.w_max_n, 6))
    return [
        _row(claim_id, _at(params, n), asymptotics.w_from_base(b, n, f),
             asymptotics.w_explicit(b, n, f), "generic sum vs expanded form")
        for n in range(f + 1, grid.w_max_n + 1)
    ]


def _eval_asymp(params: ParamSet, grid: GridSpec) -> list:
    rows = []
    for n in grid.asymp_n:
        for delta in grid.deltas:
            cmp = asymptotics.bell_asymptotic_estimate(n, n - 1, delta, params)
            rows.append(_row("ASYMP-r0", _at(params, n, delta=delta, m=n - 1), cmp.estimate,
                             cmp.exact, "full-order expansion vs exact"))
    return rows


def _everywhere(point: dict) -> bool:
    return True


def _at_r0(point: dict) -> bool:
    return point.get("r") == "0"


@lru_cache(maxsize=1)
def claim_registry() -> dict:
    ex_points = partial(_points, lambdas="ex_lambdas", betas="ex_betas")
    claims = [
        Claim("T5",
              "lam=1 closed sum over r-derangements and Stirling numbers equals the series route",
              partial(_points, lambdas=(1,)), _eval_t5, _everywhere),
        Claim("T33", "binomially weighted closed sum vs the series route, all lam",
              _points, _eval_t33),
        Claim("T3-n", "section convolution over compositions of n vs the series route",
              _points, partial(_eval_t3, "T3-n", False), _everywhere),
        Claim("T3-nr", "section convolution with the n+r upper index vs the series route",
              _points, partial(_eval_t3, "T3-nr", True)),
        Claim("OMEGA-ID", "fixed-block decomposition of omega[n+r] vs its closed sum",
              _points, _eval_omega_id, _at_r0),
        Claim("EQ40-literal", "per-section product with index-scaled exponents vs the series route",
              _points, partial(_eval_eq40, "EQ40-literal", True)),
        Claim("EQ40-power", "lam-th power of the single-section factor vs the series route",
              _points, partial(_eval_eq40, "EQ40-power", False), _everywhere),
        Claim("EX-B1x2", "candidate polynomial for n=2, r=1 evaluated at many points",
              partial(ex_points, rs=(1,)), partial(_eval_ex, "EX-B1x2", _ex_b1x2, 2)),
        Claim("EX-B2x4", "candidate polynomial for n=4, r=2 evaluated at many points",
              partial(ex_points, rs=(2,)), partial(_eval_ex, "EX-B2x4", _ex_b2x4, 4)),
        Claim("EX-B2x6", "candidate polynomial for n=6, r=2 evaluated at many points",
              partial(ex_points, rs=(2,)), partial(_eval_ex, "EX-B2x6", _ex_b2x6, 6)),
        Claim("W4-explicit", "expanded W(n,4) form vs the generic partition sum",
              partial(_points, lambdas=(1,)), partial(_eval_w, "W4-explicit", 4)),
        Claim("W5-explicit", "expanded W(n,5) form vs the generic partition sum",
              partial(_points, lambdas=(1,)), partial(_eval_w, "W5-explicit", 5)),
        Claim("ASYMP-r0", "r=0 expansion at full order m=n-1 equals the exact scaled value",
              partial(_points, lambdas=(1,), rs=(0,)), _eval_asymp, _everywhere),
    ]
    return {c.id: c for c in claims}


def run_claims(ids=None, grid: GridSpec | None = None) -> VerificationReport:
    """Evaluate the named claims (all of them by default) over the grid."""
    registry = claim_registry()
    if ids is None:
        ids = sorted(registry)
    unknown = sorted(set(ids) - set(registry))
    if unknown:
        raise UnknownClaimError(f"unknown claim ids: {', '.join(unknown)}")
    grid = grid or GridSpec.default()
    rows = []
    for cid in sorted(set(ids)):
        claim = registry[cid]
        for params in claim.points(grid):
            rows.extend(claim.evaluate(params, grid))
    value = cache(lambda text: narrow(Fraction(text)))  # a few dozen distinct point strings
    point_key = cache(lambda point: tuple(value(v) for _, v in point))  # shared across claims
    rows.sort(key=lambda row: (row.claim, point_key(row.point)))
    return VerificationReport(tuple(rows))


# -- serialization --------------------------------------------------------------


# One report row as json.dumps(..., sort_keys=True, indent=2) lays it out.
_JSON_ROW = (
    '    {{\n      "claim": {claim},\n      "lhs": {lhs},\n      "note": {note},\n'
    '      "point": {point},\n      "rhs": {rhs},\n      "status": {status}\n    }}'
)


def _point_json(point: tuple) -> str:
    if not point:
        return "[]"
    pairs = ",\n".join(
        f"        [\n          {_js(k)},\n          {_js(v)}\n        ]" for k, v in point
    )
    return "[\n" + pairs + "\n      ]"


def emit_report(report: VerificationReport, fmt: str) -> bytes:
    """The report as bytes; the JSON form is byte-identical to
    ``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline."""
    if fmt == "json":
        if not report.rows:
            return b'{\n  "rows": []\n}\n'
        point_json = cache(_point_json)
        body = ",\n".join(
            _JSON_ROW.format(claim=_js(row.claim), lhs=_js(row.lhs), note=_js(row.note),
                             point=point_json(row.point), rhs=_js(row.rhs),
                             status=_js(row.status))
            for row in report.rows
        )
        return ('{\n  "rows": [\n' + body + "\n  ]\n}\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["claim", "point", "lhs", "rhs", "status", "note"])
        for row in report.rows:
            writer.writerow([row.claim, format_point(row.point), row.lhs, row.rhs, row.status,
                             row.note])
        return buf.getvalue().encode()
    if fmt == "markdown":
        lines = ["# Verification report", ""]
        current = None
        for row in report.rows:
            if row.claim != current:
                current = row.claim
                lines += [f"## {current}", "", "| point | lhs | rhs | status | note |",
                          "| --- | --- | --- | --- | --- |"]
            point = "; ".join(f"{k}={v}" for k, v in row.point)
            lines.append(f"| {point} | {row.lhs} | {row.rhs} | {row.status} | {row.note} |")
        lines.append("")
        return "\n".join(lines).encode()
    raise ValueError(f"unknown report format: {fmt}")


def fixture_summary(report: VerificationReport) -> dict:
    """Per-claim outcome digest used for drift regression: row counts by
    status plus a hash of the claim's serialized rows."""
    by_claim: dict = {}
    for row in report.rows:
        by_claim.setdefault(row.claim, []).append(row)
    out = {}
    for cid in sorted(by_claim):
        rows = by_claim[cid]
        digest = hashlib.sha256()
        for row in rows:
            point = format_point(row.point)
            digest.update(f"{row.claim}|{point}|{row.lhs}|{row.rhs}|{row.status}\n".encode())
        out[cid] = {
            "rows": len(rows),
            "equal": sum(1 for r in rows if r.status == EQUAL),
            "unequal": sum(1 for r in rows if r.status == UNEQUAL),
            "skipped": sum(1 for r in rows if r.status == SKIPPED),
            "sha256": digest.hexdigest(),
        }
    return out
