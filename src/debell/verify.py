"""Claim registry and grid runner.

Every identity of interest in the family is a named claim evaluated over a
parameter grid in exact arithmetic, alternative readings and variant forms
expected to disagree included.  A run produces a deterministic report of
per-point comparisons; claims that turn out false are recorded, never
patched.  The required-equal subset (see ``REQUIRED_EQUAL``) drives the
harness exit code.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from json.encoder import encode_basestring_ascii as _js
from typing import Callable, Iterable, Iterator

from . import asymptotics, bell
from .exact import ParamSet, as_rat, binomial, falling, format_rat

EQUAL = "EQUAL"
UNEQUAL = "UNEQUAL"
SKIPPED = "SKIPPED"


class UnknownClaimError(ValueError):
    """A requested claim id is not in the registry."""


@dataclass(frozen=True)
class ClaimPoint:
    params: ParamSet
    n: int
    delta: int | None = None
    m: int | None = None

    def as_pairs(self) -> tuple:
        pairs = self.params.as_pairs() + (("n", str(self.n)),)
        if self.delta is not None:
            pairs += (("delta", str(self.delta)),)
        if self.m is not None:
            pairs += (("m", str(self.m)),)
        return pairs


@dataclass(frozen=True)
class ReportRow:
    claim: str
    point: tuple
    lhs: str
    rhs: str
    status: str
    note: str = ""

    def point_dict(self) -> dict:
        return dict(self.point)


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
        return [
            row
            for row in self.rows
            if row.status == UNEQUAL and _row_required_equal(row)
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

    def triples(self, betas=None) -> Iterator[tuple]:
        for a in self.alphas:
            a = as_rat(a)
            for b in self.betas if betas is None else betas:
                b = as_rat(b)
                if a != 0 and b % a != 0:
                    continue
                for g in self.gammas:
                    g = as_rat(g)
                    if a != 0 and g % a != 0:
                        continue
                    yield (a, b, g)

    def param_sets(self, lambdas=None, rs=None, betas=None) -> Iterator[ParamSet]:
        """The grid's points; ``lambdas``, ``rs`` and ``betas`` replace its own axes."""
        lams = self.lambdas if lambdas is None else lambdas
        rvals = self.rs if rs is None else rs
        for a, b, g in self.triples(betas):
            for x in self.xs:
                for lam in lams:
                    for r in rvals:
                        yield ParamSet.make(a, b, g, x, lam, r)


@dataclass(frozen=True)
class Claim:
    id: str
    description: str
    points: Callable[[GridSpec], Iterable[ClaimPoint]]
    evaluate: Callable[[ClaimPoint, GridSpec], ReportRow]


def _row(claim_id: str, point: ClaimPoint, lhs: Fraction, rhs: Fraction, note: str = "") -> ReportRow:
    status = EQUAL if lhs == rhs else UNEQUAL
    return ReportRow(claim_id, point.as_pairs(), format_rat(lhs), format_rat(rhs), status, note)


def _skip(claim_id: str, point: ClaimPoint, note: str) -> ReportRow:
    return ReportRow(claim_id, point.as_pairs(), "", "", SKIPPED, note)


def _default_points(grid: GridSpec, lambdas=None, rs=None) -> Iterator[ClaimPoint]:
    for ps in grid.param_sets(lambdas=lambdas, rs=rs):
        for n in range(grid.max_n + 1):
            yield ClaimPoint(params=ps, n=n)


# -- individual claims ---------------------------------------------------------


def _eval_t5(point: ClaimPoint, grid: GridSpec) -> ReportRow:
    lhs = bell.bell_egf(grid.max_n, point.params)[point.n]
    rhs = bell.bell_lambda1(point.n, point.params)
    return _row("T5", point, lhs, rhs)


def _eval_t33(point: ClaimPoint, grid: GridSpec) -> ReportRow:
    lhs = bell.bell_egf(grid.max_n, point.params)[point.n]
    rhs = bell.bell_general_closed(point.n, point.params)
    return _row("T33", point, lhs, rhs)


def _eval_t3(claim_id: str, shifted_index: bool, point: ClaimPoint, grid: GridSpec) -> ReportRow:
    if point.params.lam < 1:
        return _skip(claim_id, point, "needs lam >= 1")
    r = point.params.r
    lhs = bell.bell_egf(grid.max_n, point.params)[point.n]
    conv = bell.section_convolution(grid.max_n + r, point.params)
    rhs = conv[point.n + r] if shifted_index else conv[point.n]
    return _row(claim_id, point, lhs, rhs)


def _eval_omega_id(point: ClaimPoint, grid: GridSpec) -> ReportRow:
    lhs, rhs = bell.omega_identity_rows(grid.max_n, point.params)[point.n]
    return _row("OMEGA-ID", point, lhs, rhs)


def _eval_eq40(claim_id: str, literal: bool, point: ClaimPoint, grid: GridSpec) -> ReportRow:
    if point.params.lam < 1:
        return _skip(claim_id, point, "needs lam >= 1")
    rows = bell.product_form_check(grid.max_n, point.params)
    row = rows[point.n]
    rhs = row.literal if literal else row.power
    return _row(claim_id, point, row.egf, rhs)


def _ex_points(grid: GridSpec, r: int, n: int) -> Iterator[ClaimPoint]:
    for ps in grid.param_sets(lambdas=grid.ex_lambdas, rs=(r,), betas=grid.ex_betas):
        yield ClaimPoint(params=ps, n=n)


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


def _eval_ex(claim_id: str, poly, point: ClaimPoint, grid: GridSpec) -> ReportRow:
    p = point.params
    lhs = bell.bell_egf(point.n, p)[point.n]
    rhs = poly(p.lam, p.x, p.beta)
    return _row(claim_id, point, lhs, rhs, "candidate polynomial")


def _w_points(grid: GridSpec, f: int) -> Iterator[ClaimPoint]:
    for ps in grid.param_sets(lambdas=(1,)):
        for n in range(f + 1, grid.w_max_n + 1):
            yield ClaimPoint(params=ps, n=n)


def _eval_w(claim_id: str, f: int, point: ClaimPoint, grid: GridSpec) -> ReportRow:
    lhs = asymptotics.w_coefficient(point.n, f, point.params)
    rhs = asymptotics.w_explicit(point.n, f, point.params)
    return _row(claim_id, point, lhs, rhs, "generic sum vs expanded form")


def _asymp_points(grid: GridSpec) -> Iterator[ClaimPoint]:
    for ps in grid.param_sets(lambdas=(1,), rs=(0,)):
        for n in grid.asymp_n:
            for delta in grid.deltas:
                yield ClaimPoint(params=ps, n=n, delta=delta, m=n - 1)


def _eval_asymp(point: ClaimPoint, grid: GridSpec) -> ReportRow:
    cmp = asymptotics.bell_asymptotic_estimate(point.n, point.m, point.delta, point.params)
    return _row("ASYMP-r0", point, cmp.estimate, cmp.exact, "full-order expansion vs exact")


@lru_cache(maxsize=1)
def claim_registry() -> dict:
    claims = [
        Claim("T5",
              "lam=1 closed sum over r-derangements and Stirling numbers equals the series route",
              partial(_default_points, lambdas=(1,)), _eval_t5),
        Claim("T33", "binomially weighted closed sum vs the series route, all lam",
              _default_points, _eval_t33),
        Claim("T3-n", "section convolution over compositions of n vs the series route",
              _default_points, partial(_eval_t3, "T3-n", False)),
        Claim("T3-nr", "section convolution with the n+r upper index vs the series route",
              _default_points, partial(_eval_t3, "T3-nr", True)),
        Claim("OMEGA-ID", "fixed-block decomposition of omega[n+r] vs its closed sum",
              _default_points, _eval_omega_id),
        Claim("EQ40-literal", "per-section product with index-scaled exponents vs the series route",
              _default_points, partial(_eval_eq40, "EQ40-literal", True)),
        Claim("EQ40-power", "lam-th power of the single-section factor vs the series route",
              _default_points, partial(_eval_eq40, "EQ40-power", False)),
        Claim("EX-B1x2", "candidate polynomial for n=2, r=1 evaluated at many points",
              partial(_ex_points, r=1, n=2), partial(_eval_ex, "EX-B1x2", _ex_b1x2)),
        Claim("EX-B2x4", "candidate polynomial for n=4, r=2 evaluated at many points",
              partial(_ex_points, r=2, n=4), partial(_eval_ex, "EX-B2x4", _ex_b2x4)),
        Claim("EX-B2x6", "candidate polynomial for n=6, r=2 evaluated at many points",
              partial(_ex_points, r=2, n=6), partial(_eval_ex, "EX-B2x6", _ex_b2x6)),
        Claim("W4-explicit", "expanded W(n,4) form vs the generic partition sum",
              partial(_w_points, f=4), partial(_eval_w, "W4-explicit", 4)),
        Claim("W5-explicit", "expanded W(n,5) form vs the generic partition sum",
              partial(_w_points, f=5), partial(_eval_w, "W5-explicit", 5)),
        Claim("ASYMP-r0", "r=0 expansion at full order m=n-1 equals the exact scaled value",
              _asymp_points, _eval_asymp),
    ]
    return {c.id: c for c in claims}


# Rows that must be EQUAL for a verification run to pass; everything else is
# recorded only (the variant-form and worked-example claims are expected to
# differ at many points, and the fixture regression pins their exact outcomes).
REQUIRED_EQUAL: dict = {
    "T5": lambda point: True,
    "T3-n": lambda point: True,
    "EQ40-power": lambda point: True,
    "ASYMP-r0": lambda point: True,
    "OMEGA-ID": lambda point: point.get("r") == "0",
}


def _row_required_equal(row: ReportRow) -> bool:
    pred = REQUIRED_EQUAL.get(row.claim)
    return bool(pred and pred(row.point_dict()))


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
        for point in claim.points(grid):
            rows.append(claim.evaluate(point, grid))
    value = cache(Fraction)  # a few dozen distinct point strings
    rows.sort(key=lambda row: (row.claim, tuple(value(v) for _, v in row.point)))
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
            point = ";".join(f"{k}={v}" for k, v in row.point)
            writer.writerow([row.claim, point, row.lhs, row.rhs, row.status, row.note])
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


def report_from_json(data: bytes) -> VerificationReport:
    payload = json.loads(data.decode())
    rows = tuple(
        ReportRow(
            claim=item["claim"],
            point=tuple((k, v) for k, v in item["point"]),
            lhs=item["lhs"],
            rhs=item["rhs"],
            status=item["status"],
            note=item["note"],
        )
        for item in payload["rows"]
    )
    return VerificationReport(rows)


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
            point = ";".join(f"{k}={v}" for k, v in row.point)
            digest.update(f"{row.claim}|{point}|{row.lhs}|{row.rhs}|{row.status}\n".encode())
        out[cid] = {
            "rows": len(rows),
            "equal": sum(1 for r in rows if r.status == EQUAL),
            "unequal": sum(1 for r in rows if r.status == UNEQUAL),
            "skipped": sum(1 for r in rows if r.status == SKIPPED),
            "sha256": digest.hexdigest(),
        }
    return out
