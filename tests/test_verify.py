import json
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from debell import bell
from debell.exact import narrow
from debell.verify import (
    EQUAL,
    SKIPPED,
    UNEQUAL,
    GridSpec,
    ReportRow,
    UnknownClaimError,
    VerificationReport,
    claim_registry,
    emit_report,
    fixture_summary,
    run_claims,
)


def report_from_json(data: bytes) -> VerificationReport:
    """Parse the JSON form of a report back into rows."""
    rows = tuple(
        ReportRow(item["claim"], tuple(map(tuple, item["point"])), item["lhs"], item["rhs"],
                  item["status"], item["note"])
        for item in json.loads(data.decode())["rows"]
    )
    return VerificationReport(rows)


ALL_CLAIM_IDS = [
    "T5",
    "T33",
    "T3-n",
    "T3-nr",
    "OMEGA-ID",
    "EQ40-literal",
    "EQ40-power",
    "EX-B1x2",
    "EX-B2x4",
    "EX-B2x6",
    "W4-explicit",
    "W5-explicit",
    "ASYMP-r0",
]

SMALL_GRID = GridSpec(
    alphas=(0, 1),
    betas=(1, 2),
    gammas=(0, 2),
    xs=(1,),
    lambdas=(0, 1, 2),
    rs=(0, 1),
    max_n=4,
    ex_lambdas=(0, 1, 2),
    ex_betas=(1,),
    w_max_n=6,
    deltas=(50,),
    asymp_n=(1, 2),
)


class TestRegistry:
    def test_contains_every_claim(self):
        assert sorted(claim_registry()) == sorted(ALL_CLAIM_IDS)

    def test_unknown_id_rejected_before_evaluation(self):
        with pytest.raises(UnknownClaimError):
            run_claims(["T5", "NOT-A-CLAIM"], SMALL_GRID)

    def test_descriptions_present(self):
        for claim in claim_registry().values():
            assert claim.description

    def test_required_claims_and_the_omega_id_rule(self):
        # the claims whose UNEQUAL rows fail a run; every other claim is recorded only
        registry = claim_registry()
        required = {cid: claim.required for cid, claim in registry.items() if claim.required}
        assert sorted(required) == ["ASYMP-r0", "EQ40-power", "OMEGA-ID", "T3-n", "T5"]
        for cid in ("ASYMP-r0", "EQ40-power", "T3-n", "T5"):
            assert all(required[cid]({"r": r}) for r in ("0", "1", "2"))
        assert [required["OMEGA-ID"]({"r": r}) for r in ("0", "1", "2")] == [True, False, False]


class TestPerPointEvaluation:
    def test_vectors_built_once_per_point(self, monkeypatch):
        calls = {"omega_identity_rows": 0, "section_convolution": 0}
        for name in calls:
            def counted(*args, _name=name, _route=getattr(bell, name)):
                calls[_name] += 1
                return _route(*args)

            monkeypatch.setattr(bell, name, counted)
        report = run_claims(["OMEGA-ID", "T3-n"], SMALL_GRID)
        points = list(SMALL_GRID.param_sets())
        assert len(report.rows) == 2 * len(points) * (SMALL_GRID.max_n + 1)
        assert calls == {
            "omega_identity_rows": len(points),
            "section_convolution": sum(1 for p in points if p.lam >= 1),
        }


class TestOutcomes:
    def test_t5_all_equal(self):
        report = run_claims(["T5"], SMALL_GRID)
        counts = report.counts()["T5"]
        assert counts[UNEQUAL] == 0 and counts[EQUAL] > 0

    def test_eq40_power_equal_with_skips_at_lambda_zero(self):
        report = run_claims(["EQ40-power"], SMALL_GRID)
        counts = report.counts()["EQ40-power"]
        assert counts[UNEQUAL] == 0
        assert counts[SKIPPED] > 0  # the lam = 0 rows
        assert report.all_required_equal

    def test_omega_id_required_only_at_r_zero(self):
        report = run_claims(["OMEGA-ID"], SMALL_GRID)
        counts = report.counts()["OMEGA-ID"]
        assert counts[UNEQUAL] > 0  # r >= 1 rows differ
        assert report.all_required_equal  # but none of them at r = 0
        for row in report.rows:
            if row.status == UNEQUAL:
                assert dict(row.point)["r"] != "0"

    def test_recorded_claims_do_not_fail_the_run(self):
        report = run_claims(["EX-B1x2", "T3-nr"], SMALL_GRID)
        assert any(r.status == UNEQUAL for r in report.rows)
        assert report.all_required_equal


class TestDeterminism:
    def test_two_runs_identical_bytes(self):
        ids = ["T5", "EX-B1x2", "W4-explicit"]
        first = emit_report(run_claims(ids, SMALL_GRID), "json")
        second = emit_report(run_claims(ids, SMALL_GRID), "json")
        assert first == second

    def test_rows_sorted_by_claim_then_point(self):
        report = run_claims(["T5", "EX-B1x2"], SMALL_GRID)
        claims = [row.claim for row in report.rows]
        assert claims == sorted(claims)


def _rows_sorted_per_row(grid: GridSpec) -> VerificationReport:
    """Every claim's rows sorted by the per-row key: the claim, then each point
    value parsed on its own."""
    rows = []
    for claim in sorted(claim_registry().values(), key=lambda c: c.id):
        for params in claim.points(grid):
            rows.extend(claim.evaluate(params, grid))
    rows.sort(key=lambda row: (row.claim, tuple(narrow(Fraction(v)) for _, v in row.point)))
    return VerificationReport(tuple(rows))


class TestRowOrder:
    def _grids(self):
        rng = random.Random(9)
        axes = {f.name: getattr(SMALL_GRID, f.name) for f in fields(GridSpec)}
        shuffled = {k: tuple(rng.sample(v, len(v))) for k, v in axes.items() if type(v) is tuple}
        return [replace(SMALL_GRID, **shuffled), replace(SMALL_GRID, xs=(2, 1, 1), rs=(1, 0, 1))]

    def test_matches_per_row_sort_key(self):
        for grid in self._grids():
            expected = emit_report(_rows_sorted_per_row(grid), "csv")
            assert emit_report(run_claims(grid=grid), "csv") == expected, grid


class TestSerialization:
    def test_json_round_trip(self):
        report = run_claims(["T5"], SMALL_GRID)
        data = emit_report(report, "json")
        assert report_from_json(data) == report

    def test_empty_report_every_format(self):
        empty = VerificationReport(())
        assert json.loads(emit_report(empty, "json"))["rows"] == []
        assert emit_report(empty, "csv").decode().splitlines() == [
            "claim,point,lhs,rhs,status,note"
        ]
        assert emit_report(empty, "markdown").decode().startswith("# Verification report")

    def test_json_matches_json_dumps_byte_for_byte(self):
        def dumped(report):
            payload = {
                "rows": [
                    {"claim": row.claim, "point": [[k, v] for k, v in row.point],
                     "lhs": row.lhs, "rhs": row.rhs, "status": row.status, "note": row.note}
                    for row in report.rows
                ]
            }
            return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()

        odd = VerificationReport((
            ReportRow("T5", (("alpha", "1/2"), ("n", "3")), 'say "hi"\\ \u00e9\u03bb\n2',
                      "-7/3", EQUAL, "tab\there \u2603 \"q\" \\"),
            ReportRow("EX-B1x2", (("x", "\u00fc"),), "", "", SKIPPED, "line\nbreak"),
            ReportRow("W4-explicit", (), "1", "2", UNEQUAL),
        ))
        for report in (VerificationReport(()), odd, run_claims(["T5", "OMEGA-ID"], SMALL_GRID)):
            data = emit_report(report, "json")
            assert data == dumped(report)
            assert report_from_json(data) == report
        assert emit_report(VerificationReport(()), "json") == b'{\n  "rows": []\n}\n'

    def test_markdown_has_one_table_per_claim(self):
        report = run_claims(["T5", "EX-B1x2"], SMALL_GRID)
        text = emit_report(report, "markdown").decode()
        assert text.count("## T5") == 1
        assert text.count("## EX-B1x2") == 1

    def test_csv_shape(self):
        report = run_claims(["T5"], SMALL_GRID)
        lines = emit_report(report, "csv").decode().splitlines()
        assert lines[0] == "claim,point,lhs,rhs,status,note"
        assert len(lines) == len(report.rows) + 1

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(VerificationReport(()), "xml")

    def test_fixture_summary_shape(self):
        report = run_claims(["T5"], SMALL_GRID)
        summary = fixture_summary(report)
        info = summary["T5"]
        assert info["rows"] == info["equal"] + info["unequal"] + info["skipped"]
        assert len(info["sha256"]) == 64
