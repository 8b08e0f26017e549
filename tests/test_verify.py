import json
import random
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from debell import asymptotics, bell
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
    report_chunks,
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
    max_n=6,  # W4-explicit and W5-explicit start at n = 5 and 6
)


def _row_ns(report: VerificationReport) -> dict:
    """{claim: the set of n over its rows}."""
    ns: dict = {}
    for row in report.rows:
        ns.setdefault(row.claim, set()).add(int(dict(row.point)["n"]))
    return ns


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
        ids = ["OMEGA-ID", "T3-n", "EQ40-literal", "EQ40-power"]
        names = [claim_registry()[cid].rhs for cid in ids]
        calls = {name: [] for name in names}  # the point of each call, in order
        for name in names:
            def counted(n_max, params, _name=name, _route=getattr(bell, name)):
                calls[_name].append(params)
                return _route(n_max, params)

            monkeypatch.setattr(bell, name, counted)
        report = run_claims(ids, SMALL_GRID)
        points = list(SMALL_GRID.param_sets())
        assert len(report.rows) == 4 * len(points) * (SMALL_GRID.max_n + 1)
        with_lam = [p for p in points if p.lam >= 1]
        assert 0 < len(with_lam) < len(points)  # the lam = 0 points skip
        assert calls == dict(zip(names, [points, with_lam, with_lam, with_lam]))

    def test_one_b_build_per_request_on_the_default_grid(self, monkeypatch):
        """B is memoized per (n_max, point), so a cold default round builds each
        distinct request once: every claim at a grid point reads B[0..top + r],
        and ASYMP-r0 reads each of its 96 scaled points once, at n_max = 4."""
        requests = {}  # params -> the n_max of each bell_egf call, in order
        route = bell.bell_egf

        def counted(n_max, params):
            requests.setdefault(params, []).append(n_max)
            return route(n_max, params)

        monkeypatch.setattr(bell, "bell_egf", counted)
        monkeypatch.setattr(asymptotics, "bell_egf", counted)
        bell._bell_egf.cache_clear()
        bell._gamma_free.cache_clear()
        bell._xu_and_log.cache_clear()
        run_claims()
        distinct = {(n_max, p) for p, ns in requests.items() for n_max in ns}
        assert bell._bell_egf.cache_info().misses == len(distinct) == 972
        assert bell._gamma_free.cache_info().misses == 324
        # one log(1 - x u) per transcendental (alpha, beta, x, S, order) under those 324:
        # every alpha != 0 grid point has an integral beta/alpha and builds no log, so
        # only the six alpha = 0 X's (beta in {1, 2, 4}, x in {1, 2}) at orders 4, 8, 9, 10
        assert bell._xu_and_log.cache_info().currsize == 24
        assert [p for p, ns in requests.items() if len(set(ns)) > 1] == []
        scaled = {p: ns for p, ns in requests.items() if p.lam in (100, 1000)}
        assert len(scaled) == 96 and {n for ns in scaled.values() for n in ns} == {4}

    def test_lambda1_vectors_are_shared_on_the_default_grid(self):
        """A cold default round fills 368 lam = 1 vectors: 144 for T5, 144 for the
        W claims, 32 for T3-nr's longer bases at r >= 1 and 48 for ASYMP-r0, one
        per point; T3-n's base is T5's vector at gamma = 0, shared across gamma and lam."""
        bell._lambda1.cache_clear()
        run_claims()
        assert bell._lambda1.cache_info().misses == 368

    def test_t3_convolutions_stop_at_the_entries_they_compare(self, monkeypatch):
        route = bell.section_convolution
        sizes = []  # (n_max, r) of each call
        monkeypatch.setattr(bell, "section_convolution",
                            lambda n_max, p: sizes.append((n_max, p.r)) or route(n_max, p))
        run_claims(["T3-n"], SMALL_GRID)
        assert sizes and {n_max for n_max, _ in sizes} == {SMALL_GRID.max_n}
        sizes.clear()
        run_claims(["T3-nr"], SMALL_GRID)
        assert {r for _, r in sizes} == set(SMALL_GRID.rs)
        assert all(n_max == SMALL_GRID.max_n + r for n_max, r in sizes)


class TestDefaultGrid:
    def test_without_max_n_it_is_the_field_defaults(self):
        assert GridSpec.default() == GridSpec()

    @pytest.mark.parametrize(
        "max_n, w_max_n, asymp_n",
        [(0, 0, ()), (3, 3, (1, 2, 3)), (8, 8, (1, 2, 3, 4)), (20, 12, (1, 2, 3, 4))],
    )
    def test_max_n_cuts_every_n_range(self, max_n, w_max_n, asymp_n):
        assert GridSpec.default(max_n) == GridSpec(max_n=max_n)
        one_triple = GridSpec(alphas=(0,), betas=(1,), gammas=(0,), xs=(1,), max_n=max_n)
        ns = _row_ns(run_claims(["T5", "W4-explicit", "ASYMP-r0"], one_triple))
        assert ns["T5"] == set(range(max_n + 1))
        assert ns.get("W4-explicit", set()) == set(range(5, w_max_n + 1))
        assert ns.get("ASYMP-r0", set()) == set(asymp_n)

    def test_an_example_claim_past_max_n_writes_no_row(self):
        grid = replace(SMALL_GRID, max_n=3)
        assert run_claims(["EX-B2x4"], grid).rows == ()
        assert run_claims(["EX-B1x2"], grid).rows


class TestWClaims:
    # fixture_summary of W4-explicit and W5-explicit at GridSpec(max_n=6)
    AT_MAX_N_6 = {
        "W4-explicit": {"rows": 288, "equal": 144, "unequal": 144, "skipped": 0,
                        "sha256": "fbc119044f0fedacecc890aec6f0680956e94ca4e8bfe3ed6fb860de81a58cff"},
        "W5-explicit": {"rows": 144, "equal": 144, "unequal": 0, "skipped": 0,
                        "sha256": "20fe67435171aa6c65239d17368d51b24208987e2a6beeae1b7f9994507bb10b"},
    }

    def test_no_base_is_built_for_a_point_without_rows(self, monkeypatch):
        calls = []
        base, scaled = bell.lambda1_sums, asymptotics.scaled_bell
        monkeypatch.setattr(bell, "lambda1_sums",
                            lambda n_max, params: calls.append(n_max) or base(n_max, params))
        monkeypatch.setattr(asymptotics, "scaled_bell",
                            lambda n_max, delta, p: calls.append(n_max) or scaled(n_max, delta, p))
        ids = ["W4-explicit", "W5-explicit"]
        assert run_claims(ids, GridSpec(max_n=3)).rows == ()
        assert run_claims(["ASYMP-r0"], GridSpec(max_n=0)).rows == ()
        assert calls == []
        assert fixture_summary(run_claims(ids, GridSpec(max_n=6))) == self.AT_MAX_N_6
        assert calls and set(calls) == {6}  # one base length per point: the top n
        calls.clear()
        assert run_claims(["ASYMP-r0"], GridSpec(max_n=1)).rows
        assert calls and set(calls) == {1}


class TestOutcomes:
    def test_t5_all_equal(self):
        report = run_claims(["T5"], SMALL_GRID)
        counts = fixture_summary(report)["T5"]
        assert counts["unequal"] == 0 and counts["equal"] > 0

    def test_eq40_power_equal_with_skips_at_lambda_zero(self):
        report = run_claims(["EQ40-power"], SMALL_GRID)
        counts = fixture_summary(report)["EQ40-power"]
        assert counts["unequal"] == 0
        assert counts["skipped"] > 0  # the lam = 0 rows
        assert report.all_required_equal

    def test_omega_id_required_only_at_r_zero(self):
        report = run_claims(["OMEGA-ID"], SMALL_GRID)
        counts = fixture_summary(report)["OMEGA-ID"]
        assert counts["unequal"] > 0  # r >= 1 rows differ
        assert report.all_required_equal  # but none of them at r = 0
        for row in report.rows:
            if row.status == UNEQUAL:
                assert dict(row.point)["r"] != "0"

    def test_recorded_variants_follow_their_predicates(self):
        """T3-nr reads B[n+r] against B[n], and EQ40-literal F^(lam(lam+1)/2)
        against B's F^lam; at r >= 1 both sides vanish below t^(r lam), and at
        r = 0, F = 1 + X^2/2 + ..., so its powers agree through t^1."""
        predicates = {
            "T3-nr": lambda n, lam, r: r == 0 or n + r < r * lam,
            "EQ40-literal": lambda n, lam, r: (
                lam == 1 or (r == 0 and n <= 1) or (r >= 1 and n < r * lam)
            ),
        }
        checked = dict.fromkeys(predicates, 0)
        for row in run_claims(list(predicates)).rows:
            if row.status != SKIPPED:
                n, lam, r = (int(dict(row.point)[axis]) for axis in ("n", "lam", "r"))
                assert (row.status == EQUAL) == predicates[row.claim](n, lam, r), row
                checked[row.claim] += 1
        assert checked == {"T3-nr": 3888, "EQ40-literal": 3888}

    def test_equal_exactly_when_the_texts_agree(self):
        """The row writer gives an EQUAL row its lhs text as rhs text, as ``format_rat``
        is canonical: a judged row is EQUAL exactly when its two texts are the same."""
        judged = [row for row in run_claims(grid=SMALL_GRID).rows if row.status != SKIPPED]
        assert {row.claim for row in judged} == set(ALL_CLAIM_IDS)
        assert {row.status for row in judged} == {EQUAL, UNEQUAL}
        for row in judged:
            assert (row.status == EQUAL) == (row.lhs == row.rhs), row

    def test_rows_are_immutable_and_hashable(self):
        row = run_claims(["T5"], SMALL_GRID).rows[0]
        with pytest.raises(AttributeError):
            row.lhs = "0"
        assert row == ReportRow(*row) and hash(row) == hash(ReportRow(*row))
        assert row._replace(note="x").note == "x" and row.note == ""

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

    def test_each_axis_set_walked_once(self, monkeypatch):
        walks = []  # the (lambdas, betas, rs) of each walked grid
        param_sets = GridSpec.param_sets
        monkeypatch.setattr(GridSpec, "param_sets",
                            lambda grid: walks.append((grid.lambdas, grid.betas, grid.rs))
                            or param_sets(grid))
        run_claims(grid=SMALL_GRID)
        assert len(walks) == len(set(walks)) == 5  # for 13 claims
        walks.clear()
        run_claims(["EX-B2x4", "EX-B2x6", "T3-n", "T33"], SMALL_GRID)
        assert len(walks) == 2

    def test_rows_sorted_by_claim_then_point(self):
        report = run_claims(["T5", "EX-B1x2"], SMALL_GRID)
        claims = [row.claim for row in report.rows]
        assert claims == sorted(claims)


def _rows_sorted_per_row(grid: GridSpec) -> VerificationReport:
    """Every claim's rows sorted by the per-row key: the claim, then each point
    value parsed on its own."""
    rows = []
    for claim in sorted(claim_registry().values(), key=lambda c: c.id):
        for params in replace(grid, **dict(claim.points)).param_sets():
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
        with pytest.raises(ValueError):
            report_chunks(VerificationReport(()), "xml")

    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    def test_chunks_join_to_the_report_bytes(self, fmt):
        """``debell verify`` writes ``report_chunks`` one by one; their join is
        ``emit_report``'s bytes, on a grid and on the empty report."""
        for report in (run_claims(["T5", "EX-B1x2", "W4-explicit"], SMALL_GRID),
                       VerificationReport(())):
            chunks = list(report_chunks(report, fmt))
            assert all(type(chunk) is bytes for chunk in chunks)
            assert b"".join(chunks) == emit_report(report, fmt)
            # one chunk per row, plus the header and closing text around them
            assert len(chunks) >= len(report.rows) + 1

    def test_json_report_is_held_about_once(self):
        """``emit_report`` writes the chunks into one buffer: no list of row
        strings, and no second copy of the output, so the traced peak stays
        near the output's length (a join over the rows held it about 2.25x)."""
        report = run_claims(grid=SMALL_GRID)
        tracemalloc.start()
        try:
            size = len(emit_report(report, "json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 10**6
        assert peak <= 1.5 * size, peak / size

    def test_fixture_summary_shape(self):
        report = run_claims(["T5"], SMALL_GRID)
        summary = fixture_summary(report)
        info = summary["T5"]
        assert info["rows"] == info["equal"] + info["unequal"] + info["skipped"]
        assert len(info["sha256"]) == 64
