import builtins
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from debell import exact
from debell.exact import (
    ParamSet,
    as_rat,
    binomial,
    csv_lines,
    falling,
    format_point,
    format_rat,
    gen_falling,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


class TestBinomial:
    def test_hand_values(self):
        assert binomial(5, 2) == 10
        assert binomial(4, 0) == 1
        assert binomial(0, 0) == 1
        assert binomial(3, 5) == 0

    def test_negative_k_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(-2, -1) == 0

    def test_negative_upper_index(self):
        # empty product at k=0, alternating signs down the column
        assert binomial(-1, 0) == 1
        assert binomial(-1, 1) == -1
        assert binomial(-1, 4) == 1
        assert binomial(-2, 3) == -4
        # cross-check against the defining product
        for n in range(-6, 0):
            for k in range(0, 6):
                prod = Fraction(1)
                for i in range(k):
                    prod *= n - i
                assert binomial(n, k) == prod / factorial(k)

    @given(st.integers(min_value=-40, max_value=-1), st.integers(min_value=0, max_value=25))
    def test_negative_upper_index_matches_product(self, n, k):
        prod = 1
        for i in range(k):
            prod *= n - i
        value = binomial(n, k)
        assert type(value) is int
        assert value == Fraction(prod, factorial(k))

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
    def test_factorial_identity(self, n, k):
        if k <= n:
            assert binomial(n, k) * factorial(k) * factorial(n - k) == factorial(n)


class TestGenFalling:
    def test_negative_factor_count_rejected(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            gen_falling(2, 1, -1)

    def test_hand_values(self):
        assert gen_falling(6, 2, 3) == 48
        assert gen_falling(5, 1, 3) == 60
        assert gen_falling(Fraction(7, 2), Fraction(1, 3), 0) == 1

    def test_int_path_hand_values(self):
        cases = [
            (falling(-3, 4), 360),
            (gen_falling(Fraction(1, 2), Fraction(1, 3), 5), Fraction(-5, 864)),
            (gen_falling("2", 0, 3), 8),
        ]
        for value, expected in cases:
            assert type(value) is Fraction
            assert value == expected

    @given(rationals, rationals, st.integers(min_value=0, max_value=8))
    def test_always_a_fraction(self, t, alpha, n):
        assert type(gen_falling(t, alpha, n)) is Fraction
        assert type(gen_falling(t.numerator, alpha.numerator, n)) is Fraction

    def test_stops_at_the_first_zero_factor(self, monkeypatch):
        """(2|1)_n has its zero factor at i = 2, so the loop draws no index past it."""
        drawn = []

        def tracked(n):
            for i in builtins.range(n):
                drawn.append(i)
                yield i

        monkeypatch.setattr(exact, "range", tracked, raising=False)
        assert gen_falling(2, 1, 50) == 0
        assert drawn == [0, 1, 2]

    def test_falling_alias(self):
        assert falling(5, 3) == 60
        assert falling(Fraction(1, 2), 2) == Fraction(1, 2) * Fraction(-1, 2)

    @given(rationals, rationals, st.integers(min_value=0, max_value=8))
    def test_one_step_recurrence(self, t, alpha, n):
        assert gen_falling(t, alpha, n + 1) == gen_falling(t, alpha, n) * (t - n * alpha)


class TestRationals:
    def test_string_grammar(self):
        # Fraction's string forms: p/q, and decimal and exponent forms read exactly
        assert as_rat("1/2") == as_rat("0.5") == as_rat(" 5e-1 ") == Fraction(1, 2)
        assert as_rat("1e3") == 1000
        assert as_rat("-2.5e-1") == Fraction(-1, 4)

    def test_float_rejected(self):
        with pytest.raises(TypeError, match="not an exact rational"):
            as_rat(1.5)

    def test_canonical_strings(self):
        assert format_rat(Fraction(3, 4)) == "3/4"
        assert format_rat(Fraction(-3, 4)) == "-3/4"
        assert format_rat(Fraction(8, 4)) == "2"
        assert format_rat(0) == "0"

    @given(rationals)
    def test_round_trip(self, q):
        assert Fraction(format_rat(q)) == q

    @given(rationals, rationals)
    def test_addition_two_ways(self, a, b):
        manual = Fraction(
            a.numerator * b.denominator + b.numerator * a.denominator,
            a.denominator * b.denominator,
        )
        assert a + b == manual


class TestTextCells:
    def test_point_cell(self):
        pairs = ParamSet.make(x=Fraction(1, 3), r=2).as_pairs()
        assert format_point(pairs) == "alpha=0;beta=1;gamma=0;x=1/3;lam=1;r=2"
        assert format_point(pairs[:2], ",") == "alpha=0,beta=1"

    def test_csv_quotes_only_what_needs_it(self):
        rows = [[1, "p/q", None], ["a,b", 'say "hi"', "two\nlines"]]
        assert "".join(csv_lines(["n", "value", "note"], rows)) == (
            'n,value,note\n1,p/q,\n"a,b","say ""hi""","two\nlines"\n'
        )
        assert "".join(csv_lines(["n", "value"], [])) == "n,value\n"

    def test_csv_lines_reads_rows_as_it_goes(self):
        """``csv_lines`` yields one line per row and reads an iterable lazily;
        their join is the whole CSV text."""
        read = []
        rows = (read.append(i) or [i, "a,b" * i] for i in range(3))
        lines = csv_lines(["n", "cell"], rows)
        assert next(lines) == "n,cell\n"
        assert read == []
        assert next(lines) == "0,\n"
        assert read == [0]
        assert list(lines) == ['1,"a,b"\n', '2,"a,ba,b"\n']
        assert "".join(csv_lines(["n", "cell"], ([i, "a,b" * i] for i in range(3)))) == (
            'n,cell\n0,\n1,"a,b"\n2,"a,ba,b"\n'
        )


class TestParamSet:
    def test_coercion_and_validation(self):
        p = ParamSet.make(alpha="1/2", beta=1, gamma="3", x=2, lam=0, r=1)
        assert p.alpha == Fraction(1, 2)
        assert p.gamma == 3
        with pytest.raises(ValueError):
            ParamSet.make(lam=-1)
        with pytest.raises(ValueError):
            ParamSet.make(r=-2)

    def test_combinatorial_regime(self):
        assert ParamSet.make(0, 1, 0, 1, 1, 0).combinatorial_regime
        assert ParamSet.make(2, 4, 2, 2, 3, 1).combinatorial_regime
        assert ParamSet.make(0, 0, 0, 1, 1, 0).combinatorial_regime
        assert not ParamSet.make(2, 3, 2, 1, 1, 0).combinatorial_regime  # alpha does not divide beta
        assert not ParamSet.make(2, 4, 3, 1, 1, 0).combinatorial_regime  # alpha does not divide gamma
        assert not ParamSet.make(0, 1, 0, 0, 1, 0).combinatorial_regime  # x must be positive
        assert not ParamSet.make("1/2", 1, 0, 1, 1, 0).combinatorial_regime
        assert not ParamSet.make(0, 1, Fraction(-1), 1, 1, 0).combinatorial_regime

    def test_replace_and_pairs(self):
        p = ParamSet.make(1, 2, 0, 1, 2, 1)
        q = p.replace(lam=3)
        assert q.lam == 3 and q.alpha == 1
        assert dict(p.as_pairs())["beta"] == "2"

    @pytest.mark.parametrize(
        "left, right",
        [
            ((2, 4, 2, 1, 1, 0), (Fraction(2), Fraction(4), Fraction(2), Fraction(1), 1, 0)),
            ((Fraction(1, 3), 1, "1/2", Fraction(3, 2), 2, 1),
             ("1/3", Fraction(1), Fraction(2, 4), "3/2", 2, 1)),
        ],
        ids=["integral", "rational"],
    )
    def test_equality_and_hash_agree(self, left, right):
        p, q = ParamSet.make(*left), ParamSet.make(*right)
        assert p == q and not p != q and p is not q
        assert hash(p) == hash(q) and p.key == q.key
        assert len({p, q}) == 1
        for changed in (q.replace(lam=q.lam + 1), q.replace(gamma=q.gamma + Fraction(1, 5))):
            assert p != changed and not p == changed
        assert p != p.key and p != dict(p.as_pairs())
