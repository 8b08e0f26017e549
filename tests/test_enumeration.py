import hashlib
from itertools import permutations

import pytest

from debell import enumeration
from debell.enumeration import (
    FAMILIES,
    EnumerationCapError,
    _derangement_count,
    _derangements,
    _partitions_raw,
    _r_stirling_tally,
    barred_count,
    format_blocks,
    format_cycles,
    format_sections,
    ordered_partitions_count,
    r_derangements_enum,
    r_deranged_partitions_enum,
    r_stirling_count,
    set_partitions_count,
)


def listing(family, *point):
    return list(FAMILIES[family].lines(*point))


def lister(family):
    return lambda *point: listing(family, *point)


def copied(walk) -> list:
    """The partitions a walk yields, each copied to a tuple of tuples as it comes:
    the walker hands out its live block list, so collecting it needs a copy."""
    return [tuple(map(tuple, p)) for p in walk]


def first_r_separated(p, r: int) -> bool:
    """Whether 1..r lie in pairwise distinct blocks of the partition p: the
    membership oracle the walker and the growth-string tallies are judged by."""
    return len({j for j, block in enumerate(p) for e in block if e <= r}) == r


def check_standard_form(blocks) -> None:
    """Raise ValueError unless ``blocks`` is a set partition of [n] in standard
    form: ascending blocks, listed by strictly increasing minima, covering
    1..n without overlap."""
    seen = set()
    last_min = 0
    for block in blocks:
        if not block:
            raise ValueError("empty block")
        if list(block) != sorted(block):
            raise ValueError("block elements must be ascending")
        if block[0] <= last_min:
            raise ValueError("blocks must be sorted by strictly increasing minima")
        last_min = block[0]
        for e in block:
            if e in seen:
                raise ValueError(f"element {e} appears twice")
            seen.add(e)
    if seen and seen != set(range(1, max(seen) + 1)):
        raise ValueError("blocks must cover 1..n exactly")


class TestSetPartitions:
    def test_hand_counts(self):
        # the three 2-block partitions of [3]: 1|23, 12|3, 13|2
        assert set_partitions_count(3, 2) == 3
        assert set_partitions_count(4, 2) == 7
        assert set_partitions_count(5, 5) == 1
        assert set_partitions_count(0, 0) == 1
        assert set_partitions_count(4, 9) == 0

    def test_generation_is_canonical(self):
        for n in range(7):
            produced = copied(_partitions_raw(n))
            assert len(set(produced)) == len(produced)
            for p in produced:
                check_standard_form(p)

    def test_totals_are_bell_numbers(self):
        bells = [1, 1, 2, 5, 15, 52, 203, 877]
        for n, expected in enumerate(bells):
            assert sum(1 for _ in _partitions_raw(n)) == expected

    def test_cap(self):
        # the error names the family as the CLI spells it
        with pytest.raises(EnumerationCapError, match="^set-partitions: size 11 exceeds cap 10$"):
            set_partitions_count(11, 3)

    def test_block_bounded_walk_is_the_filtered_walk(self):
        # with k no block past the k-th, with r 1..r in their own blocks from
        # the start: the unbounded walk filtered, in its order (r > n: nothing)
        for n in range(9):
            partitions = copied(_partitions_raw(n))
            for r in range(4):
                apart = [p for p in partitions if first_r_separated(p, r)]
                assert copied(_partitions_raw(n, r=r)) == apart, (n, r)
                for k in range(-1, n + 2):
                    expected = [p for p in apart if len(p) == k]
                    assert copied(_partitions_raw(n, k, r)) == expected, (n, k, r)

    def test_walk_yields_one_live_block_list(self):
        for n, k, r in [(5, None, 0), (6, 3, 0), (6, None, 2), (7, 4, 2)]:
            walk = _partitions_raw(n, k, r)
            first = next(walk)
            assert all(p is first for p in walk), (n, k, r)

    def test_listers_match_lines_from_copied_partitions(self, monkeypatch):
        # every lister reads each live partition before the walk advances, so
        # its lines are those it makes from partitions copied one by one
        points = {
            "set-partitions": [(n, k) for n in range(7) for k in range(n + 1)],
            "r-stirling": [(n, k, r) for n in range(5) for k in range(n + 1) for r in range(3)],
            "ordered": [(n,) for n in range(6)],
            "barred": [(n, lam) for n in range(5) for lam in (1, 2, 3)],
            "r-derangements": [(k, r) for k in range(5) for r in range(3)],
            "r-deranged-partitions": [(n, r) for n in range(5) for r in range(3)],
        }
        assert sorted(points) == sorted(FAMILIES)
        live = {family: [listing(family, *point) for point in pts] for family, pts in points.items()}
        monkeypatch.setattr(enumeration, "_partitions_raw",
                            lambda n, k=None, r=0: copied(_partitions_raw(n, k, r)))
        for family, pts in points.items():
            assert [listing(family, *point) for point in pts] == live[family], family


class TestRStirling:
    def test_hand_counts(self):
        assert r_stirling_count(2, 1, 1) == 3
        assert r_stirling_count(3, 2, 0) == set_partitions_count(3, 2)
        assert r_stirling_count(0, 0, 3) == 1

    def test_separation_constraint(self):
        # partitions of [4] into 3 blocks with 1 and 2 separated:
        # S(4,3) = 6 minus the single one where {1,2} sit together
        assert r_stirling_count(2, 1, 2) == 5

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            r_stirling_count(8, 2, 3)


class TestOrderedAndBarred:
    def test_fubini_values(self):
        assert [ordered_partitions_count(n) for n in range(5)] == [1, 1, 3, 13, 75]

    def test_iter_matches_count(self):
        for n in range(6):
            assert len(listing("ordered", n)) == ordered_partitions_count(n)

    def test_barred_hand_value(self):
        assert barred_count(2, 2) == 8
        assert barred_count(0, 3) == 1

    def test_barred_reduces_to_ordered(self):
        for n in range(6):
            assert barred_count(n, 1) == ordered_partitions_count(n)

    def test_barred_iter_matches_count(self):
        for n in range(4):
            for lam in (1, 2, 3):
                arrangements = listing("barred", n, lam)
                assert len(set(arrangements)) == len(arrangements) == barred_count(n, lam)

    def test_caps(self):
        with pytest.raises(EnumerationCapError):
            ordered_partitions_count(10)
        with pytest.raises(EnumerationCapError):
            barred_count(10, 2)
        with pytest.raises(ValueError):
            barred_count(3, 0)
        with pytest.raises(ValueError, match="lam must be at least 1"):
            FAMILIES["barred"].lines(3, 0)


class TestRDerangements:
    def test_hand_counts(self):
        assert r_derangements_enum(2, 2) == 2
        assert r_derangements_enum(4, 0) == 9
        assert r_derangements_enum(0, 0) == 1
        assert r_derangements_enum(7, 2) == 50988  # at the cap, k + r = 9
        assert r_derangements_enum(9, 0) == 133496

    def test_zero_when_k_below_r(self):
        for r in range(1, 4):
            assert r_derangements_enum(0, r) == 0
        assert r_derangements_enum(1, 2) == 0

    def test_the_two_valid_arrangements(self):
        assert listing("r-derangements", 2, 2) == ["(1 3)(2 4)", "(1 4)(2 3)"]

    def test_generation_is_canonical(self):
        perms = listing("r-derangements", 3, 1)
        assert len(set(perms)) == len(perms) == r_derangements_enum(3, 1)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            r_derangements_enum(8, 2)


class TestRDerangedPartitions:
    def test_hand_counts(self):
        assert r_deranged_partitions_enum(3, 0) == 5
        assert r_deranged_partitions_enum(1, 1) == 1
        assert r_deranged_partitions_enum(0, 1) == 0

    def test_iter_matches_count(self):
        for n, r in [(3, 0), (2, 1), (2, 2), (4, 0)]:
            arrangements = listing("r-deranged-partitions", n, r)
            assert len(set(arrangements)) == len(arrangements)
            assert len(arrangements) == r_deranged_partitions_enum(n, r)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            r_deranged_partitions_enum(7, 2)

    def test_walkers_compared_at_every_block_count(self, monkeypatch):
        # d(1, 0) = 0, so a walk that loses the one-block partition leaves the
        # total at 28; the per-block-count check still catches it
        def lossy(n, k=None, r=0):
            return (p for p in _partitions_raw(n, k, r) if len(p) != 1)

        monkeypatch.setattr(enumeration, "_partitions_raw", lossy)
        with pytest.raises(RuntimeError, match=r"k=1:"):
            r_deranged_partitions_enum(4, 0)


class TestEnvOverride(object):
    def test_override_raises_and_lowers_caps(self, monkeypatch):
        monkeypatch.setenv("DEBELL_MAX_ENUM", "3")
        with pytest.raises(EnumerationCapError):
            ordered_partitions_count(5)
        monkeypatch.setenv("DEBELL_MAX_ENUM", "11")
        assert set_partitions_count(11, 11) == 1

    @pytest.mark.parametrize("bad", ["abc", "-1"])
    def test_malformed_override_is_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("DEBELL_MAX_ENUM", bad)
        with pytest.raises(ValueError, match=f"DEBELL_MAX_ENUM .* got '{bad}'") as info:
            ordered_partitions_count(2)
        assert not isinstance(info.value, EnumerationCapError)


class TestTypesAndFormatting:
    def test_block_partition_validation(self):
        check_standard_form(((1, 3), (2,)))
        with pytest.raises(ValueError):
            check_standard_form(((2,), (1, 3)))  # minima out of order
        with pytest.raises(ValueError):
            check_standard_form(((1, 2), (2, 3)))  # overlap
        with pytest.raises(ValueError):
            check_standard_form(((1,), (3,)))  # gap in coverage

    def test_text_forms(self):
        assert format_blocks(((1, 3), (2,))) == "{1,3}{2}"
        assert format_sections((((1, 3), (2,)), ())) == "{1,3}{2}|"
        assert format_cycles((2, 1, 4, 3)) == "(1 2)(3 4)"

    def test_tally_and_listing(self):
        family = FAMILIES["set-partitions"]
        assert family.fields == ("n", "k") and family.cap == 10 and family.count(4, 2) == 7
        listed = listing("set-partitions", 3, 2)
        assert sorted(listed) == ["{1,2}{3}", "{1,3}{2}", "{1}{2,3}"]
        assert len(set(listed)) == 3
        assert len(listing("barred", 2, 2)) == 8


class TestGenerators:
    def test_listing_bytes_are_pinned(self):
        # sha256 of every listed line plus "\n", in a fixed family order, as
        # generated before the tallies moved to growth strings
        digest, lines = hashlib.sha256(), 0

        def feed(family, **point):
            nonlocal lines
            for line in FAMILIES[family].lines(**point):
                digest.update((line + "\n").encode())
                lines += 1

        for n in range(6):
            for k in range(n + 1):
                feed("set-partitions", n=n, k=k)
            feed("ordered", n=n)
            for lam in (1, 2, 3):
                feed("barred", n=n, lam=lam)
            for r in range(3):
                feed("r-derangements", k=n, r=r)
                feed("r-deranged-partitions", n=n, r=r)
                for k in range(n + 1):
                    feed("r-stirling", n=n, k=k, r=r)
        assert lines == 22365
        assert digest.hexdigest() == "58aa7eeb9f4555a0f35c233c0f5834be1743043cdd294ebcfa19bbb87ae4cbf4"

    def test_growth_string_tallies_match_block_generation(self):
        # the tallies walk growth strings; the recursive block generator with
        # the block-membership test is an independent route to the same counts
        for total in range(10):
            partitions = copied(_partitions_raw(total))
            for r in range(total + 2):
                expected = {}
                for p in partitions:
                    if first_r_separated(p, r):
                        expected[len(p)] = expected.get(len(p), 0) + 1
                assert _r_stirling_tally(total, r) == expected, (total, r)

    def test_derangements_match_cycle_labelling(self):
        def labelled(m, r):
            # every cycle labelled, then 0..r-1 checked for distinct labels
            for sigma in permutations(range(m)):
                if any(sigma[i] == i for i in range(m)):
                    continue
                labels = [-1] * m
                cid = 0
                for start in range(m):
                    if labels[start] >= 0:
                        continue
                    e = start
                    while labels[e] < 0:
                        labels[e] = cid
                        e = sigma[e]
                    cid += 1
                if len({labels[i] for i in range(r)}) == r:
                    yield sigma

        for m in range(9):
            for r in range(min(3, m) + 1):
                assert list(_derangements(m, r)) == list(labelled(m, r)), (m, r)

    def test_cycle_insertion_counts_the_permutation_filter(self):
        # two independent generators: cycle insertion against the filtered permutations
        for m in range(9):
            for r in range(m + 2):
                assert _derangement_count(m, r) == sum(1 for _ in _derangements(m, r)), (m, r)


NEGATIVE_SIZES = [
    (set_partitions_count, (-1, 0), "n"),
    (r_stirling_count, (-1, 0, 0), "n"),
    (r_stirling_count, (2, 0, -1), "r"),
    (ordered_partitions_count, (-1,), "n"),
    (barred_count, (-3, 2), "n"),
    (r_derangements_enum, (-1, 0), "k"),
    (r_derangements_enum, (0, -2), "r"),
    (r_deranged_partitions_enum, (-1, 0), "n"),
    (r_deranged_partitions_enum, (2, -1), "r"),
    (lister("set-partitions"), (-1, 0), "n"),
    (lister("ordered"), (-1,), "n"),
    (lister("barred"), (-1, 2), "n"),
    (lister("r-derangements"), (-1, 0), "k"),
    (lister("r-derangements"), (2, -1), "r"),
    (lister("r-deranged-partitions"), (-1, 0), "n"),
    (lister("r-deranged-partitions"), (2, -1), "r"),
    (lister("r-stirling"), (-1, 0, 2), "n"),
    (lister("r-stirling"), (2, 0, -1), "r"),
]


class TestNegativeSizes:
    @pytest.mark.parametrize("fn, args, name", NEGATIVE_SIZES)
    def test_rejected_before_the_cap(self, monkeypatch, fn, args, name):
        monkeypatch.setenv("DEBELL_MAX_ENUM", "0")  # a cap check first would raise the cap error
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative") as info:
            fn(*args)
        assert not isinstance(info.value, EnumerationCapError)

    def test_negative_block_count_is_zero(self):
        assert set_partitions_count(4, -1) == 0
        assert r_stirling_count(3, -1, 2) == 0
        assert r_stirling_count(0, -3, 3) == 0
