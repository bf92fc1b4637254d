from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from maxseg import (
    DensityValue,
    EmptySequence,
    IndexOutOfRange,
    InfeasibleWidthWindow,
    NonPositiveWeight,
    SolveRequest,
    brute_force_best,
    build_sequence,
    density,
    solve,
)
from maxseg.core import (
    MAX_INTEGER_DIGITS,
    WeightedSequence,
    compute_bounds,
    density_decimal_str,
    exact_decimal,
    format_scaled,
    make_segment,
)
from maxseg.errors import NonFiniteItem

from conftest import general_seq


class TestBuildSequence:
    def test_single_item(self):
        seq = build_sequence([(1, 1)])
        assert seq.prefix_value == [0, 1]
        assert seq.prefix_weight == [0, 1]
        assert seq.n == 1

    def test_prefix_sums(self):
        seq = build_sequence([(2, 1), (0, 1), (4, 1)])
        assert seq.prefix_value == [0, 2, 2, 6]
        assert seq.prefix_weight == [0, 1, 2, 3]

    def test_zero_weight_rejected(self):
        with pytest.raises(NonPositiveWeight) as exc:
            build_sequence([(1, 0)])
        assert exc.value.index == 1

    def test_negative_and_nan_weight_rejected(self):
        with pytest.raises(NonPositiveWeight):
            build_sequence([(1, 1), (2, -3)])
        for weight in (float("nan"), float("-inf"), Decimal("NaN"), Decimal("-Infinity")):
            with pytest.raises(NonPositiveWeight) as exc:
                build_sequence([(1, 1), (1.0, weight)])
            assert exc.value.index == 2

    def test_empty_rejected(self):
        with pytest.raises(EmptySequence):
            build_sequence([])

    def test_big_integers_exact(self, rng):
        big = 1 << 62
        seq = build_sequence([(big, 1), (-big, big), (big + 1, 3)])
        assert seq.prefix_value == [0, big, 0, big + 1]
        assert seq.prefix_weight == [0, 1, big + 1, big + 4]
        for _ in range(60):
            shift = rng.choice((62, 63, 100, 200))
            n = rng.randint(1, 14)
            seq = build_sequence([
                ((rng.randint(-9, 9) << shift) + rng.randint(-1, 1),
                 rng.randint(1, 3) << rng.choice((0, shift)))
                for _ in range(n)
            ])
            total = seq.prefix_weight[n]
            L = rng.randint(1, total)
            U = rng.choice((None, rng.randint(L, total)))
            try:
                got = solve(SolveRequest(seq, L, U))
            except InfeasibleWidthWindow:
                with pytest.raises(InfeasibleWidthWindow):
                    brute_force_best(seq, L, U)
                continue
            want = brute_force_best(seq, L, U)
            assert (got.start, got.end, got.density) == (want.start, want.end, want.density)

    def test_non_integers_become_exact_fractions(self):
        import numpy as np

        seq = build_sequence([(0.1, 0.5), (Decimal("0.3"), 1.0), (np.int64(3), Fraction(6, 2))])
        assert seq.items == [(Fraction(0.1), Fraction(1, 2)), (Fraction(3, 10), 1), (3, 3)]
        assert seq.prefix_value[3] == Fraction(0.1) + Fraction(3, 10) + 3
        # integral items are stored as plain ints, numpy integers included
        seq = build_sequence([(1.0, 2.0), (np.int64(-3), Decimal(2)), (Fraction(4, 2), 1)])
        assert seq.prefix_value == [0, 1, -2, 0] and seq.prefix_weight == [0, 2, 4, 5]
        assert {type(x) for x in seq.prefix_value + seq.prefix_weight} == {int}
        with pytest.raises(TypeError):
            build_sequence([("1", 1)])
        with pytest.raises(TypeError):
            build_sequence([(1, "1")])

    def test_int64_prefixes_only_for_int64_columns(self):
        seq = build_sequence([(2, 1), (-5, 3)])
        V, W = seq.int64_prefixes()
        assert (V.tolist(), W.tolist(), str(V.dtype)) == ([0, 2, -3], [0, 1, 4], "int64")
        assert seq.int64_prefixes()[0] is V  # built once
        assert build_sequence([(1, 1), (Fraction(1, 2), 1)]).int64_prefixes() is None
        assert build_sequence([(1, 1 << 63)]).int64_prefixes() is None

    def test_array_storage_answers_without_lists(self):
        import numpy as np

        seq = WeightedSequence(np.array([0, 2, -3], dtype=np.int64),
                               np.array([0, 1, 4], dtype=np.int64), min_weight=1, max_weight=3)
        seg = make_segment(seq, 2, 2)
        assert (seq.n, seq.total_width, seq.width(1, 2), seg.sum, seg.width) == (2, 4, 4, -5, 3)
        assert {type(x) for x in (seq.total_width, seg.sum, seg.width)} == {int}
        assert seq._pv is None  # nothing above filled the list views
        assert (seq.prefix_value, seq.prefix_weight) == ([0, 2, -3], [0, 1, 4])
        assert seq.items == build_sequence([(2, 1), (-5, 3)]).items

    def test_decimals_are_not_rounded(self):
        seq = build_sequence([(Decimal("1e30"), 1), (Decimal(1), 1), (Decimal("-1e30"), 1)])
        assert seq.prefix_value[3] == 1

    @pytest.mark.parametrize("value, weight", [
        (float("nan"), 1), (float("inf"), 1), (float("-inf"), 1),
        (Decimal("NaN"), 1), (Decimal("-Infinity"), 1),
        (1, float("inf")), (1, Decimal("Infinity")),
    ])
    def test_non_finite_items_refused(self, value, weight):
        with pytest.raises(NonFiniteItem) as exc:
            build_sequence([(1, 1), (value, weight)])
        assert exc.value.index == 2

    def test_item_recovery_and_flags(self):
        seq = build_sequence([(2, 1), (-5, 3)])
        assert seq.items == [(2, 1), (-5, 3)]
        assert seq.value(2) == -5 and seq.weight(2) == 3
        assert not seq.is_uniform and seq.min_weight == 1 and seq.max_weight == 3
        assert build_sequence([(0, 1), (1, 1)]).is_uniform


class TestDensity:
    def test_whole_segment(self):
        seq = build_sequence([(2, 1), (0, 1), (4, 1)])
        d = density(seq, 1, 3)
        assert (d.sum, d.width) == (6, 3)
        assert d.value == 2

    def test_single_item_fractional(self):
        d = density(build_sequence([(5, 2)]), 1, 1)
        assert (d.sum, d.width) == (5, 2)
        assert d.value == 2.5

    def test_zero_sum_item(self):
        d = density(build_sequence([(2, 1), (0, 1), (4, 1)]), 2, 2)
        assert (d.sum, d.width) == (0, 1)

    def test_index_out_of_range(self):
        seq = build_sequence([(1, 1), (2, 1)])
        for i, j in [(0, 1), (1, 3), (2, 1)]:
            with pytest.raises(IndexOutOfRange):
                density(seq, i, j)

    def test_prefix_sums_match_direct_summation(self, rng):
        seq = general_seq(rng, 40)
        for _ in range(200):
            i = rng.randint(1, 40)
            j = rng.randint(i, 40)
            d = density(seq, i, j)
            assert d.sum == sum(seq.value(k) for k in range(i, j + 1))
            assert d.width == sum(seq.weight(k) for k in range(i, j + 1))


class TestDensityValueOrdering:
    def test_cross_multiplied_equality(self):
        assert DensityValue(1, 2) == DensityValue(2, 4)
        assert DensityValue(1, 2) < DensityValue(2, 3)
        assert DensityValue(-1, 2) < DensityValue(0, 5)
        assert hash(DensityValue(1, 2)) == hash(DensityValue(3, 6))

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            DensityValue(1, 0)

    @given(
        st.tuples(st.integers(-10**9, 10**9), st.integers(1, 10**9)),
        st.tuples(st.integers(-10**9, 10**9), st.integers(1, 10**9)),
        st.tuples(st.integers(-10**9, 10**9), st.integers(1, 10**9)),
    )
    def test_order_matches_fractions(self, a, b, c):
        da, db, dc = (DensityValue(*t) for t in (a, b, c))
        fa, fb, fc = (Fraction(t[0], t[1]) for t in (a, b, c))
        assert (da < db) == (fa < fb)
        assert (da == db) == (fa == fb)
        assert (da <= db) == (fa <= fb)
        # transitivity spot-check on the triple
        if da <= db and db <= dc:
            assert da <= dc

    def test_float_agreement_within_tolerance(self, rng):
        # exact comparisons agree with floating-point evaluation on values
        # that are not nearly tied
        for _ in range(500):
            d1 = DensityValue(rng.randint(-999, 999), rng.randint(1, 999))
            d2 = DensityValue(rng.randint(-999, 999), rng.randint(1, 999))
            f1, f2 = d1.value, d2.value
            if abs(f1 - f2) > 1e-9 * max(1.0, abs(f1), abs(f2)):
                assert (d1 < d2) == (f1 < f2)


class TestComputeBounds:
    def test_four_unit_weights(self):
        seq = build_sequence([(0, 1)] * 4)
        b = compute_bounds(seq, 2, 3)
        assert b.lidx[1:] == [2, 3, 4, None]
        assert b.uidx[1:] == [3, 4, 4, 4]
        assert b.i0 == 3

    def test_mixed_weights(self):
        seq = build_sequence([(0, 3), (0, 1), (0, 2)])
        b = compute_bounds(seq, 1, 3)
        assert b.uidx[1:] == [1, 3, 3]
        assert b.lidx[1:] == [1, 2, 3]

    def test_single_item(self):
        b = compute_bounds(build_sequence([(0, 1)]), 1, 1)
        assert b.lidx[1:] == [1]
        assert b.uidx[1:] == [1]
        assert b.i0 == 1

    def test_infeasible_returns_no_i0(self):
        b = compute_bounds(build_sequence([(0, 1)] * 3), 10, 10)
        assert b.i0 is None
        assert b.lidx[1:] == [None, None, None]

    def test_heavy_item_admits_no_endpoint(self):
        b = compute_bounds(build_sequence([(0, 5)]), 1, 3)
        assert (b.lidx[1:], b.uidx[1:]) == ([1], [0])
        b = compute_bounds(build_sequence([(0, 1), (0, 5), (0, 2)]), 1, 3)
        assert (b.lidx[1:], b.uidx[1:]) == ([1, 2, 3], [1, 1, 3])

    def test_bad_bounds_rejected(self):
        seq = build_sequence([(0, 1)])
        with pytest.raises(ValueError):
            compute_bounds(seq, 0, 1)
        with pytest.raises(ValueError):
            compute_bounds(seq, 3, 2)

    def test_definitions_and_monotonicity(self, rng):
        for _ in range(50):
            n = rng.randint(1, 60)
            seq = general_seq(rng, n)
            total = seq.prefix_weight[n]
            L = rng.randint(1, total)
            U = rng.randint(max(L, seq.max_weight), total + 3)
            b = compute_bounds(seq, L, U)
            prev_l = prev_u = 0
            for i in range(1, n + 1):
                li, ui = b.lidx[i], b.uidx[i]
                assert seq.width(i, ui) <= U
                assert ui == n or seq.width(i, ui + 1) > U
                assert ui >= prev_u
                prev_u = ui
                if li is not None:
                    assert seq.width(i, li) >= L
                    assert li == i or seq.width(i, li - 1) < L
                    assert li >= prev_l
                    prev_l = li
                    assert b.i0 >= i
                else:
                    assert seq.width(i, n) < L
            # feasibility equivalence on every pair
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    feasible = L <= seq.width(i, j) <= U
                    via_bounds = b.lidx[i] is not None and b.lidx[i] <= j <= b.uidx[i]
                    assert feasible == via_bounds

    def test_cursor_advances_linear(self, rng):
        for _ in range(20):
            n = rng.randint(1, 80)
            seq = general_seq(rng, n)
            total = seq.prefix_weight[n]
            L = rng.randint(1, total)
            b = compute_bounds(seq, L, rng.randint(max(L, seq.max_weight), total + 3))
            assert b.cursor_advances <= 2 * n


class TestDecimalHelpers:
    def test_exact_decimal_fewest_places(self):
        # (units, places) with the fewest places that write the value exactly
        assert exact_decimal("1.50") == (15, 1)
        assert exact_decimal("3") == (3, 0)
        assert exact_decimal("1e-3") == (1, 3)
        assert exact_decimal(Decimal("2.5")) == (25, 1)
        assert exact_decimal("-0.05") == (-5, 2)
        assert exact_decimal("0e-999999999") == (0, 0)

    def test_exact_decimal_caps_at_nine_places(self):
        # nine places is the finest grid; finer values are refused, not rounded
        assert exact_decimal("0.123456789") == (123456789, 9)
        assert exact_decimal("1.0000000000") == (1, 0)
        for text in ("0.1234567891234", "1.0000000004", "1e-10", "1e-999999999"):
            with pytest.raises(ValueError, match="more than 9 decimal places"):
                exact_decimal(text)

    def test_exact_decimal_expands_integers(self):
        # integers of any notation expand exactly, up to MAX_INTEGER_DIGITS digits
        assert exact_decimal("1" * 30) == (int("1" * 30), 0)
        assert exact_decimal("1e40") == (10**40, 0)
        assert exact_decimal("-2.5e3") == (-2500, 0)
        assert exact_decimal("9" * MAX_INTEGER_DIGITS) == (int("9" * MAX_INTEGER_DIGITS), 0)
        for text in ("1" * (MAX_INTEGER_DIGITS + 1), "1e999999999"):
            with pytest.raises(ValueError, match="integer digits"):
                exact_decimal(text)
        for text in ("Infinity", "-inf", "nan", "sNaN", "abc", ""):
            with pytest.raises(ValueError):
                exact_decimal(text)

    def test_format_scaled(self):
        assert format_scaled(25, 10) == "2.5"
        assert format_scaled(30, 10) == "3"
        assert format_scaled(-5, 100) == "-0.05"
        assert format_scaled(7, 1) == "7"

    def test_density_decimal_str(self):
        assert density_decimal_str(3, 3) == "1.000000000"
        assert density_decimal_str(1, 3) == "0.333333333"
        assert density_decimal_str(2, 3) == "0.666666667"
        assert density_decimal_str(-1, 2) == "-0.500000000"
        # scales: sum 5 at scale 10 over width 2 at scale 1 -> 0.25
        assert density_decimal_str(5, 2, value_scale=10, weight_scale=1) == "0.250000000"
        # half-even at the ninth digit
        assert density_decimal_str(1, 2 * 10**9) == "0.000000000"
        assert density_decimal_str(3, 2 * 10**9) == "0.000000002"


class TestPublicApi:
    def test_all_is_pinned_and_resolves(self):
        import maxseg

        assert sorted(maxseg.__all__) == sorted([
            "CapExceeded", "DensityValue", "DnaRecord", "EmptySequence",
            "IndexOutOfRange", "InfeasibleWidthWindow", "MalformedFasta",
            "MalformedTsv", "MappingSpec", "MaxsegError", "NonPositiveWeight",
            "NonUniformInput", "OpCounters", "Segment", "SolveRequest",
            "UnknownSymbol", "WeightedItem", "WeightedSequence",
            "brute_force_best", "brute_force_partition", "build_sequence",
            "compress_runs", "density", "make_segment", "map_to_sequence",
            "max_density_general", "max_density_min_width", "max_density_uniform",
            "parse_fasta", "parse_tsv", "sliding_window", "solve", "write_fasta",
        ])
        assert len(set(maxseg.__all__)) == len(maxseg.__all__) == 33
        for name in maxseg.__all__:
            assert getattr(maxseg, name) is not None
