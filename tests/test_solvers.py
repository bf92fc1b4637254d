import math
import random
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import maxseg.fastpath as fastpath
import maxseg.solvers as solvers
import maxseg.sweep_left as sweep_left
import maxseg.sweep_right as sweep_right
from maxseg import (
    InfeasibleWidthWindow,
    NonUniformInput,
    OpCounters,
    SolveRequest,
    brute_force_best,
    build_sequence,
    density,
    max_density_general,
    max_density_min_width,
    max_density_uniform,
    sliding_window,
    solve,
)
from maxseg.solvers import _iter_cover

from conftest import general_seq, uniform_seq


class TestSlidingWindow:
    def test_example(self):
        seq = build_sequence([(1, 1), (0, 1), (1, 1), (1, 1)])
        seg = sliding_window(seq, 2)
        assert (seg.start, seg.end) == (3, 4)
        assert seg.density.value == 1

    def test_single_window(self):
        seg = sliding_window(build_sequence([(5, 1)]), 1)
        assert (seg.start, seg.end) == (1, 1)

    def test_too_long_infeasible(self):
        with pytest.raises(InfeasibleWidthWindow):
            sliding_window(build_sequence([(1, 1), (1, 1)]), 3)

    def test_fractional_width_infeasible(self):
        with pytest.raises(InfeasibleWidthWindow):
            sliding_window(build_sequence([(1, 1), (1, 1)]), 1.5)

    def test_requires_unit_weights(self):
        with pytest.raises(NonUniformInput):
            sliding_window(build_sequence([(1, 1), (1, 2)]), 2)

    def test_tie_takes_smallest_start(self):
        seq = build_sequence([(1, 1), (1, 1), (1, 1)])
        assert sliding_window(seq, 2).start == 1


class TestMaxDensityMinWidth:
    def test_example(self):
        seq = build_sequence([(9, 1), (5, 1), (3, 1), (4, 1)])
        seg = max_density_min_width(seq, 2)
        assert (seg.start, seg.end) == (1, 2)
        assert seg.density.value == 7

    def test_tie_normalized_example(self):
        seq = build_sequence([(0, 1), (10, 1), (0, 1), (0, 1), (10, 1)])
        seg = max_density_min_width(seq, 2)
        assert seg.density.value == 5
        assert (seg.start, seg.end) == (1, 2)

    def test_all_equal_returns_leftmost_shortest(self):
        for L in (1, 2, 3):
            seq = build_sequence([(4, 1)] * 5)
            seg = max_density_min_width(seq, L)
            assert (seg.start, seg.end) == (1, L)
            assert seg.density.value == 4

    def test_infeasible(self):
        with pytest.raises(InfeasibleWidthWindow):
            max_density_min_width(build_sequence([(1, 1)] * 3), 4)

    def test_queries_the_structure_once_per_left_index(self, monkeypatch):
        # The one-endpoint query (lidx[i] == n) goes to the structure too.
        calls = []
        orig = sweep_left.find_match_min_width

        def spy(state, i):
            calls.append(i)
            return orig(state, i)

        monkeypatch.setattr(sweep_left, "find_match_min_width", spy)
        seq = build_sequence([(v, 1) for v in (3, 1, 4, 1, 5, 9, 2, 6)])
        seg = max_density_min_width(seq, 3)
        assert calls == [6, 5, 4, 3, 2, 1]  # i0 = 6 down to 1
        assert (seg.start, seg.end) == (6, 8)

    def test_oracle_agreement(self, rng):
        for _ in range(150):
            n = rng.randint(1, 60)
            seq = general_seq(rng, n)
            L = rng.randint(1, seq.prefix_weight[n])
            seg = max_density_min_width(seq, L)
            want = brute_force_best(seq, L, None)
            assert seg.density == want.density
            assert seq.width(seg.start, seg.end) >= L


class TestMaxDensityUniform:
    def test_example(self):
        seq = build_sequence([(v, 1) for v in (1, 0, 1, 1, 0, 1, 1, 1)])
        seg = max_density_uniform(seq, 3, 4)
        assert (seg.start, seg.end) == (6, 8)
        assert seg.density.value == 1

    def test_constant_sequence(self):
        seq = build_sequence([(7, 1)] * 9)
        seg = max_density_uniform(seq, 2, 5)
        assert seg.density.value == 7
        assert (seg.start, seg.end) == (1, 2)

    def test_single_peak_width_one(self):
        values = [1, 3, 9, 2, 0, 4]
        seq = build_sequence([(v, 1) for v in values])
        seg = max_density_uniform(seq, 1, len(values))
        assert (seg.start, seg.end) == (3, 3)

    def test_requires_unit_weights(self):
        with pytest.raises(NonUniformInput):
            max_density_uniform(build_sequence([(1, 1), (1, 2)]), 1, 2)

    def test_infeasible(self):
        with pytest.raises(InfeasibleWidthWindow):
            max_density_uniform(build_sequence([(1, 1)] * 3), 5, 7)
        with pytest.raises(InfeasibleWidthWindow):
            max_density_uniform(build_sequence([(1, 1)] * 3), math.inf, math.inf)

    def test_unbounded_U_is_capped_at_total_width(self):
        seq = build_sequence([(3, 1), (1, 1), (4, 1), (1, 1), (5, 1)])
        seg = max_density_uniform(seq, 2, math.inf)
        assert (seg.start, seg.end) == (3, 5)
        want = max_density_general(seq, 2, math.inf)
        assert (want.start, want.end) == (seg.start, seg.end)

    def test_reversed_window_rejected_like_general(self):
        seq = build_sequence([(3, 1), (1, 1), (4, 1), (1, 1), (5, 1)])
        with pytest.raises(ValueError):
            max_density_general(seq, 4, 3)
        with pytest.raises(ValueError):
            max_density_uniform(seq, 4, 3)

    def test_first_block_gets_no_max_width_structure(self, rng, monkeypatch):
        # Block z's endpoint ranges spill only into block z + 1, so the
        # max-width structures start at the second block.
        starts = []
        orig = sweep_right.initialize_max_width

        def spy(seq, x, y, *a, **kw):
            starts.append(x)
            return orig(seq, x, y, *a, **kw)

        monkeypatch.setattr(sweep_right, "initialize_max_width", spy)
        seq = uniform_seq(rng, 20)
        seg = max_density_uniform(seq, 3, 7)  # blocks of 4 start at 1, 5, ..., 17
        assert starts == [5, 9, 13, 17]
        want = brute_force_best(seq, 3, 7)
        assert (seg.start, seg.end, seg.density) == (want.start, want.end, want.density)

    def test_oracle_agreement(self, rng):
        for _ in range(200):
            n = rng.randint(2, 60)
            seq = uniform_seq(rng, n)
            L = rng.randint(1, n - 1)
            U = rng.randint(L + 1, n)
            seg = max_density_uniform(seq, L, U)
            want = brute_force_best(seq, L, U)
            assert seg.density == want.density
            assert L <= seg.end - seg.start + 1 <= U
        # equal weights c: the bounds become item counts ceil(L/c)..floor(U/c)
        for _ in range(200):
            n = rng.randint(1, 40)
            c = rng.randint(2, 5)
            seq = build_sequence([(rng.randint(-9, 9), c) for _ in range(n)])
            L = rng.randint(1, c * n) + rng.choice((0, 0.5))
            U = rng.randint(math.ceil(L), c * n + 3) + rng.choice((0, 0.5))
            try:
                seg = max_density_uniform(seq, L, U)
            except InfeasibleWidthWindow:
                with pytest.raises(InfeasibleWidthWindow):
                    brute_force_best(seq, L, U)
                continue
            want = brute_force_best(seq, L, U)
            assert (seg.start, seg.end, seg.density) == (want.start, want.end, want.density)


class TestCollectBlocks:
    """The greedy aligned cover `_iter_cover` that max_density_general walks;
    each block is (level, start) and spans 2**level indices."""

    def test_aligned_pair(self):
        assert list(_iter_cover(5, 12, 3)) == [(2, 5), (2, 9)]

    def test_ascending_cover(self):
        assert list(_iter_cover(2, 8, 3)) == [(0, 2), (1, 3), (2, 5)]

    def test_single_point(self):
        assert list(_iter_cover(7, 7, 3)) == [(0, 7)]

    def test_empty_interval_yields_nothing(self):
        assert list(_iter_cover(5, 4, 2)) == []

    @given(st.integers(0, 6), st.integers(1, 500), st.data())
    @settings(max_examples=200, deadline=None)
    def test_cover_properties(self, beta, p, data):
        length = data.draw(st.integers(1, 2 ** (beta + 1) - 1))
        q = p + length - 1
        blocks = list(_iter_cover(p, q, beta))
        # disjoint, exact union, aligned, level-capped, count-bounded
        covered = []
        for level, start in blocks:
            assert 0 <= level <= beta
            assert (start - 1) % 2 ** level == 0
            covered.extend(range(start, start + 2 ** level))
        assert covered == list(range(p, q + 1))
        assert len(blocks) <= 2 * (beta + 1)


class TestMaxDensityGeneral:
    def test_example(self):
        seq = build_sequence([(2, 1), (6, 2), (3, 1)])
        seg = max_density_general(seq, 2, 3)
        assert seg.density.value == 3
        assert (seg.start, seg.end) == (2, 2)

    def test_whole_sequence_when_lower_bound_is_total(self):
        seq = build_sequence([(2, 1), (6, 2), (3, 1)])
        seg = max_density_general(seq, 4, 4)
        assert (seg.start, seg.end) == (1, 3)

    def test_sub_unit_weights_match_oracle(self, rng):
        # dyadic float weights below 1 become exact Fractions
        for _ in range(150):
            n = rng.randint(1, 30)
            seq = build_sequence([(float(rng.randint(-9, 9)), rng.choice((0.125, 0.5, 0.75)))
                                  for _ in range(n)])
            total = seq.prefix_weight[n]
            L = rng.randint(1, int(total * 8)) * 0.125
            U = max(L, seq.max_weight) + rng.randint(0, 16) * 0.125
            try:
                seg = max_density_general(seq, L, U)
            except InfeasibleWidthWindow:
                with pytest.raises(InfeasibleWidthWindow):
                    brute_force_best(seq, L, U)
                continue
            want = brute_force_best(seq, L, U)
            assert (seg.start, seg.end, seg.density) == (want.start, want.end, want.density)

    def test_oracle_agreement(self, rng):
        for _ in range(150):
            n = rng.randint(1, 40)
            seq = general_seq(rng, n)
            total = seq.prefix_weight[n]
            L = rng.randint(1, total)
            U = rng.randint(max(L, seq.max_weight), total)
            try:
                seg = max_density_general(seq, L, U)
            except InfeasibleWidthWindow:
                with pytest.raises(InfeasibleWidthWindow):
                    brute_force_best(seq, L, U)
                continue
            want = brute_force_best(seq, L, U)
            assert seg.density == want.density
            assert L <= seq.width(seg.start, seg.end) <= U

    def test_items_wider_than_u_need_no_split(self, rng):
        # An item wider than U only leaves uidx[i] < lidx[i], an empty
        # cover; no refusal and no split is needed.
        for _ in range(1000):
            n = rng.randint(1, 40)
            seq = build_sequence([
                (rng.randint(-9, 9),
                 rng.randint(8, 14) if rng.random() < 0.15 else rng.randint(1, 7))
                for _ in range(n)
            ])
            U = rng.randint(1, 7)
            L = rng.randint(1, U)
            try:
                seg = max_density_general(seq, L, U)
            except InfeasibleWidthWindow:
                with pytest.raises(InfeasibleWidthWindow):
                    brute_force_best(seq, L, U)
                continue
            want = brute_force_best(seq, L, U)
            assert (seg.start, seg.end, seg.density) == (want.start, want.end, want.density)

    def test_builds_no_one_item_blocks(self, rng, monkeypatch):
        # Structures exist only at levels 1..beta, about n / 2 + n / 4 + ...
        # blocks; a one-item block answers its own index.
        calls = []
        orig = sweep_left.initialize_min_width

        def spy(seq, x, y, *a, **kw):
            calls.append(y - x + 1)
            return orig(seq, x, y, *a, **kw)

        monkeypatch.setattr(sweep_left, "initialize_min_width", spy)
        for n in (3000, 5000):
            calls.clear()
            seq = general_seq(rng, n, 1, 3)
            L = n // 10
            seg = max_density_general(seq, L, L + 500)
            assert L <= seq.width(seg.start, seg.end) <= L + 500
            assert calls and min(calls) >= 2
            assert len(calls) < n

    def test_uniform_cross_agreement(self, rng):
        for _ in range(100):
            n = rng.randint(2, 50)
            seq = uniform_seq(rng, n)
            L = rng.randint(1, n - 1)
            U = rng.randint(L + 1, n)
            a = max_density_uniform(seq, L, U)
            b = max_density_general(seq, L, U)
            assert a.density == b.density


class TestSolveDispatch:
    def test_infeasible_input_stops_at_the_backend(self, rng, monkeypatch):
        # Weights 2 and 4 give even widths only, so [5, 5] admits none; the
        # other bounds lie above the total width or hold no whole width.
        # The backend proves each infeasible, no pure sweep runs, and the
        # error is the one the pure path raises.
        seq = build_sequence([(rng.randint(-9, 9), rng.choice((2, 4))) for _ in range(5000)])
        assert fastpath.eligible(seq)
        bounds = [(5, 5), (seq.total_width + 1, None), (5.5, 5.75)]
        pure = []
        with monkeypatch.context() as m:
            m.setattr(fastpath, "MIN_FAST_N", seq.n + 1)
            for L, U in bounds:
                with pytest.raises(InfeasibleWidthWindow) as exc:
                    solve(SolveRequest(seq, L, U))
                pure.append(str(exc.value))

        def no_sweep(*a, **kw):
            raise AssertionError("a pure sweep ran")

        for name in ("max_density_min_width", "max_density_uniform", "max_density_general"):
            monkeypatch.setattr(solvers, name, no_sweep)
        for (L, U), want in zip(bounds, pure):
            with pytest.raises(InfeasibleWidthWindow) as exc:
                solve(SolveRequest(seq, L, U))
            assert str(exc.value) == want

    def test_unbounded_routes_to_min_width(self, monkeypatch):
        calls = []
        orig = solvers.max_density_min_width

        def spy(*a, **kw):
            calls.append("min_width")
            return orig(*a, **kw)

        monkeypatch.setattr(solvers, "max_density_min_width", spy)
        seq = uniform_seq(random.Random(3), 10)
        solve(SolveRequest(seq, 2, None))
        solve(SolveRequest(seq, 2, 10))  # U == total width also qualifies
        assert calls == ["min_width", "min_width"]

    def test_uniform_bounded_routes_to_uniform(self, monkeypatch):
        calls = []
        orig = solvers.max_density_uniform

        def spy(*a, **kw):
            calls.append("uniform")
            return orig(*a, **kw)

        monkeypatch.setattr(solvers, "max_density_uniform", spy)
        seq = uniform_seq(random.Random(3), 10)
        solve(SolveRequest(seq, 2, 5))
        assert calls == ["uniform"]

    def test_uniform_equal_bounds_build_no_sweep_structure(self, monkeypatch):
        # With L == U every left index has one endpoint, so the sweep offers
        # it directly and builds neither structure.
        calls = []

        def spy(module, name):
            orig = getattr(module, name)
            return lambda *a, **kw: calls.append(name) or orig(*a, **kw)

        for module, name in ((sweep_left, "initialize_min_width"),
                             (sweep_right, "initialize_max_width")):
            monkeypatch.setattr(module, name, spy(module, name))
        tied = build_sequence([(v, 2) for v in (1, 3, 0, 3, 1, 3, 1)])  # windows 4, 3, 3, 4, 4, 4
        for seq, L in ((uniform_seq(random.Random(3), 10), 4), (tied, 4), (tied, 12)):
            got = solve(SolveRequest(seq, L, L))
            want = brute_force_best(seq, L, L)
            for seg in (got, sliding_window(seq, L)):
                assert (seg.start, seg.end, seg.density) == (want.start, want.end, want.density)
        assert calls == []

    def test_general_weights_route_to_general(self, monkeypatch):
        calls = []
        orig = solvers.max_density_general

        def spy(*a, **kw):
            calls.append("general")
            return orig(*a, **kw)

        monkeypatch.setattr(solvers, "max_density_general", spy)
        seq = build_sequence([(1, 1), (2, 2), (3, 1), (0, 2)])
        solve(SolveRequest(seq, 2, 4))
        assert calls == ["general"]

    def test_heavy_items_split_sequence(self):
        seq = build_sequence([(1, 1), (9, 5), (1, 1)])
        seg = solve(SolveRequest(seq, 1, 3))
        assert (seg.start, seg.end) == (1, 1)
        assert seg.density.value == 1
        # the heavy item never appears inside an answer
        seq2 = build_sequence([(0, 1), (9, 5), (8, 1)])
        seg2 = solve(SolveRequest(seq2, 1, 3))
        assert (seg2.start, seg2.end) == (3, 3)

    def test_split_heavy_cuts_light_runs_wide_enough_for_L(self):
        # Items 3 and 6 are wider than U = 4: the light runs are items 1-2
        # (width 3), 4-5 (width 1.5, narrower than L = 2) and 7-9 (width 6).
        items = [(1, 1), (Fraction(-1, 3), 2), (7, 5), (2, Fraction(1, 2)), (0, 1),
                 (5, 9), (3, 2), (Fraction(5, 2), 2), (-4, 2)]
        seq = build_sequence(items, value_scale=10, weight_scale=100)
        pieces = solvers._split_heavy(seq, 2, 4)
        assert [(offset, piece.items) for offset, piece in pieces] == [
            (0, items[0:2]), (6, items[6:9])]
        for _, piece in pieces:
            assert (piece.value_scale, piece.weight_scale) == (10, 100)
        assert [(p.min_weight, p.max_weight, p.is_uniform) for _, p in pieces] == [
            (1, 2, False), (2, 2, False)]
        # With nothing wider than U the sequence itself is the one piece.
        assert solvers._split_heavy(seq, 2, 9) == [(0, seq)]
        assert solvers._split_heavy(seq, 2, None) == [(0, seq)]
        assert solvers._split_heavy(seq, 2, 1.5) == []  # every light run is narrower than L
        assert solvers._split_heavy(seq, seq.total_width + 1, None) == []

    def test_all_items_heavy_infeasible(self):
        with pytest.raises(InfeasibleWidthWindow):
            solve(SolveRequest(build_sequence([(1, 5), (1, 7)]), 1, 3))

    def test_infeasible_message_names_the_window(self):
        seq = build_sequence([(1, 1), (2, 1)])
        with pytest.raises(InfeasibleWidthWindow,
                           match=r"^no segment with width in \[3, unbounded\]$"):
            solve(SolveRequest(seq, 3, None))
        with pytest.raises(InfeasibleWidthWindow,
                           match=r"^no segment with width in \[1, 3\]$"):
            solve(SolveRequest(build_sequence([(1, 5), (1, 7)]), 1, 3))

    def test_equal_scaled_weights_use_count_normalization(self):
        # all weights 10 (e.g. decimal-scaled unit weights): widths 10*k
        seq = build_sequence([(v, 10) for v in (1, 0, 1, 1)])
        seg = solve(SolveRequest(seq, 20, 20))
        assert (seg.start, seg.end) == (3, 4)
        with pytest.raises(InfeasibleWidthWindow):
            solve(SolveRequest(seq, 11, 19))  # no count of items hits [11,19]

    def test_request_validation(self):
        seq = uniform_seq(random.Random(3), 4)
        with pytest.raises(ValueError):
            SolveRequest(seq, 0, 2)
        with pytest.raises(ValueError):
            SolveRequest(seq, 3, 2)
        with pytest.raises(ValueError, match="need L <= U"):
            SolveRequest(seq, 1, float("nan"))

    def test_oracle_agreement_dispatch(self, rng):
        for _ in range(150):
            n = rng.randint(1, 50)
            seq = general_seq(rng, n)
            total = seq.prefix_weight[n]
            L = rng.randint(1, total)
            U = rng.randint(L, total)
            try:
                got = solve(SolveRequest(seq, L, U))
                got = (got.start, got.end, got.density)
            except InfeasibleWidthWindow:
                got = None
            try:
                want = brute_force_best(seq, L, U)
                want = (want.start, want.end, want.density)
            except InfeasibleWidthWindow:
                want = None
            assert got == want

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=24), st.data())
    @settings(max_examples=120, deadline=None)
    def test_solve_matches_oracle_property(self, values, data):
        seq = build_sequence([(v, 1) for v in values])
        n = len(values)
        L = data.draw(st.integers(1, n))
        U = data.draw(st.integers(L, n))
        got = solve(SolveRequest(seq, L, U))
        want = brute_force_best(seq, L, U)
        assert got.density == want.density


def _oracle_pair(seq, L, U=None):
    """(start, end) of the oracle's tie-rule answer; None when infeasible."""
    try:
        seg = brute_force_best(seq, L, U)
    except InfeasibleWidthWindow:
        return None
    return seg.start, seg.end


def _backend_pair(seq, L, U=None):
    """fastpath.best, with a proved infeasibility read as None."""
    try:
        return fastpath.best(seq, L, U)
    except InfeasibleWidthWindow:
        return None


def _heavy_seq(rng, n):
    """Weights 1..3 with about one item in eight at weight 9 (wider than the
    U the tests draw, so the pure path splits there)."""
    return build_sequence([
        (rng.randint(-9, 9), 9 if rng.random() < 0.125 else rng.randint(1, 3))
        for _ in range(n)
    ])


class TestFastPathParity:
    # MIN_FAST_N = 1 sends every instance to the backend; chunks of 1 and 3
    # endpoints make windows cross chunk boundaries.

    def test_uniform_and_min_width_match_pure(self, rng, monkeypatch):
        monkeypatch.setattr(fastpath, "MIN_FAST_N", 1)
        for chunk in (1, 3, fastpath.CHUNK):
            monkeypatch.setattr(fastpath, "CHUNK", chunk)
            for _ in range(60):
                n = rng.randint(2, 60)
                seq = uniform_seq(rng, n)
                L = rng.randint(1, n - 1)
                U = rng.randint(L + 1, n)
                want = _oracle_pair(seq, L, U)
                assert fastpath.best(seq, L, U) == want
                pure = max_density_uniform(seq, L, U)
                assert (pure.start, pure.end) == want
                got = solve(SolveRequest(seq, L, U))
                assert (got.start, got.end, got.density) == (pure.start, pure.end, pure.density)
            for _ in range(60):
                n = rng.randint(1, 60)
                seq = general_seq(rng, n)
                L = rng.randint(1, seq.prefix_weight[n])
                want = _oracle_pair(seq, L)
                assert fastpath.best(seq, L) == want
                pure = max_density_min_width(seq, L)
                assert (pure.start, pure.end) == want
                got = solve(SolveRequest(seq, L))
                assert (got.start, got.end, got.density) == (pure.start, pure.end, pure.density)
            for _ in range(60):
                # general weights, some items wider than U: no split needed;
                # half-integral bounds admit the same widths as their integer part
                n = rng.randint(1, 60)
                seq = _heavy_seq(rng, n)
                L = rng.randint(1, 8) - rng.choice((0, 0.5))
                U = rng.randint(math.ceil(L), 8) + rng.choice((0, 0.5))
                want = _oracle_pair(seq, L, U)
                if want is None:
                    with pytest.raises(InfeasibleWidthWindow):
                        fastpath.best(seq, L, U)
                    with pytest.raises(InfeasibleWidthWindow):
                        solve(SolveRequest(seq, L, U))
                else:
                    assert fastpath.best(seq, L, U) == want
                    got = solve(SolveRequest(seq, L, U))
                    assert (got.start, got.end) == want

    def test_weighted_windows_are_searched_once_per_solve(self, rng, monkeypatch):
        # windows do not depend on a round's density: the first pick and
        # every round read the ones searched at the start of the solve
        monkeypatch.setattr(fastpath, "MIN_FAST_N", 1)
        searched = []
        windows = fastpath._windows
        monkeypatch.setattr(fastpath, "_windows",
                            lambda *args: searched.append(args) or windows(*args))
        for chunk in (1, 3, fastpath.CHUNK):
            monkeypatch.setattr(fastpath, "CHUNK", chunk)
            for _ in range(40):
                n = rng.randint(20, 60)
                seq = _heavy_seq(rng, n)
                L = rng.randint(1, 8)
                U = rng.choice((None, rng.randint(L, 12)))
                want = _oracle_pair(seq, L, U)
                searched.clear()
                assert _backend_pair(seq, L, U) == want
                if want is not None and not seq.is_uniform:
                    assert len(searched) == 1, (chunk, n, L, U)

    def test_counters_match_pure(self, rng, monkeypatch):
        # The backend runs no sweep: an answer from it leaves the sweep
        # counters at 0, and a fallback at the round cap reports exactly the
        # pure sweep's counters.
        monkeypatch.setattr(fastpath, "MIN_FAST_N", 1)
        monkeypatch.setattr(fastpath, "MAX_ROUNDS", 1)
        answered = fell_back = 0
        for _ in range(40):
            n = rng.randint(3, 60)
            seq = uniform_seq(rng, n)
            L = rng.randint(1, n - 2)
            U = rng.randint(L + 1, n - 1)  # below n: solve routes to uniform
            c_pure, c_solve = OpCounters(), OpCounters()
            max_density_uniform(seq, L, U, counters=c_pure)
            solve(SolveRequest(seq, L, U), counters=c_solve)
            if fastpath.best(seq, L, U) is None:
                fell_back += 1
                assert c_solve == c_pure
            else:
                answered += 1
                assert c_solve == OpCounters()
        assert answered and fell_back

    def test_round_cap_falls_back_to_pure(self, rng, monkeypatch):
        monkeypatch.setattr(fastpath, "MIN_FAST_N", 1)
        monkeypatch.setattr(fastpath, "MAX_ROUNDS", 1)
        fell_back = 0
        for _ in range(60):
            n = rng.randint(3, 60)
            seq = uniform_seq(rng, n)
            L = rng.randint(1, n - 2)
            U = rng.randint(L + 1, n - 1)
            fell_back += fastpath.best(seq, L, U) is None
            pure = max_density_uniform(seq, L, U)
            got = solve(SolveRequest(seq, L, U))
            assert (pure.start, pure.end, pure.density) == (got.start, got.end, got.density)
            seq = general_seq(rng, n)
            L = rng.randint(1, seq.prefix_weight[n])
            fell_back += fastpath.best(seq, L) is None
            pure = max_density_min_width(seq, L)
            got = solve(SolveRequest(seq, L))
            assert (pure.start, pure.end, pure.density) == (got.start, got.end, got.density)
            seq = general_seq(rng, n, whi=3)
            total = seq.prefix_weight[n]
            L = rng.randint(1, total - 1)
            U = rng.randint(max(L, 3), total + 1)
            fell_back += _backend_pair(seq, L, U) is None
            try:
                if U < total:
                    pure = max_density_general(seq, L, U)
                else:
                    pure = max_density_min_width(seq, L)
            except InfeasibleWidthWindow:
                with pytest.raises(InfeasibleWidthWindow):
                    solve(SolveRequest(seq, L, U))
                continue
            got = solve(SolveRequest(seq, L, U))
            assert (pure.start, pure.end, pure.density) == (got.start, got.end, got.density)
        assert fell_back

    def test_parity_just_inside_int64_guard(self, rng, monkeypatch):
        # Prefix values reach +-cap with 2 * cap * total width just under
        # 2**62: the keys and gains come as close to the int64 limit as the
        # guard admits.  Prefixes are coarse multiples of cap // 4 plus a
        # few units, so densities tie or differ only in the low bits.
        monkeypatch.setattr(fastpath, "MIN_FAST_N", 1)
        monkeypatch.setattr(fastpath, "CHUNK", 3)

        def near_guard(weights):
            total = sum(weights)
            cap = ((1 << 62) - 1) // (2 * total)
            prefix = [0] + [
                max(-cap, min(cap, rng.randint(-4, 4) * (cap // 4) + rng.randint(-2, 2)))
                for _ in weights
            ]
            prefix[rng.randrange(1, len(prefix))] = rng.choice((-cap, cap))
            items = [(prefix[t] - prefix[t - 1], w) for t, w in enumerate(weights, 1)]
            seq = build_sequence(items)
            assert fastpath.eligible(seq)
            assert 2 * (cap + 1) * total >= 1 << 62  # no headroom left
            return seq

        for _ in range(150):
            n = rng.randint(2, 60)
            seq = near_guard([1] * n)
            L = rng.randint(1, n - 1)
            U = rng.randint(L + 1, n)
            want = _oracle_pair(seq, L, U)
            assert fastpath.best(seq, L, U) == want
            pure = max_density_uniform(seq, L, U)
            assert (pure.start, pure.end) == want
        for _ in range(150):
            n = rng.randint(1, 60)
            seq = near_guard([rng.randint(1, 4) for _ in range(n)])
            total = seq.prefix_weight[n]
            L = rng.randint(1, total)
            want = _oracle_pair(seq, L)
            assert fastpath.best(seq, L) == want
            pure = max_density_min_width(seq, L)
            assert (pure.start, pure.end) == want
            U = rng.randint(L, total)
            assert _backend_pair(seq, L, U) == _oracle_pair(seq, L, U)

    def test_large_values_fall_back_to_pure(self):
        big = 1 << 40
        seq = build_sequence([(big, 1)] * 5000)
        assert not fastpath.eligible(seq)  # spread * width would overflow
        assert fastpath.best(seq, 2) is None
        seg = solve(SolveRequest(seq, 2))
        assert seg.density == density(seq, 1, 2)


def _uniform_lane_cases():
    """(values, L, U) that put the unit-weight lane at its edges."""
    cases = []
    for n in (1, 2, 5, 17, 40):
        for L, U in ((1, 1), (3, 3), (1, None), (2, None), (2, n), (2, n + 4), (1, n - 1)):
            if 1 <= L <= n and (U is None or U >= L):
                cases += [([4] * n, L, U), ([-3] * n, L, U),
                          ([(-1) ** t * (t % 7) for t in range(n)], L, U)]
    for m in (2, 4, 8, 16):  # U - L + 1 a power of two, and one off each side
        for mm in (m - 1, m, m + 1):
            cases.append(([(t * 5) % 11 - 5 for t in range(50)], 3, 3 + mm - 1))
    return cases


class TestUniformLane:
    # The unit-weight lane of fastpath.best: a running minimum for endpoints
    # below U, slices of one doubling beyond it, and an exact first pick.
    @staticmethod
    def _check(values, L, U):
        seq = build_sequence([(v, 1) for v in values])
        want = _oracle_pair(seq, L, U)
        pure = max_density_uniform(seq, L, len(values) if U is None else U)
        assert (pure.start, pure.end) == want
        for chunk in (1, 3, fastpath.CHUNK):
            with mock.patch.object(fastpath, "MIN_FAST_N", 1), \
                    mock.patch.object(fastpath, "CHUNK", chunk):
                assert fastpath.best(seq, L, U) == want, (chunk, values, L, U)

    @pytest.mark.parametrize("values,L,U", _uniform_lane_cases())
    def test_edge_cases(self, values, L, U):
        self._check(values, L, U)

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=48), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_and_pure(self, values, data):
        n = len(values)
        L = data.draw(st.integers(1, n))
        U = data.draw(st.one_of(st.none(), st.integers(L, n + 3)))
        self._check(values, L, U)


class TestWeightedLane:
    # The weighted lane of fastpath.best: windows searched from the last
    # chunk's ends, empty windows behind items wider than U - L, and window
    # minima from one doubling per chunk; against the oracle at several
    # chunk sizes.
    @given(st.lists(st.tuples(st.integers(-9, 9),
                              st.one_of(st.integers(1, 3), st.integers(1, 3), st.integers(9, 30))),
                    min_size=1, max_size=60),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, items, data):
        seq = build_sequence(items)
        total = seq.prefix_weight[seq.n]
        L = data.draw(st.integers(1, total)) - data.draw(st.sampled_from((0, 0.5)))
        U = data.draw(st.one_of(st.none(), st.integers(math.ceil(L), total + 3)))
        if U is not None:
            U += data.draw(st.sampled_from((0, 0.5)))
        want = _oracle_pair(seq, L, U)
        for chunk in (1, 3, 7, fastpath.CHUNK):
            with mock.patch.object(fastpath, "MIN_FAST_N", 1), \
                    mock.patch.object(fastpath, "CHUNK", chunk):
                assert _backend_pair(seq, L, U) == want, (chunk, items, L, U)


class TestBlockMin:
    # fastpath._block_min against a brute-force minimum per window; it
    # reads its levels from fresh arrays and leaves the keys as they were.
    @staticmethod
    def _check(B, lo, hi):
        import numpy as np

        keys = list(B)
        B, lo, hi = (np.asarray(x, dtype=np.int64) for x in (B, lo, hi))
        got = np.empty(len(lo), dtype=np.int64)
        fastpath._block_min(B, lo, hi, got)
        assert B.tolist() == keys
        assert got.tolist() == [min(keys[a:z + 1]) for a, z in zip(lo, hi)]

    def test_several_power_of_two_classes_in_one_call(self, rng):
        B = [rng.randint(-50, 50) for _ in range(200)]
        lo = sorted(rng.randrange(0, 100) for _ in range(60))
        hi = []
        for a in lo:  # lengths 1 .. 70 keys, hi kept nondecreasing
            hi.append(max(a + rng.randint(0, 69), hi[-1] if hi else 0))
        self._check(B, lo, hi)

    def test_single_key_windows(self, rng):
        B = [rng.randint(-9, 9) for _ in range(30)]
        self._check(B, list(range(30)), list(range(30)))

    def test_windows_ending_at_the_last_key(self, rng):
        for size in (1, 2, 3, 7, 8, 9, 31):
            B = [rng.randint(-9, 9) for _ in range(40)]
            self._check(B, [40 - size] * 3, [39] * 3)
            self._check(B, list(range(40 - size, 40)), [39] * size)

    def test_windows_longer_than_a_chunk(self, rng):
        n = 3 * fastpath.CHUNK
        B = [rng.randint(-10**6, 10**6) for _ in range(n)]
        lo = [0, 5, 100, 101]
        hi = [fastpath.CHUNK + 3, 2 * fastpath.CHUNK, n - 2, n - 1]
        self._check(B, lo, hi)


class TestNarrowStore:
    # A sequence may keep its prefix arrays as int32.  The backend forms
    # every key and every difference in int64, so an int32 store gives the
    # int64 store's answer, even with prefixes within 1000 of +-(2**31 - 1),
    # where a key or difference formed in int32 would wrap.
    EDGE = (1 << 31) - 1

    @classmethod
    def _walk(cls, rng, n):
        """n + 1 prefix values from 0 that jump near both edges of int32."""
        V = [0]
        for _ in range(n):
            r = rng.random()
            if r < 0.1:
                V.append(rng.choice((1, -1)) * (cls.EDGE - rng.randrange(1000)))
            else:
                V.append(max(-cls.EDGE, min(cls.EDGE, V[-1] + rng.randint(-9, 9))))
        return V

    @staticmethod
    def _stores(V, W):
        """The same sequence stored as int64 and as int32 arrays."""
        import numpy as np

        from maxseg.core import WeightedSequence

        return [WeightedSequence(np.array(V, dtype=dt), None if W is None else np.array(W, dtype=dt))
                for dt in (np.int64, np.int32)]

    @pytest.mark.parametrize("weighted", [False, True])
    def test_best_equal_on_both_stores(self, rng, monkeypatch, weighted):
        monkeypatch.setattr(fastpath, "MIN_FAST_N", 1)
        for chunk in (1, 7, fastpath.CHUNK):
            monkeypatch.setattr(fastpath, "CHUNK", chunk)
            for _ in range(40):
                n = rng.randint(2, 160)
                weights = [rng.choice((1, 2, 3)) if weighted else 1 for _ in range(n)]
                W = [0]
                for w in weights:
                    W.append(W[-1] + w)
                wide, narrow = self._stores(self._walk(rng, n), W if weighted else None)
                assert fastpath.eligible(wide) and fastpath.eligible(narrow)
                L = rng.randint(1, W[-1])
                U = rng.choice((None, rng.randint(L, W[-1] + 2)))
                want = fastpath.best(wide, L, U)
                assert want is not None
                assert fastpath.best(narrow, L, U) == want, (chunk, n, L, U)
                # the rounds would mend a wrong first pick: check it apart
                U = None if U is None or U >= W[-1] else U
                assert fastpath._first_pick(*narrow.prefix_arrays(), n, L, U)[:2] == \
                    fastpath._first_pick(*wide.prefix_arrays(), n, L, U)[:2]

    def test_span_density_and_compress_runs_on_an_int32_store(self, rng, monkeypatch):
        from maxseg import compress_runs

        monkeypatch.setattr(fastpath, "MIN_FAST_N", 1)
        # -5 and 2**32 - 5 are one int32 value apart from each other: runs
        # found in int32 would merge items 2 and 3.
        edge = -self.EDGE + 1
        cases = [([0, edge, edge + (1 << 32) - 5, edge + (1 << 32) - 10], None)]
        for _ in range(30):
            n = rng.randint(2, 60)
            weights = [rng.choice((1, 2)) for _ in range(n)]
            W = [0]
            for w in weights:
                W.append(W[-1] + w)
            cases.append((self._walk(rng, n), rng.choice((None, W))))
        for V, W in cases:
            wide, narrow = self._stores(V, W)
            n = wide.n
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    assert narrow._span(i, j) == wide._span(i, j) == (
                        V[j] - V[i - 1], j - i + 1 if W is None else W[j] - W[i - 1])
                    assert density(narrow, i, j) == density(wide, i, j)
            merged = compress_runs(narrow)
            assert merged.prefix_arrays()[0].dtype.name == "int32"
            assert (merged.prefix_value, merged.prefix_weight) == (
                compress_runs(wide).prefix_value, compress_runs(wide).prefix_weight)
        assert compress_runs(self._stores(*cases[0])[1]).n == 3


class TestRoundScratch:
    # A round forms its keys a chunk at a time, so beyond the sequence's own
    # prefix arrays fastpath.best holds O(CHUNK + window) memory, whatever n,
    # plus, for varying weights, the windows of every endpoint, searched once
    # per solve and kept packed: at most 4 bits per endpoint.
    @staticmethod
    def _peak(n, weighted, L, U, dtype="int64"):
        import tracemalloc

        import numpy as np

        from maxseg.core import WeightedSequence

        rng = np.random.default_rng(5)
        V = np.zeros(n + 1, dtype=dtype)
        np.cumsum(rng.integers(-9, 10, n), out=V[1:])
        if weighted:
            W = np.zeros(n + 1, dtype=dtype)
            np.cumsum(rng.integers(1, 4, n), out=W[1:])
            seq = WeightedSequence(V, W)
        else:
            seq = WeightedSequence(V, None)
        tracemalloc.start()
        try:
            assert fastpath.best(seq, L, U) is not None
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("weighted,L,U", [(True, 100, 20000), (False, 100, 200),
                                              (False, 1000, None)])
    def test_peak_is_flat_in_n(self, weighted, L, U):
        kept = 0.5 if weighted else 0  # bytes of kept windows per item
        small, large = (self._peak(n, weighted, L, U) - kept * n for n in (10**5, 10**6))
        assert max(small, large) <= 3_000_000, (small, large)
        assert large <= 1.5 * small, (small, large)

    def test_int32_weights_are_searched_without_a_copy(self):
        # int32 columns, as a long TSV gives: a search of W with a key of
        # another dtype would copy W whole to int64, 8 bytes per item, where
        # the kept windows take half a byte.
        small, large = (self._peak(n, True, 100, 1100, "int32") for n in (10**5, 4 * 10**5))
        assert large <= small + 0.5 * 3 * 10**5 + 100_000, (small, large)

    def test_unit_lane_on_a_gc_record_holds_three_chunks(self):
        # A 250k-base GC record (int32 prefixes, [100, 200]): a chunk's keys
        # and its doubling are freed before the next chunk's are formed, so
        # a round holds its gains and two levels, CHUNK + 100 keys each.
        import tracemalloc

        import numpy as np

        from maxseg.core import WeightedSequence

        n = 250_000
        rng = np.random.default_rng(7)
        V = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(rng.random(n) < 0.4, out=V[1:])
        seq = WeightedSequence(V, None)
        tracemalloc.start()
        try:
            assert fastpath.best(seq, 100, 200) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 450_000, peak


class TestEdgeProfiles:
    def test_all_negative_values_uniform(self, rng):
        for _ in range(60):
            n = rng.randint(2, 50)
            seq = build_sequence([(rng.randint(-9, -1), 1) for _ in range(n)])
            L = rng.randint(1, n - 1)
            U = rng.randint(L + 1, n)
            got = max_density_uniform(seq, L, U)
            want = brute_force_best(seq, L, U)
            assert got.density == want.density

    def test_negative_values_through_fast_path(self, rng, monkeypatch):
        monkeypatch.setattr(fastpath, "MIN_FAST_N", 1)
        for _ in range(60):
            n = rng.randint(2, 50)
            seq = build_sequence([(rng.randint(-9, 3), 1) for _ in range(n)])
            L = rng.randint(1, n - 1)
            U = rng.randint(L + 1, n)
            pure = max_density_uniform(seq, L, U)
            assert fastpath.best(seq, L, U) == (pure.start, pure.end)
            got = solve(SolveRequest(seq, L, U))
            assert (pure.start, pure.end) == (got.start, got.end)

    def test_width_bounds_at_total(self):
        seq = build_sequence([(3, 1), (1, 1), (5, 1)])
        seg = solve(SolveRequest(seq, 3, 3))
        assert (seg.start, seg.end) == (1, 3)
        seg = max_density_min_width(seq, 3)
        assert (seg.start, seg.end) == (1, 3)

    def test_float_inputs_fallback(self, rng):
        # integral floats are stored as ints: the answer is the integer one
        for _ in range(40):
            n = rng.randint(1, 30)
            values = [rng.randint(0, 9) for _ in range(n)]
            seq = build_sequence([(v * 1.0, 1.0) for v in values])
            L = rng.randint(1, n)
            U = rng.randint(L, n)
            got = solve(SolveRequest(seq, float(L), float(U)))
            want = brute_force_best(build_sequence([(v, 1) for v in values]), L, U)
            assert (got.start, got.end, got.density) == (want.start, want.end, want.density)

    def test_fast_eligibility_boundary(self):
        # just inside the int64-product guard: spread * total < 2**62
        n = 4096
        big = ((1 << 62) // (2 * n)) - 1
        ok = build_sequence([(big if i == 0 else 0, 1) for i in range(n)])
        assert fastpath.eligible(ok)
        too_big = build_sequence([(big * 4 if i == 0 else 0, 1) for i in range(n)])
        assert not fastpath.eligible(too_big)
        # the backend answers the first, the pure path the second; both
        # match the oracle (bounded U keeps it linear) and the pure sweep
        for seq in (ok, too_big):
            got = solve(SolveRequest(seq, 2, 3))
            assert (got.start, got.end) == _oracle_pair(seq, 2, 3)
        assert fastpath.best(ok, 2, 3) is not None
        assert fastpath.best(too_big, 2, 3) is None
        a = solve(SolveRequest(ok, 2))
        b = max_density_min_width(ok, 2)
        assert (a.start, a.end, a.density) == (b.start, b.end, b.density)


class TestCounters:
    def test_linear_budgets_on_random_instances(self, rng):
        for _ in range(25):
            n = rng.randint(2, 300)
            seq = uniform_seq(rng, n)
            L = rng.randint(1, n - 1)
            U = rng.randint(L + 1, n)
            c = OpCounters()
            max_density_min_width(seq, L, counters=c)
            assert c.total() <= 4 * n
            c = OpCounters()
            max_density_uniform(seq, L, U, counters=c)
            assert c.total() <= 4 * n

    def test_general_budget(self, rng):
        for _ in range(15):
            n = rng.randint(2, 200)
            seq = general_seq(rng, n, whi=3)
            total = seq.prefix_weight[n]
            L = rng.randint(1, total)
            U = rng.randint(max(L, seq.max_weight), total)
            c = OpCounters()
            try:
                max_density_general(seq, L, U, counters=c)
            except InfeasibleWidthWindow:
                continue
            beta = (U - L + 1).bit_length() - 1
            assert c.total() <= 4 * n * (beta + 1)


def _exact_answer(items, L, U):
    """Oracle (start, end, density) on an explicit Fraction copy with
    Fraction bounds; None when no segment is feasible."""
    seq = build_sequence([(Fraction(a), Fraction(w)) for a, w in items])
    try:
        seg = brute_force_best(seq, Fraction(L), None if U is None else Fraction(U))
    except InfeasibleWidthWindow:
        return None
    return seg.start, seg.end, seg.density


def _solve_answer(items, L, U):
    try:
        seg = solve(SolveRequest(build_sequence(items), L, U))
    except InfeasibleWidthWindow:
        return None
    return seg.start, seg.end, seg.density


# Value strategy, weight strategy and bound-grid unit per number kind.
_KINDS = {
    "decimal": (st.integers(-30, 30).map(lambda k: Decimal(k) / 10),
                st.integers(1, 30).map(lambda k: Decimal(k) / 10), Decimal("0.1")),
    "dyadic": (st.integers(-64, 64).map(lambda k: Fraction(k, 16)),
               st.integers(1, 16).map(lambda k: Fraction(k, 16)), Fraction(1, 16)),
    "integral-float": (st.integers(-9, 9).map(float), st.integers(1, 4).map(float), 0.5),
    "big-int": (st.tuples(st.integers(-9, 9), st.sampled_from((30, 62, 100)))
                .map(lambda t: (t[0] << t[1]) + 1),
                st.tuples(st.integers(1, 3), st.sampled_from((0, 20, 70)))
                .map(lambda t: t[0] << t[1]), 1 << 18),
}


@st.composite
def _instances(draw, kind):
    value, weight, unit = _KINDS[kind]
    items = draw(st.lists(st.tuples(value, weight), min_size=1, max_size=20))
    units = int(sum(Fraction(w) for _, w in items) / Fraction(unit))
    L = unit * draw(st.integers(1, units + 2))
    U = draw(st.one_of(st.none(), st.integers(0, units).map(lambda m: L + unit * m)))
    return items, L, U


class TestExactNumberModel:
    """Every accepted number type gets the exact optimum: solve agrees with
    the oracle on an explicit Fraction copy in (start, end, density), and
    both find no feasible segment or neither does."""

    @given(st.lists(st.tuples(st.sampled_from((0.1, 0.2, 0.3, -0.1, 0.7)),
                              st.sampled_from((0.1, 0.2, 0.3, 0.7))),
                    min_size=1, max_size=30),
           st.integers(1, 30), st.one_of(st.none(), st.integers(0, 30)))
    @settings(max_examples=300, deadline=None)
    def test_decimal_like_floats(self, items, l10, extra):
        L = l10 / 10
        U = None if extra is None else (l10 + extra) / 10
        assert _solve_answer(items, L, U) == _exact_answer(items, L, U)

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_number_kinds(self, kind, data):
        items, L, U = data.draw(_instances(kind))
        want = _exact_answer(items, L, U)
        assert _solve_answer(items, L, U) == want
        seq = build_sequence(items)
        if isinstance(seq.prefix_value[-1], int) and isinstance(seq.prefix_weight[-1], int):
            # int-valued input also runs through the backend
            with mock.patch.object(fastpath, "MIN_FAST_N", 1):
                assert fastpath.eligible(seq) or kind == "big-int"
                assert _solve_answer(items, L, U) == want
