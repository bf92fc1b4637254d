import math
import random
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import maxseg.fastpath as fastpath
import maxseg.solvers as solvers
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
        orig = solvers.find_match_min_width

        def spy(state, i):
            calls.append(i)
            return orig(state, i)

        monkeypatch.setattr(solvers, "find_match_min_width", spy)
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
        orig = solvers.initialize_max_width

        def spy(seq, x, y, *a, **kw):
            starts.append(x)
            return orig(seq, x, y, *a, **kw)

        monkeypatch.setattr(solvers, "initialize_max_width", spy)
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
        orig = solvers.initialize_min_width

        def spy(seq, x, y, *a, **kw):
            calls.append(y - x + 1)
            return orig(seq, x, y, *a, **kw)

        monkeypatch.setattr(solvers, "initialize_min_width", spy)
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

    def test_uniform_equal_bounds_route_to_densest_run(self, monkeypatch):
        calls = []
        orig = solvers._densest_run

        def spy(*a, **kw):
            calls.append("run")
            return orig(*a, **kw)

        monkeypatch.setattr(solvers, "_densest_run", spy)
        seq = uniform_seq(random.Random(3), 10)
        got = solve(SolveRequest(seq, 4, 4))
        assert calls == ["run"]
        want = sliding_window(seq, 4)
        assert (got.start, got.end, got.density) == (want.start, want.end, want.density)

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
                assert fastpath.best(seq, L, U) == want
                if want is None:
                    with pytest.raises(InfeasibleWidthWindow):
                        solve(SolveRequest(seq, L, U))
                else:
                    got = solve(SolveRequest(seq, L, U))
                    assert (got.start, got.end) == want

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
            fell_back += fastpath.best(seq, L, U) is None
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
            assert fastpath.best(seq, L, U) == _oracle_pair(seq, L, U)

    def test_large_values_fall_back_to_pure(self):
        big = 1 << 40
        seq = build_sequence([(big, 1)] * 5000)
        assert not fastpath.eligible(seq)  # spread * width would overflow
        assert fastpath.best(seq, 2) is None
        seg = solve(SolveRequest(seq, 2))
        assert seg.density == density(seq, 1, 2)


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
