import math
import random

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
    collect_blocks,
    density,
    max_density_general,
    max_density_min_width,
    max_density_uniform,
    sliding_window,
    solve,
)
from maxseg.errors import IndexOutOfRange

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
    def test_aligned_pair(self):
        blocks = collect_blocks(5, 12, 3, 256)
        assert [(b.start, b.end) for b in blocks] == [(5, 8), (9, 12)]
        assert [(b.level, b.ordinal) for b in blocks] == [(2, 1), (2, 2)]

    def test_ascending_cover(self):
        blocks = collect_blocks(2, 8, 3, 256)
        assert [(b.start, b.end) for b in blocks] == [(2, 2), (3, 4), (5, 8)]

    def test_single_point(self):
        blocks = collect_blocks(7, 7, 3, 256)
        assert [(b.start, b.end, b.level) for b in blocks] == [(7, 7, 0)]

    def test_bad_interval(self):
        with pytest.raises(IndexOutOfRange):
            collect_blocks(0, 4, 2, 16)
        with pytest.raises(IndexOutOfRange):
            collect_blocks(5, 4, 2, 16)

    @given(st.integers(0, 6), st.integers(1, 500), st.data())
    @settings(max_examples=200, deadline=None)
    def test_cover_properties(self, beta, p, data):
        length = data.draw(st.integers(1, 2 ** (beta + 1) - 1))
        q = p + length - 1
        blocks = collect_blocks(p, q, beta, q + 10)
        # disjoint, exact union, aligned, level-capped, count-bounded
        covered = []
        for b in blocks:
            assert 0 <= b.level <= beta
            assert b.start == 1 + b.ordinal * 2 ** b.level
            assert b.end == (b.ordinal + 1) * 2 ** b.level
            covered.extend(range(b.start, b.end + 1))
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
        # dyadic weights below 1 are exact in float arithmetic
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

    def test_uniform_equal_bounds_routes_to_sliding_window(self, monkeypatch):
        calls = []
        orig = solvers.sliding_window

        def spy(*a, **kw):
            calls.append("window")
            return orig(*a, **kw)

        monkeypatch.setattr(solvers, "sliding_window", spy)
        seq = uniform_seq(random.Random(3), 10)
        solve(SolveRequest(seq, 4, 4))
        assert calls == ["window"]

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


class TestBaseline:
    def test_matches_min_width_solver(self, rng):
        for _ in range(80):
            n = rng.randint(1, 80)
            seq = uniform_seq(rng, n)
            L = rng.randint(1, n)
            a = solvers._baseline_min_width_logl(seq, L)
            b = max_density_min_width(seq, L)
            assert a.density == b.density
            assert (a.start, a.end) == (b.start, b.end)

    def test_plateau_profile(self):
        # constant values make the density profile flat; the doubling search
        # must still land on a maximizer
        seq = build_sequence([(3, 1)] * 40)
        seg = solvers._baseline_min_width_logl(seq, 5)
        assert seg.density.value == 3
        assert (seg.start, seg.end) == (1, 5)


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
        # floats are the documented inexact path; results still match a float
        # oracle on instances without near-ties
        for _ in range(40):
            n = rng.randint(1, 30)
            seq = build_sequence([(rng.randint(0, 9) * 1.0, 1.0) for _ in range(n)])
            assert not seq.exact
            L = rng.randint(1, n)
            U = rng.randint(L, n)
            got = solve(SolveRequest(seq, float(L), float(U)))
            want = brute_force_best(seq, L, U)
            assert got.density.value == pytest.approx(want.density.value, rel=1e-12)

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
