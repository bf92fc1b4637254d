import io
import random

import pytest

from maxseg import OpCounters, brute_force_partition, build_sequence, density
from maxseg.core import compute_bounds
from maxseg.errors import InfeasibleQuery, QueryOrderViolation
from maxseg.sweep_left import find_match_min_width, initialize_min_width

from conftest import general_seq, uniform_seq


def make_state(seq, x, y, L, **kw):
    bounds = compute_bounds(seq, L, seq.prefix_weight[seq.n])
    return initialize_min_width(seq, x, y, bounds, **kw)


class TestInitialize:
    def test_pointer_example(self):
        seq = build_sequence([(9, 1), (5, 1), (3, 1), (4, 1)])
        st = make_state(seq, 1, 4, 2)
        assert st.pointer(4) == 4
        assert st.pointer(3) == 4  # 3 <= density(4,4)=4 merges
        assert st.pointer(2) == 2  # 5 > density(3,4)=3.5 stops
        assert st.bucket(4) == [3, 4]
        assert st.bucket(2) == [2]
        assert st.bucket(3) == []

    def test_singleton_range(self):
        seq = build_sequence([(9, 1), (5, 1), (3, 1), (4, 1)])
        st = make_state(seq, 4, 4, 1)
        assert (st.lower, st.upper, st.bridge) == (4, 4, 4)
        assert st.p is None

    def test_increasing_suffix_one_block(self):
        seq = build_sequence([(1, 1), (2, 1), (3, 1)])
        st = make_state(seq, 1, 3, 1)
        assert st.pointer(2) == 3
        assert st.pointer(3) == 3

    def test_pointer_agreement_with_partition_oracle(self, rng):
        for _ in range(40):
            n = rng.randint(2, 28)
            seq = general_seq(rng, n)
            x = rng.randint(1, n - 1)
            y = rng.randint(x + 1, n)
            st = make_state(seq, x, y, 1)
            for k in range(x + 1, y + 1):
                first = brute_force_partition(seq, k, y)[0]
                assert first == (k, st.pointer(k))

    def test_nesting_invariant(self, rng):
        for _ in range(40):
            n = rng.randint(2, 50)
            seq = general_seq(rng, n)
            st = make_state(seq, 1, n, 1)
            ptr = {k: st.pointer(k) for k in range(2, n + 1)}
            for k in range(2, n + 1):
                for m in range(k + 1, n + 1):
                    assert not (k < m <= ptr[k] < ptr[m])

    def test_chain_densities_decrease(self, rng):
        for _ in range(40):
            n = rng.randint(2, 50)
            seq = general_seq(rng, n)
            st = make_state(seq, 1, n, 1)
            for k in range(2, n + 1):
                pk = st.pointer(k)
                if pk < n:
                    assert density(seq, k, pk) > density(seq, pk + 1, st.pointer(pk + 1))

    def test_bitonic_density_profile(self, rng):
        # densities of (i, block end) along the partition chain rise then fall
        for _ in range(40):
            n = rng.randint(3, 40)
            seq = general_seq(rng, n)
            i = rng.randint(1, n - 2)
            start = rng.randint(i + 1, n - 1)
            blocks = brute_force_partition(seq, start, n)
            mus = [density(seq, i, start - 1)] if start - 1 >= i else []
            mus += [density(seq, i, e) for _, e in blocks]
            peak = max(range(len(mus)), key=lambda t: (mus[t], t))
            for t in range(peak):
                assert mus[t] <= mus[t + 1]
            for t in range(peak, len(mus) - 1):
                assert mus[t] > mus[t + 1]


class TestFindMatch:
    def test_query_trace_example(self):
        seq = build_sequence([(9, 1), (5, 1), (3, 1), (4, 1)])
        st = make_state(seq, 1, 4, 2)
        assert find_match_min_width(st, 1) == 2
        # the cursor descent parked the bridge on the block (3, 4)
        assert st.lower == 3
        assert st.upper == 2

    def test_returns_range_end_when_profile_still_rising(self):
        seq = build_sequence([(1, 1), (2, 1), (3, 1)])
        st = make_state(seq, 1, 3, 2)
        assert find_match_min_width(st, 1) == 3

    def test_two_query_trace(self):
        seq = build_sequence([(0, 1), (10, 1), (0, 1), (0, 1), (10, 1)])
        st = make_state(seq, 1, 5, 2)
        first = find_match_min_width(st, 2)
        second = find_match_min_width(st, 1)
        assert first == 5
        assert second == 2
        assert second <= first

    def test_query_order_enforced(self):
        seq = uniform_seq(random.Random(1), 8)
        st = make_state(seq, 1, 8, 2)
        find_match_min_width(st, 4)
        with pytest.raises(QueryOrderViolation):
            find_match_min_width(st, 4)
        with pytest.raises(QueryOrderViolation):
            find_match_min_width(st, 6)

    def test_undefined_lidx_rejected(self):
        seq = uniform_seq(random.Random(1), 4)
        bounds = compute_bounds(seq, 3, 4)
        st = initialize_min_width(seq, 1, 4, bounds)
        with pytest.raises(InfeasibleQuery):
            find_match_min_width(st, 3)  # lidx[3] undefined for L=3, n=4

    def test_lidx_at_range_end_answers_range_end(self):
        seq = uniform_seq(random.Random(1), 4)
        bounds = compute_bounds(seq, 4, 4)
        st = initialize_min_width(seq, 1, 4, bounds)
        before = (st.lower, st.upper, st.bridge)
        assert find_match_min_width(st, 1) == 4  # lidx[1] == 4 == y
        assert (st.lower, st.upper, st.bridge) == before

    def test_singleton_range_returns_endpoint(self):
        seq = uniform_seq(random.Random(1), 6)
        bounds = compute_bounds(seq, 1, 6)
        st = initialize_min_width(seq, 4, 4, bounds)
        assert find_match_min_width(st, 3) == 4
        assert find_match_min_width(st, 2) == 4

    def test_singleton_range_rejects_index_without_endpoint(self):
        seq = uniform_seq(random.Random(1), 6)
        bounds = compute_bounds(seq, 3, 6)  # lidx[i] = i + 2 for i <= 4
        st = initialize_min_width(seq, 4, 4, bounds)
        with pytest.raises(InfeasibleQuery):
            find_match_min_width(st, 5)  # lidx[5] undefined
        with pytest.raises(InfeasibleQuery):
            find_match_min_width(st, 3)  # lidx[3] == 5 > y
        assert find_match_min_width(st, 2) == 4  # lidx[2] == 4 == y

    def _query_all(self, seq, L, debug=False):
        n = seq.n
        counters = OpCounters()
        bounds = compute_bounds(seq, L, seq.prefix_weight[n])
        st = initialize_min_width(seq, 1, n, bounds, counters=counters, debug=debug)
        got = {}
        for i in range(bounds.i0 or 0, 0, -1):
            got[i] = find_match_min_width(st, i)
        return got, counters, bounds, st

    def test_returns_non_increasing_and_feasible(self, rng):
        for _ in range(40):
            n = rng.randint(1, 60)
            seq = general_seq(rng, n)
            L = rng.randint(1, seq.prefix_weight[n])
            got, _, bounds, _ = self._query_all(seq, L)
            prev = n
            for i in sorted(got, reverse=True):
                assert got[i] <= prev
                assert got[i] >= bounds.lidx[i]
                prev = got[i]

    def test_correct_or_dominated(self, rng):
        # each query either returns a true best endpoint for its index, or the
        # global candidate maximum dominates that index's true best density
        for _ in range(40):
            n = rng.randint(2, 40)
            seq = general_seq(rng, n)
            L = rng.randint(1, seq.prefix_weight[n])
            got, _, bounds, _ = self._query_all(seq, L)
            if not got:
                continue
            best = max(density(seq, i, g) for i, g in got.items())
            for i, g in got.items():
                true_best = max(
                    density(seq, i, j)
                    for j in range(bounds.lidx[i], n + 1)
                )
                assert density(seq, i, g) == true_best or best >= true_best

    def test_amortized_linearity(self, rng):
        for _ in range(30):
            n = rng.randint(2, 80)
            seq = general_seq(rng, n)
            L = rng.randint(1, seq.prefix_weight[n])
            _, counters, _, _ = self._query_all(seq, L)
            assert counters.descent_steps + counters.bitonic_steps <= 2 * n
            assert counters.scan_steps <= n
            assert counters.init_merges <= n

    def test_bridge_invariant_in_debug_mode(self, rng):
        for _ in range(25):
            n = rng.randint(2, 50)
            seq = general_seq(rng, n)
            L = rng.randint(1, seq.prefix_weight[n])
            self._query_all(seq, L, debug=True)  # debug asserts internally

    def test_cursors_monotone_within_bounds(self, rng):
        for _ in range(25):
            n = rng.randint(2, 50)
            seq = general_seq(rng, n)
            L = rng.randint(1, seq.prefix_weight[n])
            bounds = compute_bounds(seq, L, seq.prefix_weight[n])
            st = initialize_min_width(seq, 1, n, bounds)
            prev = (st.lower, st.upper)
            for i in range((bounds.i0 or 0), 0, -1):
                find_match_min_width(st, i)
                assert st.lower <= prev[0] and st.upper <= prev[1]
                assert 1 < st.lower <= n and 1 <= st.upper <= n
                prev = (st.lower, st.upper)


def test_dump_tsv():
    seq = build_sequence([(9, 1), (5, 1), (3, 1), (4, 1)])
    st = make_state(seq, 1, 4, 2)
    buf = io.StringIO()
    st.dump_tsv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[1] == "index\tpointer\tbucket"
    assert "4\t4\t3,4" in lines
