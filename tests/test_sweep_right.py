import io
import random

import pytest

from maxseg import OpCounters, brute_force_partition, build_sequence, density
from maxseg.core import compute_bounds
from maxseg.errors import QueryOrderViolation, RangeViolation
from maxseg.sweep_left import initialize_min_width
from maxseg.sweep_right import find_match_max_width, initialize_max_width

from conftest import general_seq, uniform_seq


def make_state(seq, x, y, U, **kw):
    bounds = compute_bounds(seq, 1, U)
    return initialize_max_width(seq, x, y, bounds, **kw), bounds


class TestInitialize:
    def test_merging_example(self):
        seq = build_sequence([(0, 1), (3, 1), (5, 1)])
        st, _ = make_state(seq, 1, 3, 3)
        assert st.pointer(2) == 2
        assert st.pointer(3) == 2  # density(2,2)=3 <= density(3,3)=5 merges

    def test_non_merging_example(self):
        seq = build_sequence([(0, 1), (8, 1), (2, 1)])
        st, _ = make_state(seq, 1, 3, 3)
        assert st.pointer(2) == 2
        assert st.pointer(3) == 3  # 8 > 2 keeps the blocks apart

    def test_singleton_range(self):
        seq = build_sequence([(0, 1), (8, 1), (2, 1)])
        st, _ = make_state(seq, 2, 2, 3)
        assert st.q is None
        assert st.upper == 2

    def test_pointer_agreement_with_partition_oracle(self, rng):
        for _ in range(40):
            n = rng.randint(2, 28)
            seq = general_seq(rng, n)
            x = rng.randint(1, n - 1)
            y = rng.randint(x + 1, n)
            st, _ = make_state(seq, x, y, seq.prefix_weight[n])
            for k in range(x + 1, y + 1):
                last = brute_force_partition(seq, x + 1, k)[-1]
                assert last == (st.pointer(k), k)

    def test_trailing_block_density_invariant(self, rng):
        for _ in range(40):
            n = rng.randint(2, 50)
            seq = general_seq(rng, n)
            st, _ = make_state(seq, 1, n, seq.prefix_weight[n])
            for k in range(2, n + 1):
                qk = st.pointer(k)
                assert 2 <= qk <= k
                if qk > 2:
                    assert density(seq, st.pointer(qk - 1), qk - 1) > density(seq, qk, k)

    def test_duality_with_min_width_pointers(self, rng):
        # building the min-width structure on a reversed, negated copy mirrors q
        for _ in range(40):
            n = rng.randint(2, 40)
            items = [(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            seq = build_sequence(items)
            x = rng.randint(1, n - 1)
            y = rng.randint(x + 1, n)
            bounds = compute_bounds(seq, 1, seq.prefix_weight[n])
            st_u = initialize_max_width(seq, x, y, bounds)
            rev = build_sequence([(0, 1)] + [(-v, w) for v, w in reversed(items)])
            rbounds = compute_bounds(rev, 1, rev.prefix_weight[n + 1])
            st_l = initialize_min_width(rev, n + 1 - y, n + 1 - x, rbounds)
            for k in range(x + 1, y + 1):
                assert st_u.pointer(k) == n + 2 - st_l.pointer(n + 2 - k)


class TestFindMatch:
    def test_query_trace_example(self):
        seq = build_sequence([(0, 1), (8, 1), (2, 1)])
        st, _ = make_state(seq, 1, 3, 3)
        assert find_match_max_width(st, 1) == 2
        assert st.upper == 2

    def test_returns_range_end_when_tail_keeps_helping(self):
        seq = build_sequence([(1, 1), (2, 1), (3, 1)])
        st, _ = make_state(seq, 1, 3, 3)
        assert find_match_max_width(st, 1) == 3

    def test_shrinking_cap_monotone(self, rng):
        for _ in range(40):
            n = rng.randint(3, 50)
            seq = general_seq(rng, n, whi=3)
            U = rng.randint(seq.max_weight, seq.prefix_weight[n])
            bounds = compute_bounds(seq, 1, U)
            x = rng.randint(1, n - 1)
            st = initialize_max_width(seq, x, n, bounds)
            prev = n
            for i in range(x, 0, -1):
                if bounds.uidx[i] < x:
                    break
                got = find_match_max_width(st, i)
                assert x <= got <= min(prev, bounds.uidx[i])
                prev = got

    def test_true_optimum_within_cap(self, rng):
        # unlike the min-width sweep, this structure returns the exact best
        # endpoint within [x, min(uidx[i], previous)]
        for _ in range(40):
            n = rng.randint(3, 40)
            seq = general_seq(rng, n, whi=3)
            U = rng.randint(seq.max_weight, seq.prefix_weight[n])
            bounds = compute_bounds(seq, 1, U)
            x = rng.randint(1, n - 1)
            st = initialize_max_width(seq, x, n, bounds)
            prev = n
            for i in range(x, 0, -1):
                if bounds.uidx[i] < x:
                    break
                got = find_match_max_width(st, i)
                hi = min(prev, bounds.uidx[i])
                want = max(density(seq, i, j) for j in range(x, hi + 1))
                assert density(seq, i, got) == want
                prev = got

    def test_query_order_enforced(self):
        seq = uniform_seq(random.Random(2), 8)
        st, _ = make_state(seq, 4, 8, 8)
        find_match_max_width(st, 3)
        with pytest.raises(QueryOrderViolation):
            find_match_max_width(st, 3)

    def test_cap_left_of_range_rejected(self):
        seq = uniform_seq(random.Random(2), 8)
        st, bounds = make_state(seq, 6, 8, 2)
        assert bounds.uidx[1] == 2
        with pytest.raises(RangeViolation):
            find_match_max_width(st, 1)

    def test_query_right_of_range_start_rejected(self):
        seq = uniform_seq(random.Random(2), 8)
        st, _ = make_state(seq, 3, 8, 8)
        with pytest.raises(ValueError):
            find_match_max_width(st, 5)

    def test_amortized_linearity(self, rng):
        for _ in range(30):
            n = rng.randint(2, 80)
            seq = general_seq(rng, n, whi=3)
            U = rng.randint(seq.max_weight, seq.prefix_weight[n])
            counters = OpCounters()
            bounds = compute_bounds(seq, 1, U)
            x = rng.randint(1, n - 1)
            st = initialize_max_width(seq, x, n, bounds, counters=counters)
            for i in range(x, 0, -1):
                if bounds.uidx[i] < x:
                    break
                find_match_max_width(st, i)
            assert counters.descent_steps + counters.bitonic_steps <= 2 * n


def test_dump_tsv():
    seq = build_sequence([(0, 1), (3, 1), (5, 1)])
    st, _ = make_state(seq, 1, 3, 3)
    buf = io.StringIO()
    st.dump_tsv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[1] == "index\tpointer"
    assert "3\t2" in lines
