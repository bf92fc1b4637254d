"""Sweep structure for best-endpoint queries under a minimum width bound.

Over a fixed index range [x, y] the structure answers, for left indices i
given in strictly decreasing order, "which endpoint in [lidx[i], y] maximizes
the density of (i, *)?", where lidx[i] is the smallest endpoint of width at
least L.  Every query with lidx[i] <= y is answered, the one-endpoint case
lidx[i] == y included; a query with no feasible endpoint in the range raises
InfeasibleQuery.  Answers never increase across queries: when the true best
endpoint lies right of an earlier answer the earlier answer is returned
instead, which keeps global maximization correct because in that situation
the earlier query's segment is at least as dense.  Since lidx never
decreases as i does, the one-endpoint queries on a structure all come before
any query that moves its cursors.

State: a pointer array p where (k, p[k]) is the leading block of the
decreasingly right-skew partition of the suffix (k, y); bucket lists mapping
an endpoint e to all k with p[k] = e; two non-increasing cursors (lower,
upper); and a bridge index b marking the partition block of the current
suffix that straddles the upper cursor.  All query loops amortize against the
range length, so a full query sweep costs O(y - x + 1) in total.
"""

from __future__ import annotations

from typing import IO, Optional

from .core import FeasibilityBounds, OpCounters, WeightedSequence
from .errors import IndexOutOfRange, InfeasibleQuery, QueryOrderViolation


class MinWidthSweepState:
    __slots__ = (
        "seq",
        "bounds",
        "x",
        "y",
        "p",
        "_head",
        "_next",
        "lower",
        "upper",
        "bridge",
        "last_query",
        "counters",
        "debug",
    )

    def __init__(self, seq: WeightedSequence, x: int, y: int,
                 bounds: FeasibilityBounds, counters: OpCounters, debug: bool):
        self.seq = seq
        self.bounds = bounds
        self.x = x
        self.y = y
        self.counters = counters
        self.debug = debug
        self.p = None
        self._head = None
        self._next = None
        self.lower = y
        self.upper = y
        self.bridge = y
        self.last_query = seq.n + 1

    # -- inspection helpers -------------------------------------------------

    def pointer(self, k: int) -> int:
        """p[k]: end of the leading partition block of suffix (k, y)."""
        if not self.x < k <= self.y:
            raise IndexOutOfRange(f"pointer index {k} outside ({self.x},{self.y}]")
        return self.p[k - self.x]

    def bucket(self, e: int) -> list:
        """Ascending list of k with p[k] = e (unconsumed entries only)."""
        if not self.x < e <= self.y:
            raise IndexOutOfRange(f"bucket index {e} outside ({self.x},{self.y}]")
        out = []
        k = self._head[e - self.x]
        while k:
            out.append(k)
            k = self._next[k - self.x]
        return out

    def dump_tsv(self, out: IO[str]) -> None:
        """Debug dump: one line per index with its pointer and bucket."""
        out.write(f"# min-width sweep x={self.x} y={self.y} "
                  f"lower={self.lower} upper={self.upper} bridge={self.bridge}\n")
        out.write("index\tpointer\tbucket\n")
        for k in range(self.x + 1, self.y + 1):
            items = ",".join(str(v) for v in self.bucket(k))
            out.write(f"{k}\t{self.pointer(k)}\t{items}\n")

    def _assert_bridge(self, lower: int, upper: int, bridge: int) -> None:
        # Bridge minimality: the smallest k in [lower, upper] with p[k] >= upper.
        if upper < lower:
            return
        p = self.p
        x = self.x
        for k in range(lower, upper + 1):
            if p[k - x] >= upper:
                assert bridge == k, (
                    f"bridge {bridge} is not the minimal straddling index {k} "
                    f"for lower={lower} upper={upper}"
                )
                assert lower <= bridge <= upper <= p[bridge - x]
                return
        raise AssertionError(f"no straddling block for lower={lower} upper={upper}")


def initialize_min_width(
    seq: WeightedSequence,
    x: int,
    y: int,
    bounds: FeasibilityBounds,
    *,
    counters: Optional[OpCounters] = None,
    debug: bool = False,
) -> MinWidthSweepState:
    """Build the structure for range [x, y] in O(y - x + 1).

    Pointers are built right to left: each index starts as its own block and
    merges with the following block while its density does not exceed the
    follower's, exactly the greedy that produces the decreasingly right-skew
    partition of every suffix at once.
    """
    if not 1 <= x <= y <= seq.n:
        raise IndexOutOfRange(f"range ({x},{y}) outside [1,{seq.n}]")
    state = MinWidthSweepState(seq, x, y, bounds, counters or OpCounters(), debug)
    if y == x:
        return state
    size = y - x + 1
    p = [0] * size
    head = [0] * size
    nxt = [0] * size
    V = seq.prefix_value
    W = seq.prefix_weight
    merges = 0
    for i in range(y, x, -1):
        pi = i
        vi = V[i - 1]
        wi = W[i - 1]
        while pi < y:
            nx = p[pi + 1 - x]
            # keep merging while density(i, pi) <= density(pi+1, nx)
            if (V[pi] - vi) * (W[nx] - W[pi]) <= (V[nx] - V[pi]) * (W[pi] - wi):
                pi = nx
                merges += 1
            else:
                break
        p[i - x] = pi
        slot = pi - x
        nxt[i - x] = head[slot]
        head[slot] = i  # prepended, so buckets stay ascending in k
    state.p = p
    state._head = head
    state._next = nxt
    state.counters.init_merges += merges
    return state


def find_match_min_width(state: MinWidthSweepState, i: int) -> int:
    """Best endpoint in [x, y] for left index i under the width floor.

    Returns min(m, m0) where m is the best endpoint for i and m0 the previous
    return value (initially y).  Requires strictly decreasing i across calls
    and lidx[i] defined and <= y, else raises InfeasibleQuery.  When y is the
    only candidate (lidx[i] == y, or x == y) it is returned without touching
    the cursors: lidx never decreases as i does, so on any one structure such
    queries all come before the first one that moves a cursor.
    """
    if i >= state.last_query:
        raise QueryOrderViolation(
            f"query index {i} not below previous query {state.last_query}"
        )
    seq = state.seq
    if not 1 <= i <= seq.n:
        raise IndexOutOfRange(f"query index {i} outside [1,{seq.n}]")
    state.last_query = i
    x, y = state.x, state.y
    li = state.bounds.lidx[i]
    if li is None or li > y:
        raise InfeasibleQuery(f"no feasible endpoint for index {i} in ({x},{y})")
    if li == y or x == y:
        return y

    counters = state.counters
    p = state.p
    lower = state.lower
    upper = state.upper
    bridge = state.bridge

    lo = (x if x > li else li) + 1
    descents = 0
    while lower > lo:
        lower -= 1
        descents += 1
        if p[lower - x] >= upper:
            bridge = lower
    counters.descent_steps += descents

    if state.debug:
        state._assert_bridge(lower, upper, bridge)

    V = seq.prefix_value
    W = seq.prefix_weight
    vi = V[i - 1]
    wi = W[i - 1]
    head = state._head
    nxt = state._next
    while upper >= lower:
        pb = p[bridge - x]
        s1 = V[bridge - 1] - vi
        w1 = W[bridge - 1] - wi
        s2 = V[pb] - vi
        w2 = W[pb] - wi
        # stop once dropping the bridge block no longer improves density,
        # i.e. density(i, bridge-1) <= density(i, p[bridge])
        if s1 * w2 <= s2 * w1:
            break
        upper = bridge - 1
        counters.bitonic_steps += 1
        if upper >= lower:
            k = head[upper - x]
            while k and k < lower:
                k = nxt[k - x]
                counters.scan_steps += 1
            head[upper - x] = k  # consumed prefix never needed again
            if not k:
                raise RuntimeError(
                    "sweep invariant broken: empty bucket while re-locating bridge"
                )
            bridge = k

    state.lower = lower
    state.upper = upper
    state.bridge = bridge
    return upper
