"""Sweep structure for best-endpoint queries under a maximum width bound.

The mirror of the minimum-width structure, considerably simpler: over a
fixed range [x, y] it answers, for strictly decreasing left indices i, "which
endpoint in [x, min(uidx[i], previous answer)] maximizes the density of
(i, *)?".  Unlike its sibling this structure returns the true optimum within
that shrunken range.

State: a pointer array q where (q[k], k) is the trailing block of the
decreasingly right-skew partition of the prefix (x+1, k), plus one
non-increasing cursor.  No bucket lists or bridge are needed.
"""

from __future__ import annotations

from typing import IO, Optional

from .core import FeasibilityBounds, OpCounters, WeightedSequence
from .errors import IndexOutOfRange, QueryOrderViolation, RangeViolation


class MaxWidthSweepState:
    __slots__ = ("seq", "bounds", "x", "y", "q", "upper", "last_query",
                 "counters")

    def __init__(self, seq: WeightedSequence, x: int, y: int,
                 bounds: FeasibilityBounds, counters: OpCounters):
        self.seq = seq
        self.bounds = bounds
        self.x = x
        self.y = y
        self.q = None
        self.upper = y
        self.last_query = seq.n + 1
        self.counters = counters

    def pointer(self, k: int) -> int:
        """q[k]: start of the trailing partition block of prefix (x+1, k)."""
        if not self.x < k <= self.y:
            raise IndexOutOfRange(f"pointer index {k} outside ({self.x},{self.y}]")
        return self.q[k - self.x]

    def dump_tsv(self, out: IO[str]) -> None:
        out.write(f"# max-width sweep x={self.x} y={self.y} upper={self.upper}\n")
        out.write("index\tpointer\n")
        for k in range(self.x + 1, self.y + 1):
            out.write(f"{k}\t{self.pointer(k)}\n")


def initialize_max_width(
    seq: WeightedSequence,
    x: int,
    y: int,
    bounds: FeasibilityBounds,
    *,
    counters: Optional[OpCounters] = None,
) -> MaxWidthSweepState:
    """Build the structure for range [x, y] in O(y - x + 1).

    Pointers build left to right; each index merges with the preceding block
    while that block's density does not exceed its own.  The merge guard
    requires q[i] > x + 1 (a block already starting at x+1 has no left
    neighbour inside the range, so there is nothing to merge with).
    """
    if not 1 <= x <= y <= seq.n:
        raise IndexOutOfRange(f"range ({x},{y}) outside [1,{seq.n}]")
    state = MaxWidthSweepState(seq, x, y, bounds, counters or OpCounters())
    if y == x:
        return state
    size = y - x + 1
    q = [0] * size
    V = seq.prefix_value
    W = seq.prefix_weight
    merges = 0
    for i in range(x + 1, y + 1):
        qi = i
        while qi > x + 1:
            prev = q[qi - 1 - x]
            # merge while density(prev, qi-1) <= density(qi, i)
            if (V[qi - 1] - V[prev - 1]) * (W[i] - W[qi - 1]) <= (
                V[i] - V[qi - 1]
            ) * (W[qi - 1] - W[prev - 1]):
                qi = prev
                merges += 1
            else:
                break
        q[i - x] = qi
    state.q = q
    state.counters.init_merges += merges
    return state


def find_match_max_width(state: MaxWidthSweepState, i: int) -> int:
    """True best endpoint in [x, min(uidx[i], previous answer)] for index i.

    Requires strictly decreasing i across calls, i <= x (every candidate
    endpoint lies at or right of x), and uidx[i] >= x.
    """
    if i >= state.last_query:
        raise QueryOrderViolation(
            f"query index {i} not below previous query {state.last_query}"
        )
    seq = state.seq
    if not 1 <= i <= seq.n:
        raise IndexOutOfRange(f"query index {i} outside [1,{seq.n}]")
    state.last_query = i
    x = state.x
    if i > x:
        raise ValueError(f"query index {i} must not exceed range start {x}")
    ui = state.bounds.uidx[i]
    if ui < x:
        raise RangeViolation(f"endpoint cap {ui} lies left of range start {x}")

    counters = state.counters
    upper = state.upper
    descents = 0
    while upper > ui:
        upper -= 1
        descents += 1
    counters.descent_steps += descents

    q = state.q
    V = seq.prefix_value
    W = seq.prefix_weight
    vi = V[i - 1]
    wi = W[i - 1]
    while upper > x:
        qu = q[upper - x]
        s1 = V[qu - 1] - vi
        w1 = W[qu - 1] - wi
        s2 = V[upper] - vi
        w2 = W[upper] - wi
        # stop once dropping the trailing block stops improving density,
        # i.e. density(i, qu-1) <= density(i, upper)
        if s1 * w2 <= s2 * w1:
            break
        upper = qu - 1
        counters.bitonic_steps += 1

    state.upper = upper
    return upper
