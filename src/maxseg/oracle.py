"""Brute-force references used for differential testing.

These stay deliberately naive: segments are enumerated and the right-skew
partition is recovered straight from its definition, independent of the
sweep-line machinery they are used to check.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .core import DensityValue, RealInput, Segment, WeightedSequence
from .errors import CapExceeded, IndexOutOfRange, InfeasibleWidthWindow

DEFAULT_CAP = 10_000


def brute_force_best(
    seq: WeightedSequence,
    L: RealInput,
    U: Optional[RealInput] = None,
    *,
    cap: int = DEFAULT_CAP,
) -> Segment:
    """Enumerate all segments with width in [L, U] and keep the densest.

    Ties resolve to the smallest start index, then the smallest end index.
    U=None means unbounded.
    """
    n = seq.n
    if n > cap:
        raise CapExceeded(f"n={n} exceeds oracle cap {cap}")
    pv, pw = seq.prefix_value, seq.prefix_weight
    if U is None:
        U = pw[n]
    best_s = best_w = None
    best_i = best_j = 0
    for i in range(1, n + 1):
        vi = pv[i - 1]
        wi = pw[i - 1]
        for j in range(i, n + 1):
            w = pw[j] - wi
            if w > U:
                break
            if w < L:
                continue
            s = pv[j] - vi
            if best_w is None or s * best_w > best_s * w:
                best_s, best_w, best_i, best_j = s, w, i, j
    if best_w is None:
        raise InfeasibleWidthWindow(f"no segment with width in [{L!r}, {U!r}]")
    return Segment(best_i, best_j, DensityValue(best_s, best_w))


def _is_right_skew(seq: WeightedSequence, x: int, e: int) -> bool:
    # Definition check: every split j has density(x, j) <= density(j+1, e).
    pv, pw = seq.prefix_value, seq.prefix_weight
    vx, wx = pv[x - 1], pw[x - 1]
    for j in range(x, e):
        s1 = pv[j] - vx
        w1 = pw[j] - wx
        s2 = pv[e] - pv[j]
        w2 = pw[e] - pw[j]
        if s1 * w2 > s2 * w1:
            return False
    return True


def brute_force_partition(
    seq: WeightedSequence,
    x: int,
    y: int,
    *,
    cap: int = 5_000,
) -> List[Tuple[int, int]]:
    """Decreasingly right-skew partition of (x, y) by the greedy rule.

    Repeatedly peels the longest right-skew prefix, verifying right-skewness
    by definition at each candidate end.
    """
    if not 1 <= x <= y <= seq.n:
        raise IndexOutOfRange(f"range ({x},{y}) outside [1,{seq.n}]")
    if y - x > cap:
        raise CapExceeded(f"range length {y - x + 1} exceeds oracle cap {cap}")
    blocks: List[Tuple[int, int]] = []
    s = x
    while s <= y:
        e = y
        while not _is_right_skew(seq, s, e):
            e -= 1
        blocks.append((s, e))
        s = e + 1
    return blocks
