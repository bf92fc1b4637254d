"""Independent exact reference for the densest segment with width in [L, U].

It shares no code with the ``maxseg`` solvers.  Segments are pairs of
prefix offsets ``(a, j)`` with ``0 <= a < j <= n``; the segment covers items
``a+1 .. j`` (1-based, inclusive).  Dinkelbach iteration finds the optimal
density ``p/q`` exactly: for a candidate density it maximises
``(P[j] - P[a]) * q - (W[j] - W[a]) * p`` over feasible pairs, in int64
integer arithmetic with no division, using range-minimum queries over each
end offset's window of feasible start offsets.  Ties are then resolved by the
documented rule: smallest start, then smallest end.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

_INT64_SAFE = 1 << 62


def _range_reduce(key: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  op: Callable) -> np.ndarray:
    """``op``-reduction of ``key[lo[t] .. hi[t]]`` for every t (sparse table).

    Levels are built one at a time and each query is answered at the level
    of its own window length, so only two levels are alive at once.
    """
    out = np.empty(lo.shape[0], dtype=key.dtype)
    if lo.shape[0] == 0:
        return out
    level = np.frexp((hi - lo + 1).astype(np.float64))[1] - 1  # floor(log2(len))
    table = key
    for k in range(int(level.max()) + 1):
        idx = np.nonzero(level == k)[0]
        if idx.size:
            out[idx] = op(table[lo[idx]], table[hi[idx] - (1 << k) + 1])
        table = op(table[:-(1 << k)], table[(1 << k):])
    return out


def _prefix(a: np.ndarray) -> np.ndarray:
    out = np.zeros(a.shape[0] + 1, dtype=np.int64)
    np.cumsum(a, out=out[1:])
    return out


def best_segment(values, weights, L: int, U: int) -> Tuple[int, int, int, int]:
    """Return ``(start, end, sum, width)`` of the densest feasible segment.

    ``values`` and ``weights`` are integers (weights > 0), ``0 < L <= U``.
    Raises ValueError when no segment has width in [L, U] or when int64
    products could overflow.
    """
    v = np.asarray(values, dtype=np.int64)
    w = np.asarray(weights, dtype=np.int64)
    if v.ndim != 1 or v.shape != w.shape or v.shape[0] == 0:
        raise ValueError("values and weights must be equal-length 1-d arrays")
    if not 0 < L <= U:
        raise ValueError(f"need 0 < L <= U, got L={L} U={U}")
    if int(w.min()) <= 0:
        raise ValueError("weights must be positive")
    P = _prefix(v)
    W = _prefix(w)
    # |key| <= max|P| * q + W[n] * |p| with q <= min(U, W[n]) and |p| <= 2 max|P|.
    max_p = int(np.abs(P).max())
    total = int(W[-1])
    if max_p * min(U, total) + total * 2 * max_p >= _INT64_SAFE:
        raise ValueError("input too large for int64 cross-multiplication")

    # Feasible start offsets of end offset j are a in [lo[j], hi[j]].
    ends = np.arange(1, v.shape[0] + 1)
    hi = np.searchsorted(W, W[1:] - L, side="right") - 1
    lo = np.searchsorted(W, W[1:] - U, side="left")
    ok = (hi >= 0) & (lo <= hi)
    ends, lo, hi = ends[ok], lo[ok], hi[ok]
    if ends.shape[0] == 0:
        raise ValueError(f"no segment with width in [{L}, {U}]")

    j, a = int(ends[0]), int(hi[0])
    p, q = int(P[j] - P[a]), int(W[j] - W[a])
    while True:
        key = P * q - W * p
        gain = key[ends] - _range_reduce(key, lo, hi, np.minimum)
        t = int(np.argmax(gain))
        if gain[t] <= 0:
            break
        j = int(ends[t])
        a = int(lo[t]) + int(np.argmin(key[lo[t]:hi[t] + 1]))
        p, q = int(P[j] - P[a]), int(W[j] - W[a])

    # Every optimal pair has key[j] == key[a]; take the smallest a, then j.
    key = P * q - W * p
    starts = np.arange(0, v.shape[0])
    jlo = np.searchsorted(W, W[:-1] + L, side="left")
    jhi = np.searchsorted(W, W[:-1] + U, side="right") - 1
    ok = (jlo <= v.shape[0]) & (jlo <= jhi)
    starts, jlo, jhi = starts[ok], jlo[ok], jhi[ok]
    reach = _range_reduce(key, jlo, jhi, np.maximum)
    t = int(np.nonzero(reach >= key[starts])[0][0])
    a = int(starts[t])
    j = int(jlo[t]) + int(np.argmax(key[jlo[t]:jhi[t] + 1] == key[a]))
    return a + 1, j, int(P[j] - P[a]), int(W[j] - W[a])
