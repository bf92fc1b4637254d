"""Exact numpy backend for :func:`maxseg.solvers.solve`, all width models.

The pure-Python sweeps are the reference implementations.  This backend finds
the same segment by Dinkelbach's parametric iteration (Dinkelbach 1967; round
bounds in Radzik, "Newton's method for fractional combinatorial
optimization", FOCS 1992) over the sequence's int64 prefix arrays ``V`` and
``W``, read as they are from :meth:`WeightedSequence.int64_prefixes` (a
long FASTA record or TSV text is read straight into them; list-backed
sequences build them once):

* a round takes the density ``s/w`` of the current segment and forms the keys
  ``B = V*w - W*s``; segment ``(i, j)`` with ``k = i - 1`` is denser than
  ``s/w`` exactly when its gain ``B[j] - B[k]`` is positive.  Every endpoint
  ``j`` pairs with the minimum of ``B`` over its feasible ``k``, and the
  pair of largest gain is the next segment;
* rounds stop when the largest gain is 0.  ``s/w`` is then optimal, and the
  optimal segments are the feasible pairs with ``B[k] == B[j]``.

Endpoint ``j``'s feasible ``k`` are ``lo(j) .. hi(j)``: the starts that leave
a width in ``[L, U]``.  Both ends never move left as ``j`` grows, in every
width model; an item wider than U just leaves some windows empty, so the
sequence needs no split.  Hence the leftmost minimizing ``k`` never moves
left either, and the tie rule (smallest start, then smallest end) is the
first endpoint of largest gain paired with the leftmost minimum of its
window: every other optimal pair has a later endpoint and so a start no
smaller.  The same choice picks the next segment in every round.

Window minima come from one pass over the endpoints in chunks of ``CHUNK``.
Windows that start at 0 read a running minimum carried from chunk to chunk.
The others are grouped by length in ``[b, 2b)``, ``b`` a power of two; such
a window is the union of its first and last ``b`` keys, and a run of ``b``
keys is the minimum of a block suffix and the next block's prefix in blocks
of ``b`` (van Herk / Gil-Werman).  Beyond ``V``, ``W`` and ``B`` a round
needs O(CHUNK + window) scratch memory.

:func:`eligible` admits a sequence only when ``spread * total_width < 2**62``
with ``spread = 2 * max|prefix value|``.  That bounds ``|B| < 3 * 2**61``
and every gain below ``2**63``, so all arithmetic is exact in int64; block
padding therefore uses the int64 maximum, which no key can reach.

numpy is imported only for sequences of at least ``MIN_FAST_N`` items, so
importing this module (and the CLI) stays numpy-free.  The kernel runs no
sweep and leaves the sweep counters untouched; a solve that needs more than
``MAX_ROUNDS`` rounds returns None and the caller runs the pure sweeps
instead.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from .core import RealInput, WeightedSequence

# Read by callers that record the machine configuration: no kernel in this
# module is compiled.
HAVE_NUMBA = False

# spread * total width below this keeps every key and gain inside int64.
_INT64_PRODUCT_BOUND = 1 << 62

# Below this size the pure path wins: array conversion and numpy call
# overhead dominate the kernel's gain.
MIN_FAST_N = 4096

# Dinkelbach rounds before giving up on the kernel.  Each round strictly
# raises the density; random and C08-shaped inputs converge in a handful.
MAX_ROUNDS = 64

# Endpoints per chunk of a round; bounds the round's scratch memory.
CHUNK = 16384


def eligible(seq: WeightedSequence) -> bool:
    """True when the int64 kernel is exact and worthwhile for this sequence."""
    if seq.n < MIN_FAST_N:
        return False
    arrays = seq.int64_prefixes()
    if arrays is None:
        return False
    V, W = arrays
    spread = 2 * max(abs(int(V.min())), abs(int(V.max())))
    return max(spread, 1) * int(W[-1]) < _INT64_PRODUCT_BOUND


def _block_min(B, lo, hi):
    """min(B[lo[t] .. hi[t]]) for nonempty windows with lo, hi nondecreasing."""
    import numpy as np

    span = hi - lo  # window length - 1
    g0, g1 = int(span.min() + 1).bit_length() - 1, int(span.max() + 1).bit_length() - 1
    out = None if g0 == g1 else np.empty(len(lo), dtype=np.int64)
    for g in range(g0, g1 + 1):
        b = 1 << g
        sel = slice(None) if g0 == g1 else (span >= b - 1) & (span < 2 * b - 1)
        x, y = lo[sel], hi[sel]
        if not len(x):
            continue
        a = int(x[0])
        size = -(-(int(y[-1]) + 1 - a) // b) * b
        line = B[a:a + size]
        if len(line) < size:  # pad past the end with a key no window takes
            line = np.full(size, np.iinfo(np.int64).max)
            line[:len(B) - a] = B[a:]
        rows = line.reshape(-1, b)
        pre = np.minimum.accumulate(rows, axis=1).ravel()
        suf = np.empty_like(pre)
        np.minimum.accumulate(rows[:, ::-1], axis=1, out=suf.reshape(-1, b)[:, ::-1])
        x, y = x - a, y - a
        m = np.minimum(suf[x], pre[x + (b - 1)])
        np.minimum(m, suf[y - (b - 1)], out=m)
        np.minimum(m, pre[y], out=m)
        if out is None:
            return m
        out[sel] = m
    return out


def best(seq: WeightedSequence, L: RealInput,
         U: Optional[RealInput] = None) -> Optional[Tuple[int, int]]:
    """Densest segment of width in [L, U] (U=None: unbounded) as (start, end)
    under the tie rule; None when the sequence is not eligible, no segment is
    feasible or the rounds run out."""
    if not eligible(seq):
        return None
    n = seq.n
    total = seq.total_width
    # Widths are integers, so [L, U] admits the same segments as its integer
    # part; a U at or above the total width bounds nothing.
    if L > total or (U is not None and U < math.ceil(L)):
        return None
    L = math.ceil(L)
    U = None if U is None or U >= total else math.floor(U)
    import numpy as np

    V, W = seq.int64_prefixes()

    def windows():
        """(j0, lo, hi) per chunk of endpoints j0, j0+1, ... with some k."""
        for j0 in range(int(np.searchsorted(W, L)), n + 1, CHUNK):
            j1 = min(j0 + CHUNK, n + 1)
            if seq.is_uniform:
                hi = np.arange(j0 - L, j1 - L)
                lo = np.maximum(hi - (U - L), 0) if U is not None else np.zeros_like(hi)
            else:
                hi = np.searchsorted(W, W[j0:j1] - L, side="right") - 1
                lo = np.searchsorted(W, W[j0:j1] - U) if U is not None else np.zeros_like(hi)
            yield j0, lo, hi

    # Start from the densest shortest feasible segment; float only picks it.
    pick = -math.inf
    for j0, lo, hi in windows():
        js = slice(j0, j0 + len(hi))
        dens = (V[js] - V[hi]) / (W[js] - W[hi])
        dens[hi < lo] = -math.inf
        t = int(np.argmax(dens))
        if dens[t] > pick:
            pick, k, j = dens[t], int(hi[t]), j0 + t
    if pick == -math.inf:
        return None

    B = np.empty(n + 1, dtype=np.int64)
    for _ in range(MAX_ROUNDS):
        s, w = int(V[j] - V[k]), int(W[j] - W[k])
        for c in range(0, n + 1, CHUNK):
            np.subtract(V[c:c + CHUNK] * w, W[c:c + CHUNK] * s, out=B[c:c + CHUNK])
        top = -1  # the current segment's own gain, 0, beats it
        run_at, run_min = 0, B[0]  # run_min = min(B[:run_at + 1])
        for j0, lo, hi in windows():
            ok = hi >= lo
            full = ok.all()
            p = int(np.searchsorted(lo, 0, side="right"))  # windows from 0
            if full and not p:
                mins = _block_min(B, lo, hi)
            else:
                mins = np.empty(len(hi), dtype=np.int64)
                if p:
                    run = B[run_at:hi[p - 1] + 1].copy()
                    run[0] = run_min
                    np.minimum.accumulate(run, out=run)
                    mins[:p] = run[hi[:p] - run_at]
                    run_at, run_min = int(hi[p - 1]), run[-1]
                rest = ok & (lo > 0)
                if rest.any():
                    mins[rest] = _block_min(B, lo[rest], hi[rest])
            gain = B[j0:j0 + len(hi)] - mins
            if not full:
                gain[~ok] = -1
            t = int(np.argmax(gain))
            if gain[t] > top:
                top, j, a, z = int(gain[t]), j0 + t, int(lo[t]), int(hi[t])
        k = a + int(np.argmin(B[a:z + 1]))
        if top == 0:
            return k + 1, j
    return None
