"""Exact numpy backend for :func:`maxseg.solvers.solve`, all width models.

The pure-Python sweeps are the reference implementations.  This backend finds
the same segment by Dinkelbach's parametric iteration (Dinkelbach 1967; round
bounds in Radzik, "Newton's method for fractional combinatorial
optimization", FOCS 1992) over the sequence's prefix arrays ``V`` and
``W``, read as they are from :meth:`WeightedSequence.prefix_arrays` (a
long FASTA record or TSV input is read straight into them; list-backed
sequences build them once).  They may be int32 or int64; every key and
every difference is formed in int64 (``V[a:b].astype(np.int64)``,
``np.subtract(..., dtype=np.int64)``), since numpy keeps ``int32 * int`` in
int32, where it wraps.  Under unit weights there is no ``W``: the prefix
weight at ``k`` is ``k``.

* a round takes the density ``s/w`` of the current segment; its keys are
  ``B = V*w - W*s``, and segment ``(i, j)`` with ``k = i - 1`` is denser than
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
smaller.  The same choice picks the next segment in every round.  Windows
do not depend on the round's density: under unit weights they are
``j - U .. j - L``, and under varying weights the first pick searches ``W``
for them and keeps them packed for every round (:func:`_pack`), as the
paper computes each endpoint's range once.

Window minima come from one pass over the endpoints in chunks of ``CHUNK``.
Windows that start at 0 read a running minimum carried from chunk to chunk.
The others read one doubling per chunk: level ``b`` holds the minimum of
every run of ``b`` keys and is one contiguous ``minimum`` of level ``b/2``
with itself shifted (a sparse-table row; Bender and Farach-Colton, "The LCA
Problem Revisited", LATIN 2000); a window of ``b`` to ``2b - 1`` keys is the
minimum of its first and last ``b``.  Under unit weights every such window
has ``U - L + 1`` keys, so a round reads both as slices.  No round holds
``B`` whole: each chunk forms the keys of its endpoints and of the key range
its windows read (one range when the two overlap), and a chunk's doubling
is freed before the next chunk's keys are formed.  So beyond ``V`` a
unit-weight solve needs O(CHUNK + window) memory, and a weighted one keeps
``W`` and its packed windows, at most 4 bits per endpoint, plus
O(CHUNK + window) per round; a weighted round, which holds about twice the
arrays per endpoint, takes half as many endpoints per chunk.  Traced at
``CHUNK = 16384``: 0.40 MB at 1e5 and at 1e6 items under unit weights and
``[100, 200]``; 0.75 MB at 1e5 and 1.24 MB at 1e6 items with weights 1..3
and ``[100, 20000]``, of which the windows are 0.06 and 0.56 MB (0.64 MB
on the 150k-row tsv-weighted input, int32, ``[100, 1100]``, 0.08 MB of it
windows).

:func:`eligible` admits a sequence only when ``spread * total_width < 2**62``
with ``spread = 2 * max|prefix value|``.  That bounds ``|B| < 3 * 2**61``
and every gain below ``2**63``, so all arithmetic is exact in int64.

numpy is imported only for sequences of at least ``MIN_FAST_N`` items, so
importing this module (and the CLI) stays numpy-free.  The kernel runs no
sweep and leaves the sweep counters untouched; a solve that needs more than
``MAX_ROUNDS`` rounds returns None and the caller runs the pure sweeps
instead.  An eligible sequence with no feasible segment raises
:class:`InfeasibleWidthWindow` here, without a pure sweep.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from .core import RealInput, WeightedSequence
from .errors import InfeasibleWidthWindow

# Read by callers that record the machine configuration: no kernel in this
# module is compiled.
HAVE_NUMBA = False

# spread * total width below this keeps every key and gain inside int64.
_INT64_PRODUCT_BOUND = 1 << 62

# Inputs below this size never import numpy, which costs a fresh process
# about 55 ms of CPU and 13 MB over ``python -c pass`` (tools/abtime.py, 21
# pairs; 2-vCPU x86-64 host, numpy 2.4, one OpenBLAS thread).  It is not
# where the kernel starts to win: with numpy imported, 1e4 records of
# 100-300 bases solved about five times faster with every record sent to
# the kernel.
MIN_FAST_N = 4096

# Dinkelbach rounds before giving up on the kernel.  Each round strictly
# raises the density; random and C08-shaped inputs converge in a handful.
MAX_ROUNDS = 64

# Endpoints per chunk of a round; bounds the round's scratch memory.
CHUNK = 16384


def eligible(seq: WeightedSequence) -> bool:
    """True when the kernel's int64 arithmetic is exact and worthwhile for
    this sequence."""
    if seq.n < MIN_FAST_N:
        return False
    arrays = seq.prefix_arrays()
    if arrays is None:
        return False
    V = arrays[0]
    spread = 2 * max(abs(int(V.min())), abs(int(V.max())))
    return max(spread, 1) * seq.total_width < _INT64_PRODUCT_BOUND


def _doubling(line):
    """Yield ``(b, M)`` for b = 1, 2, 4, ... while b <= len(line), where
    ``M[t] = min(line[t:t + b])``; each level is one contiguous pass."""
    import numpy as np

    b = 1
    while True:
        yield b, line
        if len(line) <= b:  # level 2b would be empty
            return
        line = np.minimum(line[:-b], line[b:])
        b *= 2


def _block_min(B, lo, hi, out, first=0):
    """``out[t] = min(B[lo[t] - first .. hi[t] - first])`` for nonempty
    windows with lo, hi nondecreasing (``B`` holds the keys from ``first``
    on), read from :func:`_doubling`'s levels; B is not changed."""
    import numpy as np

    size = hi - lo + 1
    g0, g1 = int(size.min()).bit_length(), int(size.max()).bit_length()
    for b, M in _doubling(B):
        if b.bit_length() >= g0:
            # a window of b to 2b - 1 keys: its first and last b keys
            at = slice(None) if g0 == g1 else (size >= b) & (size < 2 * b)
            out[at] = np.minimum(M[lo[at] - first], M[hi[at] - (first + b - 1)])
        if b.bit_length() == g1:
            return


def _key_line(V, W, s, w):
    """``keys(a, b)``: the round's keys ``B[a:b] = V[a:b]*w - W[a:b]*s`` as a
    new int64 array; when W is None, ``W[a:b]`` is ``a, a + 1, ..., b - 1``."""
    import numpy as np

    def keys(a, b):
        out = V[a:b].astype(np.int64)
        out *= w
        widths = np.arange(a, b, dtype=np.int64) if W is None else W[a:b].astype(np.int64)
        widths *= s
        out -= widths
        return out

    return keys


def _argmin(keys, a, z):
    """The leftmost k in a..z of least key, read CHUNK keys at a time."""
    import numpy as np

    least = None
    for c in range(a, z + 1, CHUNK):
        B = keys(c, min(c + CHUNK, z + 1))
        t = int(np.argmin(B))
        if least is None or B[t] < least:
            least, k = B[t], c + t
    return k


def _uniform_scan(keys, n, L, U):
    """:func:`_general_scan` under unit weights, where endpoint ``j``'s window
    is ``B[max(j - U, 0) .. j - L]``: a running minimum below ``j = U``,
    beyond it ``m = U - L + 1`` keys read as slices of one doubling."""
    import numpy as np

    top, run_min = -1, 0  # B[0] = 0
    for j0 in range(L, n + 1, CHUNK):
        j1 = min(j0 + CHUNK, n + 1)
        p = j1 - j0 if U is None else min(max(U - j0, 0), j1 - j0)
        c = j1 - j0 - p  # endpoints past j = U
        if c and L < j1 - j0:
            # the windows' keys j0 + p - U .. j1 - L - 1 overlap the gains':
            # form the keys from j0 + p - U to j1 once and read both from them
            line = keys(j0 + p - U, j1)
            gain, win = line[U - p:], line[:c + U - L]
        else:
            gain = keys(j0, j1)
            win = keys(j0 + p - U, j1 - L) if c else None
        if c:  # before gain[:p] changes, as win may share its keys (an
            # overlap of gain[p:] with M, when m = 1, numpy buffers)
            m = U - L + 1
            for b, M in _doubling(win):
                if 2 * b > m:
                    break
            gain[p:] -= M[:c] if b == m else np.minimum(M[:c], M[m - b:m - b + c])
            del M, win  # the last level, before the next chunk's keys are formed
        if p:
            run = np.minimum.accumulate(keys(j0 - L, j0 + p - L))
            np.minimum(run, run_min, out=run)
            run_min = run[-1]
            gain[:p] -= run
        t = int(np.argmax(gain))
        if gain[t] > top:
            top, j = int(gain[t]), j0 + t
    return top, j, 0 if U is None else max(j - U, 0), j - L


def _windows(W, n, L, U):
    """(j0, lo, hi) per chunk of endpoints j0, j0+1, ... with some k.  Both
    window ends never move left, so a chunk searches W only from the
    previous chunk's last ends up to its own endpoints."""
    import numpy as np

    lo0, hi0, step = 0, 0, (CHUNK + 1) // 2  # half chunks: see the module docstring
    # A key of W's own dtype: a Python int would make numpy copy W to int64.
    for j0 in range(int(np.searchsorted(W, W.dtype.type(L))), n + 1, step):
        j1 = min(j0 + step, n + 1)
        hi = np.searchsorted(W[hi0:j1], W[j0:j1] - L, side="right") + (hi0 - 1)
        lo = (np.zeros_like(hi) if U is None
              else np.searchsorted(W[lo0:j1], W[j0:j1] - U) + lo0)
        lo0, hi0 = int(lo[-1]), int(hi[-1])
        yield j0, lo, hi


def _pack(ends):
    """A chunk's nondecreasing window ends, kept as (first end, bits): the
    t-th set bit sits at ``ends[t] - ends[0] + t``, one bit per endpoint
    and one per step the ends move."""
    import numpy as np

    first = int(ends[0])
    at = ends + np.arange(-first, len(ends) - first)
    bits = np.zeros(int(at[-1]) + 1, dtype=np.bool_)
    bits[at] = True
    return first, np.packbits(bits)


def _unpack(first, bits):
    """The ends :func:`_pack` kept, as a new int64 array."""
    import numpy as np

    ends = np.flatnonzero(np.unpackbits(bits).view(np.bool_))  # 0s and 1s: bools
    ends -= np.arange(-first, len(ends) - first)
    return ends


def _chunks(kept):
    """(j0, lo, hi) per chunk of :func:`_windows`, unpacked from ``kept``."""
    for j0, lo, hi in kept:
        yield j0, _unpack(*lo), _unpack(*hi)


def _general_scan(keys, kept):
    """(gain, j, lo, hi) of the first endpoint of largest gain and its window."""
    import numpy as np

    top = -1  # the current segment's own gain, 0, beats it
    run_at, run_min = 0, 0  # run_min = min(B[:run_at + 1]); B[0] = 0
    for j0, lo, hi in _chunks(kept):
        ok = hi >= lo
        np.minimum(lo, hi, out=lo)  # an empty window reads one key; its gain is dropped
        p = int(np.searchsorted(lo, 0, side="right"))  # windows from 0
        mins = np.empty(len(hi), dtype=np.int64)
        if p:
            run = keys(run_at, int(hi[p - 1]) + 1)
            run[0] = run_min
            np.minimum.accumulate(run, out=run)
            mins[:p] = run[hi[:p] - run_at]
            run_at, run_min = int(hi[p - 1]), run[-1]
        gain = None
        if p < len(hi):  # windows from past 0, read from the first key they need
            first, last = int(lo[p]), int(hi[-1]) + 1
            if last >= j0:  # they reach the gains' keys: form both ranges at once
                first = min(first, j0)
                line = keys(first, j0 + len(hi))
                gain = line[j0 - first:]
            else:
                line = keys(first, last)
            _block_min(line[:last - first], lo[p:], hi[p:], mins[p:], first)
        if gain is None:
            gain = keys(j0, j0 + len(hi))
        gain -= mins
        gain[~ok] = -1
        t = int(np.argmax(gain))
        if gain[t] > top:
            top, j, a, z = int(gain[t]), j0 + t, int(lo[t]), int(hi[t])
    return top, j, a, z


def _first_pick(V, W, n, L, U):
    """(k, j, kept): the densest shortest feasible segment ``k + 1 .. j`` and,
    under varying weights, the windows searched for it, packed for every
    round to read (:func:`_pack`); None when no segment is feasible.  Its
    chunk arrays are freed before the rounds start."""
    import numpy as np

    pick, kept = -math.inf, None
    if W is None:  # all of width L: the largest exact sum
        for j0 in range(L, n + 1, CHUNK):
            d = np.subtract(V[j0:j0 + CHUNK], V[j0 - L:min(j0 + CHUNK, n + 1) - L],
                            dtype=np.int64)
            t = int(np.argmax(d))
            if d[t] > pick:
                pick, k, j = d[t], j0 + t - L, j0 + t
    else:  # float only picks it
        kept = []
        for j0, lo, hi in _windows(W, n, L, U):
            kept.append((j0, _pack(lo), _pack(hi)))  # they do not depend on the round
            js = slice(j0, j0 + len(hi))
            dens = (np.subtract(V[js], V[hi], dtype=np.int64)
                    / np.subtract(W[js], W[hi], dtype=np.int64))
            dens[hi < lo] = -math.inf
            t = int(np.argmax(dens))
            if dens[t] > pick:
                pick, k, j = dens[t], int(hi[t]), j0 + t
    return None if pick == -math.inf else (k, j, kept)


def best(seq: WeightedSequence, L: RealInput,
         U: Optional[RealInput] = None) -> Optional[Tuple[int, int]]:
    """Densest segment of width in [L, U] (U=None: unbounded) as (start, end)
    under the tie rule; None when the sequence is not eligible or the rounds
    run out.  Raises InfeasibleWidthWindow when the sequence is eligible and
    no segment is feasible."""
    if not eligible(seq):
        return None
    n = seq.n
    total = seq.total_width
    infeasible = InfeasibleWidthWindow.no_segment(L, U)
    # Widths are integers, so [L, U] admits the same segments as its integer
    # part; a U at or above the total width bounds nothing.
    if L > total or (U is not None and U < math.ceil(L)):
        raise infeasible
    L = math.ceil(L)
    U = None if U is None or U >= total else math.floor(U)
    V, W = seq.prefix_arrays()
    picked = _first_pick(V, W, n, L, U)
    if picked is None:
        raise infeasible
    k, j, kept = picked
    for _ in range(MAX_ROUNDS):
        keys = _key_line(V, W, *seq._span(k + 1, j))
        top, j, a, z = (_uniform_scan(keys, n, L, U) if W is None
                        else _general_scan(keys, kept))
        k = _argmin(keys, a, z)
        if top == 0:
            return k + 1, j
    return None
