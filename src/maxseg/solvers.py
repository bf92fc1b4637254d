"""Top-level maximum-density segment solvers and the dispatching entry point.

Three algorithms cover the width-constraint shapes:

* width >= L only: one sweep over a single min-width structure, O(n);
* equal weights with L < U: the bounds become item counts lc < uc, and fixed
  blocks of uc - lc indices each get a min-width and a max-width structure,
  O(n);
* any positive weights with L <= U: dyadic blocks at O(log s) levels, s the
  widest feasible endpoint range, each range covered by O(log s) aligned
  blocks, O(n log s).  Weights >= 1 give s <= U - L + 1, the paper's
  O(n log(U - L + 1)) bound.

The three sweeps share one candidate loop, :func:`_densest`, and differ
only in the structures they build and in the endpoints they offer for each
left index.  Ties everywhere resolve to the smallest start index, then the
smallest end index: the loop keeps the smallest maximizing start (left
indices arrive in decreasing order), and a final scan minimizes the end for
that start.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional, Tuple

from . import fastpath
from .core import (
    FeasibilityBounds,
    OpCounters,
    RealInput,
    Segment,
    WeightedSequence,
    _merge_spans,
    compute_bounds,
    make_segment,
)
from .errors import InfeasibleWidthWindow, NonUniformInput

# The sweeps (sweep_left, sweep_right) are imported by the pure solvers when
# they run, not here: input the backend answers never loads them.  They are
# read from their modules at each call, so a wrapper set there is called.


class SolveRequest:
    """A solve call: sequence plus width bounds; U=None means unbounded."""

    __slots__ = ("seq", "L", "U")

    def __init__(self, seq: WeightedSequence, L: RealInput, U: Optional[RealInput] = None):
        if not L > 0:
            raise ValueError(f"L must be positive, got {L!r}")
        if U is not None and not U >= L:  # also catches NaN
            raise ValueError(f"need L <= U, got L={L!r} U={U!r}")
        self.seq, self.L, self.U = seq, L, U


def _densest(seq: WeightedSequence, lidx, i0: int, ends) -> Segment:
    """The densest segment (i, g) over left indices i = i0 .. 1, right to
    left, and the endpoints g that ``ends(i)`` yields for each, in order.

    An offer at least as dense as the best so far replaces it, so the
    smallest maximizing start wins.  The winner's end then moves to the
    smallest equal-density end at or after ``lidx[start]``.
    """
    V = seq.prefix_value
    W = seq.prefix_weight
    bi = bs = bw = 0
    for i in range(i0, 0, -1):
        vi = V[i - 1]
        wi = W[i - 1]
        for g in ends(i):
            s = V[g] - vi
            w = W[g] - wi
            if bw == 0 or s * bw >= bs * w:
                bi, bs, bw = i, s, w
    vi = V[bi - 1]
    wi = W[bi - 1]
    j = lidx[bi]
    while (V[j] - vi) * bw != bs * (W[j] - wi):
        j += 1
    return make_segment(seq, bi, j)


# ---------------------------------------------------------------------------
# Width >= L, no upper bound: single structure over the whole sequence.
# ---------------------------------------------------------------------------


def max_density_min_width(
    seq: WeightedSequence,
    L: RealInput,
    *,
    counters: Optional[OpCounters] = None,
) -> Segment:
    """Densest segment of width at least L, in O(n): every left index asks
    the one structure for its best endpoint."""
    n = seq.n
    if seq.prefix_weight[n] < L:
        raise InfeasibleWidthWindow(f"total width {seq.total_width!r} below L={L!r}")
    from .sweep_left import find_match_min_width, initialize_min_width

    c = counters if counters is not None else OpCounters()
    bounds = compute_bounds(seq, L, seq.prefix_weight[n])
    state = initialize_min_width(seq, 1, n, bounds, counters=c)
    return _densest(seq, bounds.lidx, bounds.i0, lambda i: (find_match_min_width(state, i),))


# ---------------------------------------------------------------------------
# Equal weights: the width bounds become item counts.
# ---------------------------------------------------------------------------


def _item_counts(seq: WeightedSequence, L: RealInput, U: RealInput) -> Tuple[int, int]:
    """(ceil(L / c), floor(U / c)) for the common weight c, exactly."""
    if seq.min_weight != seq.max_weight:
        raise NonUniformInput(
            f"requires equal weights, found {seq.min_weight!r} to {seq.max_weight!r}"
        )
    c = seq.min_weight
    L, U = Fraction(L), Fraction(U)
    return -(-L // c), U // c


def sliding_window(seq: WeightedSequence, L: RealInput) -> Segment:
    """Densest run of items of total width exactly L over equal weights;
    ties take the smallest start.  An L that is not a whole multiple of the
    weight admits no window at all."""
    return max_density_uniform(seq, L, L)


def max_density_uniform(
    seq: WeightedSequence,
    L: RealInput,
    U: RealInput,
    *,
    counters: Optional[OpCounters] = None,
) -> Segment:
    """Densest segment of width in [L, U] over equal weights, in O(n).

    With common weight c the width bounds are the item counts
    Lc = ceil(L / c) .. Uc = floor(U / c), so the feasible endpoints of
    left index i are i + Lc - 1 .. i + Uc - 1.  The index line is tiled with
    blocks of exactly Uc - Lc indices; each feasible endpoint range has
    Uc - Lc + 1 indices, hence overlaps exactly two blocks: the low part is
    searched with the block's min-width structure, the high part with the
    next block's max-width structure.
    """
    if not 0 < L <= U:
        raise ValueError(f"need 0 < L <= U, got L={L!r} U={U!r}")
    n = seq.n
    total = seq.prefix_weight[n]
    if total < L:
        raise InfeasibleWidthWindow(f"total width {total!r} below L={L!r}")
    Lc, Uc = _item_counts(seq, L, min(U, total))
    if Lc > Uc:
        raise InfeasibleWidthWindow(f"no item count puts the width inside [{L!r}, {U!r}]")
    i0 = n - Lc + 1
    if Lc == Uc:  # one item count fits: left index i has the one endpoint i + Lc - 1
        return _densest(seq, range(Lc - 1, n + Lc), i0, lambda i: (i + Lc - 1,))
    from .sweep_left import find_match_min_width, initialize_min_width
    from .sweep_right import find_match_max_width, initialize_max_width

    c = counters if counters is not None else OpCounters()
    bounds = FeasibilityBounds(
        lidx=[None, *range(Lc, n + 1)] + [None] * (Lc - 1),
        uidx=[0, *range(Uc, n + 1)] + [n] * (Uc - 1),
        i0=i0,
    )
    lidx = bounds.lidx
    size = Uc - Lc
    blocks = [(xs, min(n, xs + size - 1)) for xs in range(1, n + 1, size)]
    blocks_l = [initialize_min_width(seq, x, y, bounds, counters=c) for x, y in blocks]
    # blocks_u[z] serves block z + 1: no endpoint range reaches block 0's high part
    blocks_u = [initialize_max_width(seq, x, y, bounds, counters=c) for x, y in blocks[1:]]

    def ends(i):
        zc = (lidx[i] - 1) // size
        if zc < len(blocks_u):  # offered last, the low side wins a tie with the high side
            return find_match_max_width(blocks_u[zc], i), find_match_min_width(blocks_l[zc], i)
        return (find_match_min_width(blocks_l[zc], i),)

    return _densest(seq, lidx, i0, ends)


# ---------------------------------------------------------------------------
# Any positive weights, L <= U: dyadic blocks at every level.
# ---------------------------------------------------------------------------


def _greedy_level(s: int, q: int, beta: int) -> int:
    """Largest level k <= beta with (s-1) aligned to 2**k and block fitting by q."""
    if s == 1:
        k = beta
    else:
        t = s - 1
        k = min(beta, (t & -t).bit_length() - 1)
    fit = (q - s + 1).bit_length() - 1
    return k if k <= fit else fit


def _iter_cover(p: int, q: int, beta: int) -> Iterator[Tuple[int, int]]:
    """Yield (level, start) of the aligned blocks of level <= beta tiling [p, q] in
    order; at most 2 * (beta + 1) if q - p + 1 < 2**(beta+1) (levels rise, then fall)."""
    s = p
    while s <= q:
        k = _greedy_level(s, q, beta)
        yield k, s
        s += 1 << k


def max_density_general(
    seq: WeightedSequence,
    L: RealInput,
    U: RealInput,
    *,
    counters: Optional[OpCounters] = None,
) -> Segment:
    """Densest segment of width in [L, U] for any positive weights.

    Builds a min-width structure per dyadic block at levels 1..beta, then
    covers each left index's feasible endpoint range with the O(beta)
    aligned blocks of :func:`_iter_cover` (the cover C06 checks for every
    interval) and queries each.  A level-0 block [s, s] answers s itself, so
    it gets no structure.  Every cover block fits inside [lidx[i], uidx[i]],
    so no block ends left of lidx[i], as the query requires.
    beta = floor(log2(s)) for s the widest feasible endpoint range present,
    so the cost is O(n log s), where s <= n always and s <= U - L + 1 when
    every weight is at least 1.  Items wider than U need no split: their
    uidx[i] < lidx[i] gives an empty cover.
    """
    if not 0 < L <= U:
        raise ValueError(f"need 0 < L <= U, got L={L!r} U={U!r}")
    n = seq.n
    total = seq.prefix_weight[n]
    if total < L:
        raise InfeasibleWidthWindow(f"total width {total!r} below L={L!r}")
    from .sweep_left import find_match_min_width, initialize_min_width

    c = counters if counters is not None else OpCounters()
    bounds = compute_bounds(seq, L, min(U, total))
    i0 = bounds.i0
    assert i0 is not None
    lidx = bounds.lidx
    uidx = bounds.uidx

    widest = max(uidx[i] - lidx[i] + 1 for i in range(1, i0 + 1))
    if widest <= 0:
        raise InfeasibleWidthWindow(
            f"no left index admits an endpoint with width in [{L!r}, {U!r}]"
        )
    beta = widest.bit_length() - 1  # widest <= 2**(beta+1) - 1

    levels = [None]  # a one-item block [s, s] answers s itself
    for k in range(1, beta + 1):
        step = 1 << k
        levels.append([
            initialize_min_width(seq, xs, min(n, xs + step - 1), bounds, counters=c)
            for xs in range(1, n + 1, step)
        ])

    return _densest(seq, lidx, i0, lambda i: (
        find_match_min_width(levels[k][(s - 1) >> k], i) if k else s
        for k, s in _iter_cover(lidx[i], uidx[i], beta)
    ))


# ---------------------------------------------------------------------------
# Dispatcher.
# ---------------------------------------------------------------------------


def _split_heavy(seq: WeightedSequence, L: RealInput, U: Optional[RealInput]):
    """The maximal runs of items no wider than U that are at least L wide, as
    (offset, run) pairs, run holding items offset + 1 .. offset + run.n cut
    from the prefix sums; seq itself when no item is wider than U.  An item
    wider than U lies in no feasible segment, and a run narrower than L holds none.
    """
    if U is None or seq.max_weight <= U:
        return [(0, seq)] if seq.total_width >= L else []
    pw = seq.prefix_weight
    heavy = [i for i in range(1, seq.n + 1) if pw[i] - pw[i - 1] > U]
    runs = zip([0, *heavy], [h - 1 for h in heavy] + [seq.n])  # run (a, b): items a + 1 .. b
    return [(a, _merge_spans(seq, range(a, b + 1))) for a, b in runs if pw[b] - pw[a] >= L]


def solve(req: SolveRequest, *, counters: Optional[OpCounters] = None) -> Segment:
    """Dispatching entry point.

    Input the numpy backend accepts (:func:`fastpath.best`) is solved there
    in one call on the whole sequence, or refused there when no segment is
    feasible.  Otherwise every piece of :func:`_split_heavy` goes to the
    sweep its width and weights admit, and the best segment under the
    global tie rule (smallest start, then smallest end) wins.
    """
    seq, L, U = req.seq, req.L, req.U
    res = fastpath.best(seq, L, U)
    if res is not None:
        return make_segment(seq, *res)
    best: Optional[Segment] = None
    for offset, piece in _split_heavy(seq, L, U):
        try:
            if U is None or U >= piece.prefix_weight[piece.n]:
                seg = max_density_min_width(piece, L, counters=counters)
            elif piece.min_weight == piece.max_weight:
                seg = max_density_uniform(piece, L, U, counters=counters)
            else:
                seg = max_density_general(piece, L, U, counters=counters)
        except InfeasibleWidthWindow:
            continue
        seg = Segment(seg.start + offset, seg.end + offset, seg.density)
        if best is None or seg.density > best.density:
            best = seg  # later pieces start later, so ties keep the earlier
    if best is None:
        raise InfeasibleWidthWindow.no_segment(L, U)
    return best

