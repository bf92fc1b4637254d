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

Ties everywhere resolve to the smallest start index, then the smallest end
index: the candidate pass keeps the smallest maximizing start (candidates
arrive with strictly decreasing starts), and a final scan minimizes the end
for that start.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from . import fastpath
from .core import (
    FeasibilityBounds,
    Number,
    OpCounters,
    RealInput,
    Segment,
    WeightedSequence,
    build_sequence,
    compute_bounds,
    make_segment,
)
from .errors import InfeasibleWidthWindow, NonUniformInput
from .sweep_left import find_match_min_width, initialize_min_width
from .sweep_right import find_match_max_width, initialize_max_width

@dataclass
class SolveRequest:
    """A solve call: sequence plus width bounds; U=None means unbounded."""

    seq: WeightedSequence
    L: RealInput
    U: Optional[RealInput] = None

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L!r}")
        if self.U is not None and not self.U >= self.L:  # also catches NaN
            raise ValueError(f"need L <= U, got L={self.L!r} U={self.U!r}")


class _Best:
    """Running best candidate; ties prefer the latest (= smallest) start.

    Solvers offer candidates with non-increasing start indices, so replacing
    on density >= keeps the smallest maximizing start.
    """

    __slots__ = ("start", "end", "s", "w")

    def __init__(self):
        self.start = 0
        self.end = 0
        self.s = 0
        self.w = 0

    def offer(self, i: int, j: int, s: Number, w: Number) -> None:
        if self.w == 0 or s * self.w >= self.s * w:
            self.start = i
            self.end = j
            self.s = s
            self.w = w


def _finalize(seq: WeightedSequence, i: int, g: int, lo: int) -> Segment:
    """Normalize the winning candidate (i, g) to the smallest equal-density end >= lo."""
    V = seq.prefix_value
    W = seq.prefix_weight
    vi = V[i - 1]
    wi = W[i - 1]
    s = V[g] - vi
    w = W[g] - wi
    j = lo
    while (V[j] - vi) * w != s * (W[j] - wi):
        j += 1
    return make_segment(seq, i, j)


# ---------------------------------------------------------------------------
# Equal weights: widths are whole multiples of the common weight.
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


def _densest_run(seq: WeightedSequence, k: int) -> Segment:
    """Densest run of exactly k items over equal weights; ties take the
    smallest start."""
    V = seq.prefix_value
    best_s = V[k] - V[0]
    best_i = 1
    for i in range(2, seq.n - k + 2):
        s = V[i + k - 1] - V[i - 1]
        if s > best_s:
            best_s = s
            best_i = i
    return make_segment(seq, best_i, best_i + k - 1)


# ---------------------------------------------------------------------------
# Width >= L, no upper bound: single structure over the whole sequence.
# ---------------------------------------------------------------------------


def max_density_min_width(
    seq: WeightedSequence,
    L: RealInput,
    *,
    counters: Optional[OpCounters] = None,
) -> Segment:
    """Densest segment of width at least L, in O(n).

    Left indices are processed right to left; each asks the sweep structure
    for its best endpoint, and the best recorded pair wins.
    """
    n = seq.n
    if seq.prefix_weight[n] < L:
        raise InfeasibleWidthWindow(f"total width {seq.total_width!r} below L={L!r}")
    c = counters if counters is not None else OpCounters()
    bounds = compute_bounds(seq, L, seq.prefix_weight[n])
    i0 = bounds.i0
    assert i0 is not None
    lidx = bounds.lidx
    state = initialize_min_width(seq, 1, n, bounds, counters=c)
    V = seq.prefix_value
    W = seq.prefix_weight
    best = _Best()
    for i in range(i0, 0, -1):
        g = find_match_min_width(state, i)
        best.offer(i, g, V[g] - V[i - 1], W[g] - W[i - 1])
    return _finalize(seq, best.start, best.end, lidx[best.start])


# ---------------------------------------------------------------------------
# Equal weights, L < U: fixed blocks of Uc - Lc indices.
# ---------------------------------------------------------------------------


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
    if Lc == Uc:
        return _densest_run(seq, Lc)  # one item count fits
    c = counters if counters is not None else OpCounters()
    i0 = n - Lc + 1
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

    V = seq.prefix_value
    W = seq.prefix_weight
    best = _Best()
    for i in range(i0, 0, -1):
        zc = (lidx[i] - 1) // size
        vi = V[i - 1]
        wi = W[i - 1]
        if zc < len(blocks_u):
            g = find_match_max_width(blocks_u[zc], i)
            best.offer(i, g, V[g] - vi, W[g] - wi)
        # offered last, the low side wins a tie with the high side
        g = find_match_min_width(blocks_l[zc], i)
        best.offer(i, g, V[g] - vi, W[g] - wi)
    return _finalize(seq, best.start, best.end, lidx[best.start])


# ---------------------------------------------------------------------------
# Dyadic block cover for the general solver.
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


# ---------------------------------------------------------------------------
# Any positive weights, L <= U: dyadic blocks at every level.
# ---------------------------------------------------------------------------


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

    V = seq.prefix_value
    W = seq.prefix_weight
    best = _Best()
    for i in range(i0, 0, -1):
        vi = V[i - 1]
        wi = W[i - 1]
        for k, s in _iter_cover(lidx[i], uidx[i], beta):
            g = find_match_min_width(levels[k][(s - 1) >> k], i) if k else s
            best.offer(i, g, V[g] - vi, W[g] - wi)
    return _finalize(seq, best.start, best.end, lidx[best.start])


# ---------------------------------------------------------------------------
# Dispatcher.
# ---------------------------------------------------------------------------


def _split_heavy(seq: WeightedSequence, U: Optional[RealInput]):
    """Maximal runs of items with weight <= U, as (offset, subsequence) pairs.

    Items heavier than U cannot sit inside any feasible segment, so they cut
    the sequence; each piece is solved independently.
    """
    if U is None or seq.max_weight <= U:
        return [(0, seq)]
    pieces = []
    run: List[Tuple[Number, Number]] = []
    run_start = 0
    for i in range(1, seq.n + 1):
        w = seq.weight(i)
        if w > U:
            if run:
                pieces.append((run_start, build_sequence(
                    run, value_scale=seq.value_scale, weight_scale=seq.weight_scale)))
                run = []
        else:
            if not run:
                run_start = i - 1
            run.append((seq.value(i), w))
    if run:
        pieces.append((run_start, build_sequence(
            run, value_scale=seq.value_scale, weight_scale=seq.weight_scale)))
    return pieces


def _solve_piece(piece: WeightedSequence, L: RealInput, U: Optional[RealInput],
                 counters: Optional[OpCounters]) -> Segment:
    if U is None or U >= piece.prefix_weight[piece.n]:
        return max_density_min_width(piece, L, counters=counters)
    if piece.min_weight == piece.max_weight:
        return max_density_uniform(piece, L, U, counters=counters)
    return max_density_general(piece, L, U, counters=counters)


def solve(req: SolveRequest, *, counters: Optional[OpCounters] = None) -> Segment:
    """Dispatching entry point.

    Input the numpy backend accepts (:func:`fastpath.best`) is solved there
    in one call on the whole sequence.  Otherwise the sequence is split at
    items wider than U, every piece goes to the sweep its weight profile
    admits, and the best segment under the global tie rule (smallest start,
    then smallest end) wins.
    """
    seq, L, U = req.seq, req.L, req.U
    res = fastpath.best(seq, L, U)
    if res is not None:
        return make_segment(seq, *res)
    best: Optional[Segment] = None
    for offset, piece in _split_heavy(seq, U):
        if piece.prefix_weight[piece.n] < L:
            continue
        try:
            seg = _solve_piece(piece, L, U, counters)
        except InfeasibleWidthWindow:
            continue
        if offset:
            seg = Segment(seg.start + offset, seg.end + offset, seg.density)
        if best is None or seg.density > best.density:
            best = seg  # later pieces start later, so ties keep the earlier
    if best is None:
        raise InfeasibleWidthWindow(
            f"no segment with width in [{L!r}, {'unbounded' if U is None else repr(U)}]"
        )
    return best

