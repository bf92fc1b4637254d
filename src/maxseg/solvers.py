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

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from . import fastpath
from .core import (
    DensityValue,
    FeasibilityBounds,
    Number,
    OpCounters,
    Segment,
    WeightedSequence,
    build_sequence,
    compute_bounds,
    make_segment,
)
from .errors import (
    IndexOutOfRange,
    InfeasibleWidthWindow,
    NonUniformInput,
)
from .sweep_left import find_match_min_width, initialize_min_width
from .sweep_right import find_match_max_width, initialize_max_width

@dataclass(frozen=True)
class BlockId:
    """Aligned dyadic block: 2**level indices starting at 1 + ordinal * 2**level."""

    level: int
    ordinal: int
    start: int
    end: int  # nominal end (ordinal+1) * 2**level, clipped to n


@dataclass
class SolveRequest:
    """A solve call: sequence plus width bounds; U=None means unbounded."""

    seq: WeightedSequence
    L: Number
    U: Optional[Number] = None

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L!r}")
        if self.U is not None and self.U < self.L:
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


def _minimize_end(seq: WeightedSequence, i: int, lo: int, hi: int,
                  s: Number, w: Number) -> int:
    """Smallest j in [lo, hi] with density(i, j) equal to s/w exactly."""
    V = seq.prefix_value
    W = seq.prefix_weight
    vi = V[i - 1]
    wi = W[i - 1]
    for j in range(lo, hi + 1):
        if (V[j] - vi) * w == s * (W[j] - wi):
            return j
    raise AssertionError("winning candidate density not found on its own row")


def _finalize(seq: WeightedSequence, i: int, g: int, lo: int) -> Segment:
    """Normalize the winning candidate (i, g) to the smallest equal-density end."""
    V = seq.prefix_value
    W = seq.prefix_weight
    s = V[g] - V[i - 1]
    w = W[g] - W[i - 1]
    j = _minimize_end(seq, i, lo, g, s, w)
    return Segment(i, j, DensityValue(V[j] - V[i - 1], W[j] - W[i - 1]))


# ---------------------------------------------------------------------------
# Equal weights: widths are whole multiples of the common weight.
# ---------------------------------------------------------------------------


def _item_counts(seq: WeightedSequence, L: Number, U: Number) -> Tuple[int, int]:
    """(ceil(L / c), min(floor(U / c), n)) for the common weight c.

    An integer bound over an integer weight divides exactly; any other
    quotient is taken in floating point, the documented inexact fallback.
    """
    if seq.min_weight != seq.max_weight:
        raise NonUniformInput(
            f"requires equal weights, found {seq.min_weight!r} to {seq.max_weight!r}"
        )
    c = seq.min_weight
    exact = isinstance(c, int)
    lc = -(-L // c) if exact and isinstance(L, int) else math.ceil(L / c)
    uc = U // c if exact and isinstance(U, int) else math.floor(U / c)
    return max(lc, 1), min(uc, seq.n)


def sliding_window(seq: WeightedSequence, L: Number) -> Segment:
    """Densest run of items of total width exactly L over equal weights;
    ties take the smallest start.  An L that is not a whole multiple of the
    weight admits no window at all."""
    k, k_max = _item_counts(seq, L, L)
    if not L > 0:
        raise ValueError(f"L must be positive, got {L!r}")
    if k > k_max:
        raise InfeasibleWidthWindow(f"no window of width exactly {L!r} in {seq.n} items")
    return _densest_run(seq, k)


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
    L: Number,
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
    state = initialize_min_width(seq, 1, n, L, bounds, counters=c)
    V = seq.prefix_value
    W = seq.prefix_weight
    best = _Best()
    for i in range(i0, 0, -1):
        li = lidx[i]
        if li == n:
            g = n  # single feasible endpoint; answered without a query
        else:
            g = find_match_min_width(state, i)
        best.offer(i, g, V[g] - V[i - 1], W[g] - W[i - 1])
    return _finalize(seq, best.start, best.end, lidx[best.start])


# ---------------------------------------------------------------------------
# Equal weights, L < U: fixed blocks of Uc - Lc indices.
# ---------------------------------------------------------------------------


def max_density_uniform(
    seq: WeightedSequence,
    L: Number,
    U: Number,
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
    n = seq.n
    Lc, Uc = _item_counts(seq, L, U)
    if not L > 0:
        raise ValueError(f"L must be positive, got {L!r}")
    if Lc > Uc:
        raise InfeasibleWidthWindow(f"no item count puts the width inside [{L!r}, {U!r}]")
    if Lc == Uc:
        # One item count fits.  Pass the count itself unless L = U, since
        # Lc * c need not be exact for float weights.
        return sliding_window(seq, L) if L == U else _densest_run(seq, Lc)
    c = counters if counters is not None else OpCounters()
    i0 = n - Lc + 1
    bounds = FeasibilityBounds(
        lidx=[None, *range(Lc, n + 1)] + [None] * (Lc - 1),
        uidx=[0, *range(Uc, n + 1)] + [n] * (Uc - 1),
        i0=i0,
    )
    lidx = bounds.lidx
    size = Uc - Lc
    blocks_l = []
    blocks_u = []
    for xs in range(1, n + 1, size):
        ys = min(n, xs + size - 1)
        blocks_l.append(initialize_min_width(seq, xs, ys, L, bounds, counters=c))
        blocks_u.append(initialize_max_width(seq, xs, ys, bounds, counters=c))

    V = seq.prefix_value
    W = seq.prefix_weight
    best = _Best()
    for i in range(i0, 0, -1):
        li = lidx[i]
        zc = (li - 1) // size
        state_l = blocks_l[zc]
        ys = state_l.y
        assert state_l.x <= li <= ys
        if li == ys:
            g = li  # the block holds a single feasible endpoint
        else:
            g = find_match_min_width(state_l, i)
        vi = V[i - 1]
        wi = W[i - 1]
        s = V[g] - vi
        w = W[g] - wi
        if ys < n:
            g2 = find_match_max_width(blocks_u[zc + 1], i)
            s2 = V[g2] - vi
            w2 = W[g2] - wi
            if s2 * w > s * w2:  # strictly better; ties keep the low side
                g, s, w = g2, s2, w2
        best.offer(i, g, s, w)
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
    """Yield (level, start) of disjoint aligned blocks tiling [p, q]."""
    s = p
    while s <= q:
        k = _greedy_level(s, q, beta)
        yield k, s
        s += 1 << k


def collect_blocks(p: int, q: int, beta: int, n: int) -> List[BlockId]:
    """Disjoint aligned dyadic blocks, each of level <= beta, tiling [p, q].

    For q - p + 1 <= 2**(beta+1) - 1 the cover holds at most 2 * (beta + 1)
    blocks: levels ascend to at most one maximal block, then descend.
    """
    if not 1 <= p <= q <= n:
        raise IndexOutOfRange(f"interval ({p},{q}) outside [1,{n}]")
    out = []
    for k, s in _iter_cover(p, q, beta):
        out.append(BlockId(level=k, ordinal=(s - 1) >> k,
                           start=s, end=min(n, s + (1 << k) - 1)))
    return out


# ---------------------------------------------------------------------------
# Any positive weights, L <= U: dyadic blocks at every level.
# ---------------------------------------------------------------------------


def max_density_general(
    seq: WeightedSequence,
    L: Number,
    U: Number,
    *,
    counters: Optional[OpCounters] = None,
) -> Segment:
    """Densest segment of width in [L, U] for any positive weights.

    Builds a min-width structure per dyadic block at every level up to beta,
    then covers each left index's feasible endpoint range with O(beta)
    aligned blocks and queries each.  beta = floor(log2(s)) for s the widest
    feasible endpoint range present, so the cost is O(n log s), where
    s <= n always and s <= U - L + 1 when every weight is at least 1.
    """
    if not 0 < L <= U:
        raise ValueError(f"need 0 < L <= U, got L={L!r} U={U!r}")
    n = seq.n
    total = seq.prefix_weight[n]
    if total < L:
        raise InfeasibleWidthWindow(f"total width {total!r} below L={L!r}")
    if seq.max_weight > U:
        raise ValueError(
            f"item weight {seq.max_weight!r} exceeds U={U!r}; "
            "split the sequence at heavy items first (see solve)"
        )
    c = counters if counters is not None else OpCounters()
    bounds = compute_bounds(seq, L, min(U, total))
    i0 = bounds.i0
    assert i0 is not None
    lidx = bounds.lidx
    uidx = bounds.uidx

    widest = 0
    for i in range(1, i0 + 1):
        span = uidx[i] - lidx[i] + 1
        if span > widest:
            widest = span
    if widest == 0:
        raise InfeasibleWidthWindow(
            f"no left index admits an endpoint with width in [{L!r}, {U!r}]"
        )
    beta = widest.bit_length() - 1  # widest <= 2**(beta+1) - 1

    levels = []
    for k in range(beta + 1):
        step = 1 << k
        levels.append([
            initialize_min_width(seq, xs, min(n, xs + step - 1), L, bounds, counters=c)
            for xs in range(1, n + 1, step)
        ])

    V = seq.prefix_value
    W = seq.prefix_weight
    best = _Best()
    for i in range(i0, 0, -1):
        li = lidx[i]
        ui = uidx[i]
        if ui < li:
            continue  # this left index admits no feasible endpoint
        vi = V[i - 1]
        wi = W[i - 1]
        s = li
        while s <= ui:
            k = _greedy_level(s, ui, beta)
            state = levels[k][(s - 1) >> k]
            ys = state.y
            if li == ys:
                g = ys  # single-endpoint block at the range start
            else:
                g = find_match_min_width(state, i)
            best.offer(i, g, V[g] - vi, W[g] - wi)
            s += 1 << k
    return _finalize(seq, best.start, best.end, lidx[best.start])


# ---------------------------------------------------------------------------
# Dispatcher.
# ---------------------------------------------------------------------------


def _split_heavy(seq: WeightedSequence, U: Optional[Number]):
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


def _solve_piece(piece: WeightedSequence, L: Number, U: Optional[Number],
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
        if best is None:
            best = seg
        else:
            d_new, d_old = seg.density, best.density
            if d_new > d_old or (
                d_new == d_old and (seg.start, seg.end) < (best.start, best.end)
            ):
                best = seg
    if best is None:
        raise InfeasibleWidthWindow(
            f"no segment with width in [{L!r}, {U if U is not None else 'unbounded'!r}]"
        )
    return best


# ---------------------------------------------------------------------------
# Benchmark baseline: per-index binary search over the right-skew chain.
# ---------------------------------------------------------------------------


def _baseline_min_width_logl(seq: WeightedSequence, L: int,
                             *, counters: Optional[OpCounters] = None) -> Segment:
    """O(n log L) reference for the width >= L problem over unit weights.

    Kept only as a benchmark baseline: every left index independently binary
    searches the bitonic density profile along its right-skew block chain,
    using doubling jump tables over the block-start pointers.  Each jump
    probe counts as one descent step, making the n log L profile visible
    next to the sweep solvers' linear counters.  Not part of the supported
    API.
    """
    if not seq.is_uniform:
        raise NonUniformInput("baseline requires unit weights")
    n = seq.n
    if n < L:
        raise InfeasibleWidthWindow(f"total width {n} below L={L}")
    c = counters if counters is not None else OpCounters()
    bounds = compute_bounds(seq, L, n)
    i0 = bounds.i0
    lidx = bounds.lidx
    state = initialize_min_width(seq, 1, n, L, bounds, counters=c)
    p = state.p

    # jump[t][s] = start of the block 2**t blocks after the block starting at s
    top = max(1, min(2 * L, n).bit_length())
    jump0 = [0] * (n + 2)
    jump0[n + 1] = n + 1
    for s in range(2, n + 1):
        jump0[s] = p[s - 1] + 1  # state range is (1, n): p slot offset is 1
    jumps = [jump0]
    for _ in range(top):
        prev = jumps[-1]
        jumps.append([prev[v] if v else 0 for v in prev])

    V = seq.prefix_value
    best = _Best()

    def mu_gt(i, a, b):  # density(i, a) > density(i, b), unit weights
        return (V[a] - V[i - 1]) * (b - i + 1) > (V[b] - V[i - 1]) * (a - i + 1)

    probes = 0
    for i in range(i0, 0, -1):
        lo = lidx[i]
        if lo == n:
            g = n
        elif mu_gt(i, lo, p[lo + 1 - 1]):
            probes += 1
            g = lo  # profile falls immediately: the mandatory prefix wins
        else:
            s = lo + 1  # start of the next unconsumed block; profile rises so far
            for t in range(top, -1, -1):
                s2 = jumps[t][s]
                if s2 > n:
                    continue  # jump overshoots the chain
                probes += 1
                if not mu_gt(i, s2 - 1, p[s2 - 1]):
                    s = s2  # still rising at the jump target
            g = p[s - 1]
        best.offer(i, g, V[g] - V[i - 1], g - i + 1)
    c.descent_steps += probes
    return _finalize(seq, best.start, best.end, lidx[best.start])
