"""Weighted sequences, prefix sums, exact density comparison, feasibility bounds.

Indices are 1-based in the public contract.  Prefix arrays have length n+1
with position 0 equal to 0, so ``prefix[j] - prefix[i-1]`` is the sum over
items i..j inclusive.

Exactness model: every value and weight is stored as an ``int`` when it is
integral and as an exact ``Fraction`` otherwise (floats keep their binary
value), so prefix sums never round and density comparisons cross-multiply
exact rationals.  Decimals the CLI scales onto a power-of-ten grid (see
:func:`exact_decimal`) stay ints; ``Fraction`` input is much slower and runs
the pure sweeps only.

Storage model: a :class:`WeightedSequence` holds its prefix sums as Python
lists (any exact number) or as int64 numpy arrays, whichever its builder
made (:func:`build_sequence` makes lists; the parsers in :mod:`maxseg.bio`
read long FASTA records and long TSV text straight into arrays), and
derives the other form lazily, once, for the reader that needs it: the pure
sweeps read lists, the numpy backend reads arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, List, NamedTuple, Optional, Tuple, Union

from .errors import EmptySequence, IndexOutOfRange, NonFiniteItem, NonPositiveWeight

Number = Union[int, Fraction]  # what a sequence stores
RealInput = Union[int, float, Decimal, Fraction]  # what items and bounds may be


class WeightedItem(NamedTuple):
    value: Number
    weight: Number


@total_ordering
@dataclass(frozen=True, eq=False)
class DensityValue:
    """A density kept as the exact pair (sum, width) with width > 0.

    Two densities compare by cross-multiplication, so they are ordered
    exactly: d1 <= d2 iff d1.sum * d2.width <= d2.sum * d1.width.
    """

    sum: Number
    width: Number

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"density width must be > 0, got {self.width!r}")

    @property
    def value(self) -> float:
        """Floating-point rendering of the density."""
        return float(self.sum / self.width)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensityValue):
            return NotImplemented
        return self.sum * other.width == other.sum * self.width

    def __lt__(self, other) -> bool:
        if not isinstance(other, DensityValue):
            return NotImplemented
        return self.sum * other.width < other.sum * self.width

    def __hash__(self):
        return hash(Fraction(self.sum, self.width))

    def __repr__(self):
        return f"DensityValue({self.sum!r}/{self.width!r} = {self.value:.6g})"


@dataclass(frozen=True)
class Segment:
    """An inclusive 1-based index range with its density."""

    start: int
    end: int
    density: DensityValue

    @property
    def width(self) -> Number:
        return self.density.width

    @property
    def sum(self) -> Number:
        return self.density.sum


class WeightedSequence:
    """Items (value, weight > 0) with precomputed prefix sums.

    Width and density of any segment are O(1) queries.  The prefix sums live
    in one of two stores, fixed at construction:

    * Python lists (``int`` or ``Fraction`` entries), as
      :func:`build_sequence` makes them;
    * int64 numpy arrays ``(V, W)``, as :func:`maxseg.bio.map_to_sequence`
      makes them for long records and :func:`maxseg.bio.parse_tsv` for long
      text.

    :meth:`int64_prefixes` hands the numpy backend the arrays (built once
    from the lists when every entry fits int64).  ``prefix_value`` and
    ``prefix_weight`` hand the pure sweeps lists (filled once from the
    arrays on first use).  ``n``, ``total_width`` and :func:`density` read
    single entries, from the arrays when they exist and from the lists
    otherwise, so a backend answer never fills the lists.

    The sequence is immutable after construction and safe to share between
    threads.  The lazy fills need no lock: each builds its result in full
    before one attribute assignment publishes it, and each is idempotent,
    so two threads that race on one compute equal contents and either
    result is a complete and correct view.
    """

    __slots__ = (
        "_pv",
        "_pw",
        "_int64",
        "n",
        "value_scale",
        "weight_scale",
        "is_uniform",
        "min_weight",
        "max_weight",
    )

    def __init__(
        self,
        prefix_value: List[Number],
        prefix_weight: List[Number],
        *,
        value_scale: int = 1,
        weight_scale: int = 1,
        is_uniform: bool = False,
        min_weight: Number = 0,
        max_weight: Number = 0,
    ):
        """prefix_value and prefix_weight are both lists or both int64 arrays."""
        if isinstance(prefix_value, list):
            self._pv, self._pw = prefix_value, prefix_weight
            self._int64 = None  # not built yet; () once known not to fit
        else:
            self._pv = self._pw = None
            self._int64 = (prefix_value, prefix_weight)
        self.n = len(prefix_value) - 1
        self.value_scale = value_scale
        self.weight_scale = weight_scale
        self.is_uniform = is_uniform
        self.min_weight = min_weight
        self.max_weight = max_weight

    @property
    def prefix_value(self) -> List[Number]:
        if self._pv is None:
            self._pv = self._int64[0].tolist()
        return self._pv

    @property
    def prefix_weight(self) -> List[Number]:
        if self._pw is None:
            self._pw = self._int64[1].tolist()
        return self._pw

    def int64_prefixes(self) -> Optional[tuple]:
        """The prefix sums as int64 arrays ``(V, W)``, or None when a column
        holds a ``Fraction`` or a value outside int64."""
        if self._int64 is None:
            self._int64 = _int64_arrays(self._pv, self._pw)
        return self._int64 or None

    def _span(self, i: int, j: int) -> Tuple[Number, Number]:
        """(value sum, width) of items i..j as plain numbers, unchecked."""
        arrays = self._int64
        if arrays:
            V, W = arrays
            return int(V[j]) - int(V[i - 1]), int(W[j]) - int(W[i - 1])
        pv, pw = self._pv, self._pw
        return pv[j] - pv[i - 1], pw[j] - pw[i - 1]

    def __len__(self) -> int:
        return self.n

    def value(self, i: int) -> Number:
        """Value of item i (1-based)."""
        pv = self.prefix_value
        return pv[i] - pv[i - 1]

    def weight(self, i: int) -> Number:
        """Weight of item i (1-based)."""
        pw = self.prefix_weight
        return pw[i] - pw[i - 1]

    @property
    def items(self) -> List[WeightedItem]:
        pv, pw = self.prefix_value, self.prefix_weight
        return [
            WeightedItem(pv[i] - pv[i - 1], pw[i] - pw[i - 1])
            for i in range(1, self.n + 1)
        ]

    @property
    def total_width(self) -> Number:
        return self._span(1, self.n)[1]

    def width(self, i: int, j: int) -> Number:
        if not 1 <= i <= j <= self.n:
            raise IndexOutOfRange(f"segment ({i},{j}) outside [1,{self.n}]")
        return self._span(i, j)[1]

    def __repr__(self):
        return f"WeightedSequence(n={self.n}, total_width={self.total_width!r})"


def _int64_arrays(pv: List[Number], pw: List[Number]) -> tuple:
    """(V, W) as int64 arrays, or () when a column holds a Fraction or a value
    outside int64; imports numpy unless a column is fractional."""
    # One Fraction item makes every later prefix of its column a Fraction.
    if not (isinstance(pv[-1], int) and isinstance(pw[-1], int)):
        return ()
    import numpy as np

    try:
        return (np.fromiter(pv, dtype=np.int64, count=len(pv)),
                np.fromiter(pw, dtype=np.int64, count=len(pw)))
    except OverflowError:
        return ()


def _exact(x: RealInput, idx: int, weight: bool = False) -> Number:
    """x as an int when integral, else as a Fraction; NaN and infinities raise
    NonFiniteItem, except a NaN or -inf weight raises NonPositiveWeight."""
    if isinstance(x, str):
        raise TypeError(f"item {idx}: {x!r} is not a number")
    try:
        q = Fraction(x)
    except (ValueError, OverflowError):  # NaN or an infinity
        bad = NonPositiveWeight if weight and not x == math.inf else NonFiniteItem
        raise bad(idx) from None
    return int(q) if q.denominator == 1 else q


def build_sequence(
    items: Iterable[Union[WeightedItem, Tuple[RealInput, RealInput]]],
    *,
    value_scale: int = 1,
    weight_scale: int = 1,
) -> WeightedSequence:
    """Build a sequence, converting non-int items exactly (see :func:`_exact`).

    Raises NonPositiveWeight for any weight <= 0 (or NaN), NonFiniteItem for
    a NaN or infinite item, and EmptySequence for an empty item list.
    """
    pv: List[Number] = [0]
    pw: List[Number] = [0]
    min_w: Optional[Number] = None
    max_w: Optional[Number] = None
    idx = 0
    for idx, item in enumerate(items, start=1):
        a, w = item
        if not isinstance(a, int):
            a = _exact(a, idx)
        if not isinstance(w, int):
            w = _exact(w, idx, weight=True)
        if not w > 0:
            raise NonPositiveWeight(idx)
        if min_w is None or w < min_w:
            min_w = w
        if max_w is None or w > max_w:
            max_w = w
        pv.append(pv[-1] + a)
        pw.append(pw[-1] + w)
    if idx == 0:
        raise EmptySequence("sequence must contain at least one item")
    return WeightedSequence(
        pv,
        pw,
        value_scale=value_scale,
        weight_scale=weight_scale,
        is_uniform=min_w == max_w == 1,
        min_weight=min_w,
        max_weight=max_w,
    )


def density(seq: WeightedSequence, i: int, j: int) -> DensityValue:
    """Density of segment (i, j), inclusive 1-based, as an exact pair."""
    if not 1 <= i <= j <= seq.n:
        raise IndexOutOfRange(f"segment ({i},{j}) outside [1,{seq.n}]")
    return DensityValue(*seq._span(i, j))


def make_segment(seq: WeightedSequence, i: int, j: int) -> Segment:
    return Segment(i, j, density(seq, i, j))


@dataclass
class FeasibilityBounds:
    """Per-left-index feasible endpoint ranges for width bounds [L, U].

    lidx[i] is the minimum j with width(i, j) >= L, or None when even the
    full suffix is too narrow; uidx[i] is the maximum j >= i - 1 with
    width(i, j) <= U (i - 1 when item i alone is wider than U).  Both arrays are 1-based (slot 0 unused) and
    non-decreasing where defined.  i0 is the largest index with lidx defined,
    or None when no index qualifies.

    A segment (i, j) has width within [L, U] exactly when lidx[i] is defined
    and lidx[i] <= j <= uidx[i]; note lidx[i] > uidx[i] is possible for
    non-uniform weights, meaning index i admits no feasible endpoint.
    """

    lidx: List[Optional[int]]
    uidx: List[int]
    i0: Optional[int]
    cursor_advances: int = 0


def compute_bounds(seq: WeightedSequence, L: RealInput, U: RealInput) -> FeasibilityBounds:
    """Two-cursor sweep computing lidx and uidx in O(n).

    Requires 0 < L <= U; an item i wider than U gets uidx[i] = i - 1.  When
    L exceeds the total width the result is returned with i0 = None rather
    than raising; callers decide whether that is an error.
    """
    if not 0 < L <= U:
        raise ValueError(f"need 0 < L <= U, got L={L!r} U={U!r}")
    n = seq.n
    pw = seq.prefix_weight
    advances = 0

    uidx: List[int] = [0] * (n + 1)
    j = n
    for i in range(n, 0, -1):
        base = pw[i - 1]
        while pw[j] - base > U:
            j -= 1
            advances += 1
        uidx[i] = j

    lidx: List[Optional[int]] = [None] * (n + 1)
    i0: Optional[int] = None
    j = 1
    for i in range(1, n + 1):
        if j < i:
            j = i
        base = pw[i - 1]
        while j <= n and pw[j] - base < L:
            j += 1
            advances += 1
        if j > n:
            break  # all remaining suffixes are narrower than L
        lidx[i] = j
        i0 = i

    return FeasibilityBounds(lidx=lidx, uidx=uidx, i0=i0, cursor_advances=advances)


@dataclass
class OpCounters:
    """Loop-iteration counters for the sweep structures.

    init_merges counts pointer-merge steps during initialization,
    descent_steps the cursor decrements at query time, bitonic_steps the
    endpoint retreats of the bitonic search, and scan_steps the bucket-list
    elements consumed while re-locating the bridge.
    """

    init_merges: int = 0
    descent_steps: int = 0
    bitonic_steps: int = 0
    scan_steps: int = 0

    def total(self) -> int:
        return self.init_merges + self.descent_steps + self.bitonic_steps + self.scan_steps


# ----------------------------------------------------------------------------
# Decimal fixed-point helpers (the exact-input path for parsers and the CLI).
# ----------------------------------------------------------------------------

SCALE_CAP_DIGITS = 9

# Decimals with more integer digits than this are refused: expanding them
# would cost time and memory that no input this package models needs.
MAX_INTEGER_DIGITS = 1000

# Every denominator that divides 10**SCALE_CAP_DIGITS, mapped to the fewest
# decimal places p that clear it and the factor 10**p // denominator.
_DECIMAL_GRID = {
    2 ** a * 5 ** b: (max(a, b), 10 ** max(a, b) // (2 ** a * 5 ** b))
    for a in range(SCALE_CAP_DIGITS + 1)
    for b in range(SCALE_CAP_DIGITS + 1)
}


def finite_decimal(value: Union[str, Decimal]) -> Decimal:
    """value as a Decimal; ValueError for text that is not a decimal number,
    for infinities and NaN, and for more than MAX_INTEGER_DIGITS integer digits."""
    if isinstance(value, str):
        try:
            value = Decimal(value)
        except InvalidOperation:
            raise ValueError(f"not a decimal number: {value!r}") from None
    if not value.is_finite():
        raise ValueError(f"not a finite number: {value}")
    if value and value.adjusted() >= MAX_INTEGER_DIGITS:
        raise ValueError(f"{value} has more than {MAX_INTEGER_DIGITS} integer digits")
    return value


def exact_decimal(value: Union[str, Decimal]) -> Tuple[int, int]:
    """(units, places) with value == units / 10**places exactly, places minimal.

    Never rounds: raises ValueError where :func:`finite_decimal` does and for
    a value that needs more than SCALE_CAP_DIGITS decimal places.
    """
    value = finite_decimal(value)
    if not value:
        return 0, 0
    if value.adjusted() >= -SCALE_CAP_DIGITS:  # else too fine, and costly to expand
        num, den = value.as_integer_ratio()
        if den in _DECIMAL_GRID:
            places, factor = _DECIMAL_GRID[den]
            return num * factor, places
    raise ValueError(f"{value} needs more than {SCALE_CAP_DIGITS} decimal places")


def format_scaled(value: int, scale: int) -> str:
    """Render an integer-scaled value in user units with minimal digits."""
    if scale == 1:
        return str(value)
    sign = "-" if value < 0 else ""
    whole, frac = divmod(abs(value), scale)
    if frac == 0:
        return f"{sign}{whole}"
    digits = len(str(scale)) - 1
    text = f"{frac:0{digits}d}".rstrip("0")
    return f"{sign}{whole}.{text}"


def density_decimal_str(
    seg_sum: int,
    seg_width: int,
    value_scale: int = 1,
    weight_scale: int = 1,
    places: int = 9,
) -> str:
    """Exact decimal rendering (half-even) of a density to `places` digits."""
    sign = "-" if seg_sum < 0 else ""
    q = round(Fraction(abs(seg_sum) * weight_scale * 10 ** places,
                       seg_width * value_scale))
    whole, frac = divmod(q, 10 ** places)
    return f"{sign}{whole}.{frac:0{places}d}"
