"""Weighted sequences, prefix sums, exact density comparison, feasibility bounds.

Indices are 1-based in the public contract.  Prefix arrays have length n+1
with position 0 equal to 0, so ``prefix[j] - prefix[i-1]`` is the sum over
items i..j inclusive.

Exactness model: every value and weight is stored as an ``int`` when it is
integral and as an exact ``Fraction`` otherwise (floats keep their binary
value), so prefix sums never round and density comparisons cross-multiply
exact rationals.  Decimal text (TSV fields, the CLI's bounds and
``huang:P``) is read by :func:`decimal_units` as an int on a power-of-ten
grid; ``Fraction`` input is much slower and runs the pure sweeps only.

Storage model: a :class:`WeightedSequence` holds its prefix sums as Python
lists (any exact number) or as int32 or int64 numpy arrays, whichever its
builder made (:func:`build_sequence` makes lists; ``bio.read_fasta`` and
``parse_tsv`` make arrays for long inputs), and derives the other form
lazily, once, for the reader that needs it: the pure sweeps read lists, the
numpy backend reads arrays.  Under unit weights the paper's width
``w(i, j)`` is ``j - i + 1``, so the array store keeps no weight column: 4
bytes per FASTA base whose prefixes fit int32, and 8 per TSV row whose two
columns do.  The sequence alone derives its weight facts from the stored
prefix sums; its builders pass only the prefix columns and scales.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from functools import total_ordering
from itertools import pairwise
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import EmptySequence, IndexOutOfRange, NonFiniteItem, NonPositiveWeight

Number = Union[int, Fraction]  # what a sequence stores
RealInput = Union[int, float, Decimal, Fraction]  # what items and bounds may be


class WeightedItem(NamedTuple):
    value: Number
    weight: Number


@total_ordering
class DensityValue:
    """A density kept as the exact pair (sum, width) with width > 0.

    Two densities compare by cross-multiplication, so they are ordered
    exactly: d1 <= d2 iff d1.sum * d2.width <= d2.sum * d1.width.
    """

    __slots__ = ("sum", "width")

    def __init__(self, sum: Number, width: Number):
        if not width > 0:
            raise ValueError(f"density width must be > 0, got {width!r}")
        self.sum = sum
        self.width = width

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


class Segment(NamedTuple):
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
    * int32 or int64 numpy arrays ``(V, W)``, as :mod:`maxseg.bio` maps
      long FASTA records (int32 when every prefix fits) and
      :func:`maxseg.bio.parse_tsv` reads long TSV input (each column int32
      while its sums fit).  ``W`` is
      None exactly when every weight is 1 (``is_uniform``): the prefix
      weight at ``j`` is then ``j`` itself, and a passed W of all 1s is
      dropped.  Readers widen to int64 before any arithmetic that could
      leave int32.

    ``is_uniform`` (O(1)), ``min_weight`` and ``max_weight`` (one pass on
    first read, which only the pure path makes) are derived, read-only.
    The constructor's keywords of these names have no effect.

    :meth:`prefix_arrays` hands the numpy backend the arrays (built once,
    as int64, from the lists when every entry fits int64).
    ``prefix_value`` and ``prefix_weight`` hand the pure sweeps lists
    (filled once from the arrays on first use).  ``n``, ``total_width`` and :func:`density` read
    single entries, from the arrays when they exist and from the lists
    otherwise, so a backend answer never fills the lists.

    The sequence is immutable after construction and safe to share between
    threads.  The lazy fills need no lock: each builds its result in full
    before one attribute assignment publishes it, and each is idempotent,
    so two threads that race on one compute equal contents and either
    result is a complete and correct view.
    """

    __slots__ = ("_pv", "_pw", "_arrays", "_weight_range", "n", "value_scale", "weight_scale")

    def __init__(self, prefix_value: List[Number], prefix_weight: List[Number], *,
                 value_scale: int = 1, weight_scale: int = 1,
                 is_uniform: object = None, min_weight: object = None, max_weight: object = None):
        """prefix_value and prefix_weight are both lists or both int32 or
        int64 arrays; an array store whose weights are all 1 may pass None."""
        del is_uniform, min_weight, max_weight
        self.n = len(prefix_value) - 1
        if isinstance(prefix_value, list):
            self._pv, self._pw = prefix_value, prefix_weight
            self._arrays = None  # not built yet; () once known not to fit
        else:
            if prefix_weight is not None and int(prefix_weight[-1]) == self.n:  # all 1s
                prefix_weight = None
            self._pv = self._pw = None
            self._arrays = (prefix_value, prefix_weight)
        self._weight_range = None  # (min, max) weight, found on first read
        self.value_scale = value_scale
        self.weight_scale = weight_scale

    @property
    def prefix_value(self) -> List[Number]:
        if self._pv is None:
            self._pv = self._arrays[0].tolist()
        return self._pv

    @property
    def prefix_weight(self) -> List[Number]:
        if self._pw is None:
            W = self._arrays[1]
            self._pw = list(range(self.n + 1)) if W is None else W.tolist()
        return self._pw

    def prefix_arrays(self) -> Optional[tuple]:
        """The prefix sums as int32 or int64 arrays ``(V, W)``, with W None
        when every weight is 1, or None when a column holds a ``Fraction`` or
        a value outside int64."""
        if self._arrays is None:
            self._arrays = _int64_arrays(self._pv, None if self.is_uniform else self._pw)
        return self._arrays or None

    @property
    def is_uniform(self) -> bool:
        """True when every weight is the int 1, in O(1): positive int weights
        that sum to n are all 1, and a list column ending in an int holds only ints."""
        total = self.total_width
        return type(total) is int and total == self.n

    min_weight = property(lambda self: self._weights()[0], doc="The least weight.")
    max_weight = property(lambda self: self._weights()[1], doc="The greatest weight.")

    def _weights(self) -> Tuple[Number, Number]:
        """(least, greatest) weight, each an int when integral, found once."""
        if self._weight_range is None:
            weights = [1] if self.is_uniform else [b - a for a, b in pairwise(self.prefix_weight)]
            self._weight_range = (_integral(min(weights)), _integral(max(weights)))
        return self._weight_range

    def _span(self, i: int, j: int) -> Tuple[Number, Number]:
        """(value sum, width) of items i..j as plain numbers, unchecked."""
        arrays = self._arrays
        if arrays:
            V, W = arrays
            return (int(V[j]) - int(V[i - 1]),
                    j - i + 1 if W is None else int(W[j]) - int(W[i - 1]))
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


def _int64_arrays(pv: List[Number], pw: Optional[List[Number]]) -> tuple:
    """(V, W) as int64 arrays, W None when pw is, or () when a column holds a
    Fraction or a value outside int64; imports numpy unless a column is
    fractional."""
    # One Fraction item makes every later prefix of its column a Fraction.
    if not (isinstance(pv[-1], int) and (pw is None or isinstance(pw[-1], int))):
        return ()
    import numpy as np

    try:
        return (np.fromiter(pv, dtype=np.int64, count=len(pv)),
                None if pw is None else np.fromiter(pw, dtype=np.int64, count=len(pw)))
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
    return _integral(q)


def _integral(x: Number) -> Number:
    """x as an int when it is integral; a Fraction sum can be."""
    return int(x) if x.denominator == 1 else x


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
    idx = 0
    for idx, item in enumerate(items, start=1):
        a, w = item
        if not isinstance(a, int):
            a = _exact(a, idx)
        if not isinstance(w, int):
            w = _exact(w, idx, weight=True)
        if not w > 0:
            raise NonPositiveWeight(idx)
        pv.append(pv[-1] + a)
        pw.append(pw[-1] + w)
    if idx == 0:
        raise EmptySequence("sequence must contain at least one item")
    return WeightedSequence(pv, pw, value_scale=value_scale, weight_scale=weight_scale)


def _int_column(col: List[Number]) -> List[Number]:
    """col as ints when every entry is integral (one ending in an int holds only ints)."""
    if isinstance(col[-1], int) or any(x.denominator != 1 for x in col):
        return col
    return [int(x) for x in col]


def _merge_spans(seq: WeightedSequence, cuts: Sequence[int]) -> WeightedSequence:
    """The list-store sequence, with seq's scales, whose k-th item merges
    items cuts[k] + 1 .. cuts[k + 1] of seq (cuts increasing)."""
    pv, pw = seq.prefix_value, seq.prefix_weight
    v0, w0 = pv[cuts[0]], pw[cuts[0]]
    V = _int_column([pv[c] - v0 for c in cuts])
    W = _int_column([pw[c] - w0 for c in cuts])
    return WeightedSequence(V, W, value_scale=seq.value_scale, weight_scale=seq.weight_scale)


def density(seq: WeightedSequence, i: int, j: int) -> DensityValue:
    """Density of segment (i, j), inclusive 1-based, as an exact pair (ints when integral)."""
    if not 1 <= i <= j <= seq.n:
        raise IndexOutOfRange(f"segment ({i},{j}) outside [1,{seq.n}]")
    s, w = seq._span(i, j)
    return DensityValue(_integral(s), _integral(w))


def make_segment(seq: WeightedSequence, i: int, j: int) -> Segment:
    return Segment(i, j, density(seq, i, j))


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

    __slots__ = ("lidx", "uidx", "i0", "cursor_advances")

    def __init__(self, lidx: List[Optional[int]], uidx: List[int], i0: Optional[int],
                 cursor_advances: int = 0):
        self.lidx, self.uidx, self.i0, self.cursor_advances = lidx, uidx, i0, cursor_advances


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


class OpCounters:
    """Loop-iteration counters for the sweep structures.

    init_merges counts pointer-merge steps during initialization,
    descent_steps the cursor decrements at query time, bitonic_steps the
    endpoint retreats of the bitonic search, and scan_steps the bucket-list
    elements consumed while re-locating the bridge.
    """

    __slots__ = ("init_merges", "descent_steps", "bitonic_steps", "scan_steps")

    def __init__(self, init_merges: int = 0, descent_steps: int = 0,
                 bitonic_steps: int = 0, scan_steps: int = 0):
        self.init_merges, self.descent_steps = init_merges, descent_steps
        self.bitonic_steps, self.scan_steps = bitonic_steps, scan_steps

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return self._values() == other._values() if type(other) is OpCounters else NotImplemented

    def __repr__(self):
        return f"OpCounters({', '.join(f'{k}={getattr(self, k)}' for k in self.__slots__)})"

    def total(self) -> int:
        return self.init_merges + self.descent_steps + self.bitonic_steps + self.scan_steps


# ----------------------------------------------------------------------------
# Decimal fixed-point helpers (the exact-input path for parsers and the CLI).
# ----------------------------------------------------------------------------

SCALE_CAP_DIGITS = 9
DENSITY_PLACES = 9

# Decimals with more integer digits than this are refused: expanding them
# would cost time and memory that no input this package models needs.
MAX_INTEGER_DIGITS = 1000

# The one syntax of a decimal's text: TSV fields, width bounds and huang:P.
_DECIMAL = re.compile(rb"(-?)([0-9]+)(?:\.([0-9]+))?")


def decimal_units(text: bytes, max_places: Optional[int] = None) -> Tuple[int, int]:
    """(units, places) with text == units / 10**places exactly, places minimal.

    text is ASCII ``-?[0-9]+(.[0-9]+)?`` with at most MAX_INTEGER_DIGITS
    integer digits and, unless max_places is None, at most max_places
    fraction digits once trailing zeros go.  Never rounds: any other text
    raises ValueError.
    """
    m = _DECIMAL.fullmatch(text)
    if not m:
        raise ValueError(f"not a decimal number: {text.decode('utf-8', 'replace')!r}")
    whole, frac = m[2].lstrip(b"0"), (m[3] or b"").rstrip(b"0")
    if len(whole) > MAX_INTEGER_DIGITS:
        raise ValueError(f"{m[0].decode()} has more than {MAX_INTEGER_DIGITS} integer digits")
    if max_places is not None and len(frac) > max_places:
        raise ValueError(f"{m[0].decode()} needs more than {max_places} decimal places")
    return int(m[1] + (whole + frac or b"0")), len(frac)


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
) -> str:
    """Exact decimal rendering (half-even) of a density to DENSITY_PLACES digits."""
    sign = "-" if seg_sum < 0 else ""
    q = round(Fraction(abs(seg_sum) * weight_scale * 10 ** DENSITY_PLACES,
                       seg_width * value_scale))
    whole, frac = divmod(q, 10 ** DENSITY_PLACES)
    return f"{sign}{whole}.{frac:0{DENSITY_PLACES}d}"
