"""Weighted sequences, prefix sums, exact density comparison, feasibility bounds.

Indices are 1-based in the public contract.  Prefix arrays have length n+1
with position 0 equal to 0, so ``prefix[j] - prefix[i-1]`` is the sum over
items i..j inclusive.

Exactness model: integer values and weights (typically decimals scaled onto a
power-of-ten grid, see :func:`pick_scale`) make every density comparison
exact, because comparisons cross-multiply Python integers instead of
dividing; integers of any size are exact.  Float inputs are accepted as a
documented fallback; comparisons then cross-multiply in floating point, which
is deterministic but subject to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, List, NamedTuple, Optional, Tuple, Union

from .errors import EmptySequence, IndexOutOfRange, NonPositiveWeight

Number = Union[int, float]


class WeightedItem(NamedTuple):
    value: Number
    weight: Number


@total_ordering
@dataclass(frozen=True, eq=False)
class DensityValue:
    """A density kept as the exact pair (sum, width) with width > 0.

    Two densities compare by cross-multiplication, so integer-valued inputs
    are ordered exactly: d1 <= d2 iff d1.sum * d2.width <= d2.sum * d1.width.
    """

    sum: Number
    width: Number

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"density width must be > 0, got {self.width!r}")

    @property
    def value(self) -> float:
        """Floating-point rendering of the density."""
        return self.sum / self.width

    def as_fraction(self) -> Fraction:
        return Fraction(self.sum) / Fraction(self.width)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensityValue):
            return NotImplemented
        return self.sum * other.width == other.sum * self.width

    def __lt__(self, other) -> bool:
        if not isinstance(other, DensityValue):
            return NotImplemented
        return self.sum * other.width < other.sum * self.width

    def __hash__(self):
        return hash(self.as_fraction())

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

    Width and density of any segment are O(1) queries.  The sequence is
    immutable after construction and safe to share between threads.
    """

    __slots__ = (
        "prefix_value",
        "prefix_weight",
        "n",
        "value_scale",
        "weight_scale",
        "exact",
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
        exact: bool = True,
        is_uniform: bool = False,
        min_weight: Number = 0,
        max_weight: Number = 0,
    ):
        self.prefix_value = prefix_value
        self.prefix_weight = prefix_weight
        self.n = len(prefix_value) - 1
        self.value_scale = value_scale
        self.weight_scale = weight_scale
        self.exact = exact
        self.is_uniform = is_uniform
        self.min_weight = min_weight
        self.max_weight = max_weight

    def __len__(self) -> int:
        return self.n

    def value(self, i: int) -> Number:
        """Value of item i (1-based)."""
        return self.prefix_value[i] - self.prefix_value[i - 1]

    def weight(self, i: int) -> Number:
        """Weight of item i (1-based)."""
        return self.prefix_weight[i] - self.prefix_weight[i - 1]

    @property
    def items(self) -> List[WeightedItem]:
        pv, pw = self.prefix_value, self.prefix_weight
        return [
            WeightedItem(pv[i] - pv[i - 1], pw[i] - pw[i - 1])
            for i in range(1, self.n + 1)
        ]

    @property
    def total_width(self) -> Number:
        return self.prefix_weight[self.n]

    def width(self, i: int, j: int) -> Number:
        if not 1 <= i <= j <= self.n:
            raise IndexOutOfRange(f"segment ({i},{j}) outside [1,{self.n}]")
        return self.prefix_weight[j] - self.prefix_weight[i - 1]

    def __repr__(self):
        return f"WeightedSequence(n={self.n}, total_width={self.total_width!r})"


def build_sequence(
    items: Iterable[Union[WeightedItem, Tuple[Number, Number]]],
    *,
    value_scale: int = 1,
    weight_scale: int = 1,
) -> WeightedSequence:
    """Build a sequence, validating weights.

    Raises NonPositiveWeight for any weight <= 0 (or NaN) and EmptySequence
    for an empty item list.  Integer inputs of any magnitude are accepted.
    """
    pv: List[Number] = [0]
    pw: List[Number] = [0]
    exact = True
    uniform = True
    min_w: Optional[Number] = None
    max_w: Optional[Number] = None
    idx = 0
    for idx, item in enumerate(items, start=1):
        a, w = item
        if not w > 0:  # also catches NaN
            raise NonPositiveWeight(idx)
        if exact and not (isinstance(a, int) and isinstance(w, int)):
            exact = False
        if w != 1:
            uniform = False
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
        exact=exact,
        is_uniform=uniform,
        min_weight=min_w,
        max_weight=max_w,
    )


def density(seq: WeightedSequence, i: int, j: int) -> DensityValue:
    """Density of segment (i, j), inclusive 1-based, as an exact pair."""
    if not 1 <= i <= j <= seq.n:
        raise IndexOutOfRange(f"segment ({i},{j}) outside [1,{seq.n}]")
    return DensityValue(
        seq.prefix_value[j] - seq.prefix_value[i - 1],
        seq.prefix_weight[j] - seq.prefix_weight[i - 1],
    )


def make_segment(seq: WeightedSequence, i: int, j: int) -> Segment:
    return Segment(i, j, density(seq, i, j))


@dataclass
class FeasibilityBounds:
    """Per-left-index feasible endpoint ranges for width bounds [L, U].

    lidx[i] is the minimum j with width(i, j) >= L, or None when even the
    full suffix is too narrow; uidx[i] is the maximum j >= i with
    width(i, j) <= U.  Both arrays are 1-based (slot 0 unused) and
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


def compute_bounds(seq: WeightedSequence, L: Number, U: Number) -> FeasibilityBounds:
    """Two-cursor sweep computing lidx and uidx in O(n).

    Requires 0 < L <= U and every item weight <= U (split heavier items out
    first; see solvers.solve).  When L exceeds the total width the result is
    returned with i0 = None rather than raising; callers decide whether that
    is an error.
    """
    if not 0 < L <= U:
        raise ValueError(f"need 0 < L <= U, got L={L!r} U={U!r}")
    if seq.max_weight > U:
        raise ValueError(
            f"item weight {seq.max_weight!r} exceeds U={U!r}; "
            "split the sequence at heavy items first"
        )
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


def decimal_places(text: Union[str, Decimal]) -> int:
    """Number of digits after the decimal point needed to write the value."""
    d = text if isinstance(text, Decimal) else Decimal(str(text))
    exp = d.as_tuple().exponent
    return max(0, -int(exp))


def pick_scale(texts: Iterable[Union[str, Decimal]], cap: int = SCALE_CAP_DIGITS) -> int:
    """Power of ten putting every decimal in `texts` on an integer grid.

    Digits beyond `cap` decimal places are not representable; values are then
    rounded half-even onto the capped grid by :func:`to_scaled_int`.
    """
    places = 0
    for t in texts:
        places = max(places, decimal_places(t))
        if places >= cap:
            return 10 ** cap
    return 10 ** places


def to_scaled_int(value: Union[str, Decimal], scale: int) -> int:
    """Exact integer of value * scale; rounds half-even if off the grid."""
    d = value if isinstance(value, Decimal) else Decimal(str(value))
    scaled = (d * scale).quantize(Decimal(1), rounding=ROUND_HALF_EVEN)
    return int(scaled)


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
    num = seg_sum * weight_scale
    den = seg_width * value_scale
    if den < 0:
        num, den = -num, -den
    sign = "-" if num < 0 else ""
    scaled = abs(num) * 10 ** places
    q, r = divmod(scaled, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    whole, frac = divmod(q, 10 ** places)
    return f"{sign}{whole}.{frac:0{places}d}"
