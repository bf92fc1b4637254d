"""Bioinformatics ingestion: FASTA and weighted-TSV parsing, nucleotide
scoring, and run-length compression into the weighted model."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

from . import fastpath
from .core import SCALE_CAP_DIGITS, WeightedSequence, build_sequence, exact_decimal
from .errors import MalformedFasta, MalformedTsv, UnknownSymbol

_KNOWN_BASES = set("ACGTUNacgtun")
_GC_BASES = set("GCgc")


@dataclass(frozen=True)
class DnaRecord:
    id: str
    bases: str


@dataclass(frozen=True)
class MappingSpec:
    """How nucleotide symbols become item values: G/C score gc_score, every
    other symbol other_score, both in units of 1/scale.

    gc01 scores G/C as 1 and everything else 0.  huang(p) scores G/C as
    1 - p and everything else as -p, for p in [0, 1] with at most 9 decimal
    places; p's decimal digits fix the integer scale so the scoring stays exact.
    """

    gc_score: int
    other_score: int
    scale: int

    @classmethod
    def gc01(cls) -> "MappingSpec":
        return cls(1, 0, 1)

    @classmethod
    def huang(cls, p: Union[str, float, Decimal]) -> "MappingSpec":
        p_scaled, places = exact_decimal(p if isinstance(p, Decimal) else str(p))
        scale = 10 ** places
        if not 0 <= p_scaled <= scale:
            raise ValueError(f"huang p must lie in [0, 1], got {p}")
        return cls(scale - p_scaled, -p_scaled, scale)


def parse_fasta(stream: Union[str, IO[str], Iterable[str]]) -> List[DnaRecord]:
    """Standard FASTA: '>' headers, sequence lines concatenated, case kept.

    Raises MalformedFasta for sequence data before any header and for a
    record with no bases.
    """
    if isinstance(stream, str):
        stream = stream.splitlines()
    records: List[DnaRecord] = []
    rec_id: Optional[str] = None
    rec_header_line = 0
    parts: List[str] = []

    def close():
        bases = "".join(parts)
        if not bases:
            raise MalformedFasta(rec_header_line, f"record {rec_id!r} has no bases")
        records.append(DnaRecord(rec_id, bases))

    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            if rec_id is not None:
                close()
            rec_id = line[1:].strip()
            rec_header_line = lineno
            parts = []
        else:
            if rec_id is None:
                raise MalformedFasta(lineno, "sequence data before any '>' header")
            parts.append("".join(line.split()))
    if rec_id is None:
        raise MalformedFasta(1, "no records found")
    close()
    return records


def write_fasta(records: Iterable[DnaRecord], out: IO[str], line_width: int = 60) -> None:
    for rec in records:
        out.write(f">{rec.id}\n")
        bases = rec.bases
        for i in range(0, len(bases), line_width):
            out.write(bases[i:i + line_width] + "\n")


def map_to_sequence(
    rec: DnaRecord,
    spec: MappingSpec,
    *,
    strict: bool = False,
) -> WeightedSequence:
    """Score a DNA record into a weighted sequence, one item per base.

    Every item weighs 1, so widths count bases.  Ambiguity codes such as N
    score as non-GC; strict mode rejects symbols outside A/C/G/T/U/N instead.
    Records long enough for the numpy backend (``fastpath.MIN_FAST_N`` bases)
    are mapped straight into int64 prefix arrays when every prefix fits;
    shorter ones stream into prefix lists without importing numpy.
    """
    n = len(rec.bases)
    if n >= fastpath.MIN_FAST_N and \
            n * max(abs(spec.gc_score), abs(spec.other_score)) < 1 << 63:
        return _map_to_arrays(rec, spec, strict)
    if strict:
        for pos, ch in enumerate(rec.bases, start=1):
            if ch not in _KNOWN_BASES:
                raise UnknownSymbol(ch, pos)
    gc_score, other_score = spec.gc_score, spec.other_score
    items = ((gc_score if ch in _GC_BASES else other_score, 1) for ch in rec.bases)
    return build_sequence(items, value_scale=spec.scale)


def _map_to_arrays(rec: DnaRecord, spec: MappingSpec, strict: bool) -> WeightedSequence:
    """map_to_sequence into int64 prefix arrays through 256-entry byte tables."""
    import numpy as np

    # One byte per symbol: every non-ASCII symbol becomes '?', neither GC nor known.
    codes = np.frombuffer(rec.bases.encode("ascii", errors="replace"), dtype=np.uint8)
    if strict:
        known = np.zeros(256, dtype=bool)
        known[[ord(ch) for ch in _KNOWN_BASES]] = True
        bad = int(np.argmin(known[codes]))  # the first unknown symbol, if any
        if not known[codes[bad]]:
            raise UnknownSymbol(rec.bases[bad], bad + 1)
    scores = np.full(256, spec.other_score, dtype=np.int64)
    scores[[ord(ch) for ch in _GC_BASES]] = spec.gc_score
    n = len(codes)
    V = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(scores[codes], out=V[1:])
    return WeightedSequence(V, np.arange(n + 1, dtype=np.int64),
                            value_scale=spec.scale, is_uniform=True,
                            min_weight=1, max_weight=1)


def compress_runs(seq: WeightedSequence) -> WeightedSequence:
    """Merge maximal runs of equal-density items into single items.

    Any segment whose endpoints sit on run boundaries keeps its density
    exactly; segments that cut through a run are no longer expressible, so
    this transform is always an explicit opt-in.  The merged prefix sums are
    the stored ones at the run ends: int64 arrays when every cross product
    fits int64, the exact lists otherwise.
    """
    n = seq.n
    arrays = seq.int64_prefixes() if n >= fastpath.MIN_FAST_N else None
    if arrays and fastpath.eligible(seq):  # so |item value| * weight < 2**62
        import numpy as np

        V, W = arrays
        v, w = np.diff(V), np.diff(W)
        ends = np.flatnonzero(v[:-1] * w[1:] != v[1:] * w[:-1]) + 1
        keep = np.concatenate(([0], ends, [n]))
        weights = np.diff(W[keep])
        lo, hi = int(weights.min()), int(weights.max())
        return WeightedSequence(V[keep], W[keep], value_scale=seq.value_scale,
                                weight_scale=seq.weight_scale, is_uniform=lo == hi == 1,
                                min_weight=lo, max_weight=hi)
    pv, pw = seq.prefix_value, seq.prefix_weight
    keep = [0] + [i for i in range(1, n) if (pv[i] - pv[i - 1]) * (pw[i + 1] - pw[i])
                  != (pv[i + 1] - pv[i]) * (pw[i] - pw[i - 1])] + [n]
    return build_sequence(((pv[b] - pv[a], pw[b] - pw[a]) for a, b in zip(keep, keep[1:])),
                          value_scale=seq.value_scale, weight_scale=seq.weight_scale)


def _on_common_grid(column: List[Tuple[int, int]]) -> Tuple[Iterator[int], int]:
    """(units, places) pairs rescaled to the column's finest place count:
    the integers, streamed, and their shared power-of-ten scale."""
    top = max(places for _, places in column)
    factors = [10 ** (top - p) for p in range(top + 1)]
    return (units * factors[places] for units, places in column), 10 ** top


def parse_tsv(stream: Union[str, IO[str], Iterable[str]]) -> WeightedSequence:
    """Weighted TSV: one "value<TAB>weight" item per line, '#' comments.

    Each column is scaled exactly onto one power-of-ten integer grid, the
    finest its fields need.  A field that is not a finite decimal, needs
    more than 9 decimal places or has more than 1000 integer digits raises
    MalformedTsv with its line number; nothing is rounded.

    Text of at least ``fastpath.MIN_FAST_N`` lines is first read straight
    into int64 prefix arrays by a byte-level grammar: ASCII only; tokens
    separated by space, tab or line feed (a CR only right before a LF);
    every line that is not blank or a '#' comment holds exactly two tokens
    of the form ``-?[0-9]+(.[0-9]+)?``, each with at most 18 digits and
    SCALE_CAP_DIGITS fraction digits; positive weights; and every scaled
    item and prefix sum inside int64.  Text outside that grammar, and every
    other stream, takes the exact path, which gives the same sequence or
    raises the same error; it imports no numpy.
    """
    if isinstance(stream, str) and stream.count("\n") >= fastpath.MIN_FAST_N \
            and stream.isascii():
        seq = _tsv_to_arrays(stream)
        if seq is not None:
            return seq
    if isinstance(stream, str):
        stream = stream.splitlines()
    values: List[Tuple[int, int]] = []
    weights: List[Tuple[int, int]] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise MalformedTsv(lineno, f"expected 2 fields, got {len(fields)}")
        try:
            values.append(exact_decimal(fields[0]))
            weights.append(exact_decimal(fields[1]))
        except ValueError as exc:
            raise MalformedTsv(lineno, str(exc)) from None
    if not values:
        raise MalformedTsv(1, "no items found")
    vs, vscale = _on_common_grid(values)
    ws, wscale = _on_common_grid(weights)
    return build_sequence(zip(vs, ws), value_scale=vscale, weight_scale=wscale)


# Characters of TSV text the array path scans at once, cut after a line
# feed; bounds its per-byte scratch memory.
TSV_CHUNK = 1 << 18

# Byte classes of the array path: 0 is outside its grammar; TEXT may appear
# in comments only.
_SPACE, _DIGIT, _MINUS, _DOT, _HASH, _TEXT = 1, 2, 3, 4, 5, 6


def _tsv_to_arrays(text: str) -> Optional[WeightedSequence]:
    """parse_tsv's array path (ASCII text): the sequence, or None when the
    text leaves the grammar parse_tsv states."""
    import numpy as np

    table = np.zeros(256, dtype=np.int8)
    table[32:127] = _TEXT
    table[[9, 10, 13, 32]] = _SPACE
    table[48:58] = _DIGIT
    table[[45, 46, 35]] = _MINUS, _DOT, _HASH
    pow10 = 10 ** np.arange(19, dtype=np.int64)
    chunks, pos = [], 0
    while pos < len(text):
        end = text.find("\n", pos + TSV_CHUNK) + 1 or len(text)  # 0: no later LF
        chunk = text[pos:end] if text.endswith("\n", pos, end) else text[pos:end] + "\n"
        chunks.append(_scan_tsv_chunk(table, pow10, np.frombuffer(chunk.encode(), np.uint8)))
        if chunks[-1] is None:
            return None
        pos = end
    # Rows of (value, weight) fields: units[0] and places[0] are the values.
    units, places = (np.concatenate(parts).reshape(-1, 2).T for parts in zip(*chunks))
    del chunks
    if not units.shape[1]:
        return None
    (V, vscale), (W, wscale) = (_int64_grid(pow10, u, p) for u, p in zip(units, places))
    if V is None or W is None:
        return None
    weights = np.diff(W)
    lo, hi = int(weights.min()), int(weights.max())
    if lo <= 0:
        return None
    return WeightedSequence(V, W, value_scale=vscale, weight_scale=wscale,
                            is_uniform=lo == hi == 1, min_weight=lo, max_weight=hi)


def _scan_tsv_chunk(table, pow10, b):
    """(units, places) of every field in b, text ending in a line feed, in
    reading order, or None when b leaves the grammar."""
    import numpy as np

    c = table[b]
    cr = np.flatnonzero(b == 13)
    if not c.all() or (b[cr + 1] != 10).any():
        return None
    tok = c != _SPACE
    edges = np.flatnonzero(tok[1:] != tok[:-1]) + 1
    if tok[0]:
        edges = np.concatenate(([0], edges))
    starts, ends = edges[0::2], edges[1::2]
    lines = np.cumsum(b == 10, dtype=np.int32)  # a byte's line; a LF's is the next one
    line = lines[starts]
    if (c == _HASH).any():  # blank the lines whose first token opens a comment
        first = np.concatenate(([True], line[1:] != line[:-1]))
        note = np.zeros(int(lines[-1]) + 1, dtype=bool)
        note[line[first & (b[starts] == 35)]] = True
        c[note[lines]] = _SPACE
        kept = ~note[line]
        starts, ends, line = starts[kept], ends[kept], line[kept]
    if (c > _DOT).any() or len(starts) % 2 or (line[0::2] != line[1::2]).any() \
            or (line[2::2] == line[1:-1:2]).any():
        return None
    minus, dots = np.flatnonzero(c == _MINUS), np.flatnonzero(c == _DOT)
    opens = np.zeros(len(b), dtype=bool)
    opens[starts] = True
    dot_tok = np.cumsum(opens, dtype=np.int32)[dots] - 1
    if (c[minus - 1] != _SPACE).any() or (c[minus + 1] != _DIGIT).any() \
            or (c[dots - 1] != _DIGIT).any() or (c[dots + 1] != _DIGIT).any() \
            or (np.diff(dot_tok) == 0).any():
        return None
    places = np.zeros(len(starts), dtype=np.int64)
    places[dot_tok] = ends[dot_tok] - dots - 1
    neg = b[starts] == 45
    ndig = ends - starts - neg - (places > 0)
    if (ndig > 18).any() or (places > SCALE_CAP_DIGITS).any():
        return None
    # Every field ends in a digit; a digit's power of ten is the number of
    # digits to its right in its field.
    digits = np.flatnonzero(c == _DIGIT)
    after = np.cumsum(c == _DIGIT, dtype=np.int32)[ends - 1]
    power = np.repeat(after, ndig) - 1 - np.arange(len(digits))
    units = np.add.reduceat(pow10[power] * (b[digits] - 48), after - ndig)
    np.negative(units, out=units, where=neg)
    return units, places.astype(np.int8)


def _int64_grid(pow10, units, places):
    """(prefix sums, scale) of one column's fields (units, places) on its
    finest power-of-ten grid, or (None, None) when an item or the sum of
    absolute items could leave int64."""
    import numpy as np

    top = int(places.max())
    # Lower the grid while no field has a nonzero digit in place `top`.
    while top and not (units % pow10[np.maximum(places - top + 1, 0)]).any():
        top -= 1
    if (places != top).any():
        up = pow10[np.maximum(top - places, 0)]
        if (np.abs(units) > np.iinfo(np.int64).max // up).any():
            return None, None
        units = units * up // pow10[np.maximum(places - top, 0)]  # exact: 1.50 -> 15
    if np.abs(units).sum(dtype=np.float64) >= 2.0 ** 62:  # float error is far below 2x
        return None, None
    prefix = np.zeros(len(units) + 1, dtype=np.int64)
    np.cumsum(units, out=prefix[1:])
    return prefix, 10 ** top
