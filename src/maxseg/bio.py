"""Bioinformatics ingestion: FASTA and weighted-TSV parsing, nucleotide
scoring, and run-length compression into the weighted model."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

from . import fastpath
from .core import WeightedSequence, build_sequence, exact_decimal
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
    this transform is always an explicit opt-in.
    """
    n = seq.n
    items = []
    run_v = seq.value(1)
    run_w = seq.weight(1)
    for i in range(2, n + 1):
        v = seq.value(i)
        w = seq.weight(i)
        if v * run_w == run_v * w:  # equal density joins the run
            run_v += v
            run_w += w
        else:
            items.append((run_v, run_w))
            run_v, run_w = v, w
    items.append((run_v, run_w))
    return build_sequence(items, value_scale=seq.value_scale,
                          weight_scale=seq.weight_scale)


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
    """
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
