"""Bioinformatics ingestion: FASTA and weighted-TSV parsing, nucleotide
scoring, and run-length compression into the weighted model."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import IO, Iterable, List, Optional, Union

from .core import (
    SCALE_CAP_DIGITS,
    WeightedSequence,
    build_sequence,
    decimal_places,
    pick_scale,
    to_scaled_int,
)
from .errors import MalformedFasta, MalformedTsv, UnknownSymbol

_KNOWN_BASES = set("ACGTUNacgtun")
_GC_BASES = set("GCgc")


@dataclass(frozen=True)
class DnaRecord:
    id: str
    bases: str


@dataclass(frozen=True)
class MappingSpec:
    """How nucleotide symbols become item values.

    gc01 scores G/C as 1 and everything else 0.  huang(p) scores G/C as
    1 - p and everything else as -p, for p in [0, 1]; p's decimal digits fix
    the integer scale so the scoring stays exact.
    """

    kind: str
    p_scaled: int = 0
    scale: int = 1

    @classmethod
    def gc01(cls) -> "MappingSpec":
        return cls(kind="gc01")

    @classmethod
    def huang(cls, p: Union[str, float, Decimal]) -> "MappingSpec":
        p_dec = p if isinstance(p, Decimal) else Decimal(str(p))
        if not 0 <= p_dec <= 1:
            raise ValueError(f"huang p must lie in [0, 1], got {p_dec}")
        scale = 10 ** min(decimal_places(p_dec), SCALE_CAP_DIGITS)
        return cls(kind="huang", p_scaled=to_scaled_int(p_dec, scale), scale=scale)


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
    weight_scale: int = 1,
) -> WeightedSequence:
    """Score a DNA record into a weighted sequence, one item per base.

    Every item weighs one base (scaled by weight_scale when fractional width
    bounds need a finer grid).  Ambiguity codes such as N score as non-GC;
    strict mode rejects symbols outside A/C/G/T/U/N instead.
    """
    if spec.kind == "gc01":
        gc_score, other_score, value_scale = 1, 0, 1
    elif spec.kind == "huang":
        gc_score = spec.scale - spec.p_scaled
        other_score = -spec.p_scaled
        value_scale = spec.scale
    else:
        raise ValueError(f"mapping {spec.kind!r} does not apply to DNA records")
    if strict:
        for pos, ch in enumerate(rec.bases, start=1):
            if ch not in _KNOWN_BASES:
                raise UnknownSymbol(ch, pos)
    items = [
        (gc_score if ch in _GC_BASES else other_score, weight_scale)
        for ch in rec.bases
    ]
    return build_sequence(items, value_scale=value_scale, weight_scale=weight_scale)


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


def parse_tsv(
    stream: Union[str, IO[str], Iterable[str]],
    *,
    weight_scale_hint: int = 1,
) -> WeightedSequence:
    """Weighted TSV: one "value<TAB>weight" item per line, '#' comments.

    Decimal columns are scaled onto per-file integer grids (at most 9
    digits); the hint forces a finer weight grid when the caller's width
    bounds carry more decimals than the file does.
    """
    if isinstance(stream, str):
        stream = stream.splitlines()
    values: List[Decimal] = []
    weights: List[Decimal] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise MalformedTsv(lineno, f"expected 2 fields, got {len(fields)}")
        try:
            values.append(Decimal(fields[0]))
            weights.append(Decimal(fields[1]))
        except InvalidOperation as exc:
            raise MalformedTsv(lineno, f"not a decimal number: {exc}") from None
    if not values:
        raise MalformedTsv(1, "no items found")
    vscale = pick_scale(values)
    wscale = max(pick_scale(weights), weight_scale_hint)
    items = [
        (to_scaled_int(v, vscale), to_scaled_int(w, wscale))
        for v, w in zip(values, weights)
    ]
    return build_sequence(items, value_scale=vscale, weight_scale=wscale)
