"""Bioinformatics ingestion: FASTA and weighted-TSV parsing, nucleotide
scoring, and run-length compression into the weighted model."""

from __future__ import annotations

import io
import re
from decimal import Decimal
from typing import IO, Iterable, Iterator, List, NamedTuple, Tuple, Union

from . import fastpath
from .core import (SCALE_CAP_DIGITS, WeightedSequence, _merge_spans, build_sequence,
                   decimal_units)
from .errors import MalformedFasta, MalformedTsv, MisencodedFasta, UnknownSymbol

# Symbol codes: the known bases, and those that score as GC.
_KNOWN_BASES = b"ACGTUNacgtun"
_UNKNOWN = re.compile(b"[^" + _KNOWN_BASES + b"]")
_GC_BASES = frozenset(b"GCgc")


class DnaRecord(NamedTuple):
    id: str
    bases: str


class MappingSpec(NamedTuple):
    """How nucleotide symbols become item values: G/C score gc_score, every
    other symbol other_score, both in units of 1/scale.

    gc01 scores G/C as 1 and everything else 0.  huang(p) scores G/C as
    1 - p and everything else as -p, for p in [0, 1] written as ``str(p)``
    in the decimal syntax of :func:`maxseg.core.decimal_units` with at most
    9 decimal places; p's decimal digits fix the integer scale so the
    scoring stays exact.
    """

    gc_score: int
    other_score: int
    scale: int

    @classmethod
    def gc01(cls) -> "MappingSpec":
        return cls(1, 0, 1)

    @classmethod
    def huang(cls, p: Union[str, float, Decimal]) -> "MappingSpec":
        p_scaled, places = decimal_units(str(p).encode(errors="surrogateescape"),
                                         SCALE_CAP_DIGITS)
        scale = 10 ** places
        if not 0 <= p_scaled <= scale:
            raise ValueError(f"huang p must lie in [0, 1], got {p}")
        return cls(scale - p_scaled, -p_scaled, scale)


def parse_fasta(text: str) -> List[DnaRecord]:
    """The records of FASTA text: its UTF-8 bytes read by :func:`scan_fasta`
    and :func:`fasta_bases`, with the same grammar and refusals."""
    read = _reader(io.BytesIO(text.encode()))
    return [DnaRecord(rid, b"".join(fasta_bases(read, start, end)).decode("ascii"))
            for rid, start, end, _ in scan_fasta(read)]


def map_to_sequence(rec: DnaRecord, spec: MappingSpec, *,
                    strict: bool = False) -> WeightedSequence:
    """Score a DNA record into a weighted sequence, one item per base, as
    :func:`read_fasta` scores the records it reads: every item weighs 1, so
    widths count bases, and ambiguity codes such as N score as non-GC;
    strict mode rejects symbols outside A/C/G/T/U/N instead.  A non-ASCII
    symbol, which no FASTA base is, raises UnknownSymbol.
    """
    bases = rec.bases
    if not bases.isascii():
        at = next(k for k, c in enumerate(bases) if not c.isascii())
        raise UnknownSymbol(bases[at], at + 1)
    pieces = (bases[c:c + FASTA_BLOCK].encode("ascii")
              for c in range(0, len(bases), FASTA_BLOCK))
    return _map_bases(pieces, len(bases), spec, strict)


def _map_bases(pieces: Iterable[bytes], n: int, spec: MappingSpec,
               strict: bool) -> WeightedSequence:
    """The unit-weight sequence of one record's n bases, which arrive as
    one-byte symbol codes in pieces of at most ``FASTA_BLOCK`` bytes.
    Strict mode raises UnknownSymbol at the first code outside A/C/G/T/U/N.

    A record of at least ``fastpath.MIN_FAST_N`` bases is scored through a
    256-entry table, a piece at a time with a carry, into one prefix array
    allocated at its exact size in the narrowest exact dtype, int32 or
    int64.  A shorter record, or one whose prefixes may leave int64, is
    scored into prefix lists without importing numpy.
    """
    top = n * max(abs(spec.gc_score), abs(spec.other_score))
    if n < fastpath.MIN_FAST_N or top >= 1 << 63:
        bases = b"".join(pieces)
        if strict and (bad := _UNKNOWN.search(bases)):
            raise UnknownSymbol(chr(bases[bad.start()]), bad.start() + 1)
        items = ((spec.gc_score if c in _GC_BASES else spec.other_score, 1) for c in bases)
        return build_sequence(items, value_scale=spec.scale)
    import numpy as np

    dtype = "int32" if top < 1 << 31 else "int64"
    scores = np.full(256, spec.other_score, dtype=dtype)
    scores[list(_GC_BASES)] = spec.gc_score
    V = np.empty(n + 1, dtype=dtype)
    V[0] = at = 0
    for piece in pieces:
        if strict and piece.translate(None, _KNOWN_BASES):  # faster than the search below
            bad = _UNKNOWN.search(piece).start()
            raise UnknownSymbol(chr(piece[bad]), at + bad + 1)
        codes = np.frombuffer(piece, dtype=np.uint8)
        out = V[at + 1:at + 1 + len(codes)]
        np.cumsum(scores[codes], dtype=dtype, out=out)
        out += V[at]
        at += len(codes)
    return WeightedSequence(V, None, value_scale=spec.scale)


# Bytes of FASTA input scan_fasta and fasta_bases read at once, and bases
# map_to_sequence encodes at once.  It bounds the ingest scratch: on a
# 250k-base record, 64 KiB blocks peaked 0.3 MB higher in RSS than 16 KiB
# ones, and smaller blocks saved nothing more.
FASTA_BLOCK = 1 << 14

# The bytes of FASTA input that are not bases: line breaks and blanks.
_FASTA_SPACE = b"\n \t\r"
_BREAK = re.compile(rb"[\n\r]")
_BASE = re.compile(rb"[^\n \t\r]")
_NON_ASCII = re.compile(rb"[\x80-\xff]")


def scan_fasta(read) -> List[Tuple[str, int, int, int]]:
    """Find the records of FASTA bytes without holding them: ``(id, start,
    end, n)`` per record in order, where bytes ``start`` to ``end`` hold its
    sequence lines and n bases.  ``read(at, size)`` returns up to size bytes
    from offset at; the input is read ``FASTA_BLOCK`` bytes at a time.

    The grammar: a line ends at LF, CRLF or a lone CR, and space and tab are
    blanks.  A line whose first non-blank byte is '>' is a header; its id is
    the rest of the line, stripped of blanks and decoded as strict UTF-8.
    Every other non-blank byte is a base.  The first fault raises with its
    line: MalformedFasta for a base before the first header, a record with
    no bases or no record at all, MisencodedFasta for a non-ASCII base or a
    header that is not UTF-8.
    """
    found, off = [], 0  # the records so far, and the offset of the block read
    rid, at, start, n = None, 0, 0, 0  # the open record: id, header offset, bases
    head = None  # the header line read so far, while one is open
    blank = True  # no base yet on the current line

    def header() -> str:  # the id of the header line head, whose '>' is byte at
        try:
            return head.strip(b" \t").decode("utf-8")
        except UnicodeDecodeError:
            raise MisencodedFasta(_line_of(read, at), "header is not UTF-8") from None

    def close(end: int) -> None:
        if not n:
            raise MalformedFasta(_line_of(read, at), f"record {rid!r} has no bases")
        found.append((rid, start, end, n))

    while b := read(off, FASTA_BLOCK):
        ascii_only = b.isascii()
        space = [c for c in _FASTA_SPACE if c in b]  # a count scans the stretch: skip absent ones
        i = 0
        while i < len(b):
            if head is not None:  # up to the header's line break
                eol = _BREAK.search(b, i)
                e = eol.start() if eol else len(b)
                head += b[i:e]
                if eol:
                    rid, start, n, blank = header(), off + e, 0, True
                    head = None
                i = e
                continue
            p = b.find(b">", i)
            e = len(b) if p < 0 else p
            if rid is None and (bad := _BASE.search(b, i, e)):
                raise MalformedFasta(_line_of(read, off + bad.start()),
                                     "sequence data before any '>' header")
            if not ascii_only and (bad := _NON_ASCII.search(b, i, e)):
                raise MisencodedFasta(_line_of(read, off + bad.start()),
                                      f"non-ASCII byte {b[bad.start()]:#x} in a sequence line")
            n += e - i - sum(b.count(c, i, e) for c in space)
            r = max(b.rfind(b"\n", i, e), b.rfind(b"\r", i, e))  # the last line break
            blank = (blank or r >= 0) and not b[max(r + 1, i):e].strip(b" \t")
            if p < 0:
                break
            if not blank:  # a '>' inside a line is a base
                n += 1
            else:  # a header: the open record ends here
                if rid is not None:
                    close(off + p)
                head, at = b"", off + p
            i = p + 1
        off += len(b)
    if head is not None:  # a last header with no line break after it
        rid, n = header(), 0
    if rid is None:
        raise MalformedFasta(1, "no records found")
    close(off)
    return found


def _line_of(read, at: int) -> int:
    """The line of FASTA input that holds byte at, counted from 1."""
    line, off, cr = 1, 0, False  # cr: the bytes so far end in a CR
    while off < at and (b := read(off, min(FASTA_BLOCK, at - off))):
        line += b.count(b"\n") + b.count(b"\r") - b.count(b"\r\n") - (cr and b[0] == 10)
        cr, off = b[-1] == 13, off + len(b)
    return line


def _reader(src: IO[bytes]):
    """read(at, size): up to size bytes of src, a binary file, from offset at."""
    def read(at: int, size: int) -> bytes:
        src.seek(at)
        return src.read(size)
    return read


def fasta_bases(read, start: int, end: int) -> Iterator[bytes]:
    """The bases in bytes start to end of a FASTA input that holds only
    sequence lines there, ``FASTA_BLOCK`` bytes of input at a time."""
    for at in range(start, end, FASTA_BLOCK):
        yield read(at, min(FASTA_BLOCK, end - at)).translate(None, _FASTA_SPACE)


def read_fasta(src: IO[bytes], spec: MappingSpec,
               strict: bool = False) -> Iterator[Tuple[str, WeightedSequence]]:
    """Yield (id, sequence) per record of the FASTA bytes in src, a binary
    file that can seek, each mapped only when asked for, so a caller that
    drops each sequence before the next holds one record at a time.
    :func:`scan_fasta` finds the records, and :func:`fasta_bases` reads each
    one's bases again to be mapped as they arrive: src is never held whole.
    """
    read = _reader(src)
    for rid, start, end, n in scan_fasta(read):
        seq = _map_bases(fasta_bases(read, start, end), n, spec, strict)
        yield rid, seq
        del seq  # before the next record is mapped


def compress_runs(seq: WeightedSequence) -> WeightedSequence:
    """Merge maximal runs of equal-density items into single items.

    Any segment whose endpoints sit on run boundaries keeps its density
    exactly; segments that cut through a run are no longer expressible, so
    this transform is always an explicit opt-in.  The merged prefix sums are
    the stored ones at the run ends: arrays of the stored dtypes when every
    cross product fits int64, the exact lists otherwise.
    """
    n = seq.n
    if fastpath.eligible(seq):  # so |item value| * weight < 2**62
        import numpy as np

        V, W = seq.prefix_arrays()
        v = np.subtract(V[1:], V[:-1], dtype=np.int64)
        if W is None:  # every weight is 1
            ends = np.flatnonzero(v[:-1] != v[1:]) + 1
        else:
            w = np.subtract(W[1:], W[:-1], dtype=np.int64)
            ends = np.flatnonzero(v[:-1] * w[1:] != v[1:] * w[:-1]) + 1
        keep = np.concatenate(([0], ends, [n]))
        return WeightedSequence(V[keep], keep if W is None else W[keep],
                                value_scale=seq.value_scale, weight_scale=seq.weight_scale)
    pv, pw = seq.prefix_value, seq.prefix_weight
    ends = [i for i in range(1, n) if (pv[i] - pv[i - 1]) * (pw[i + 1] - pw[i])
            != (pv[i + 1] - pv[i]) * (pw[i] - pw[i - 1])]
    return _merge_spans(seq, [0, *ends, n])


_TSV_BLANKS = re.compile(rb"[ \t]+")


def parse_tsv(stream: Union[str, bytes, IO[bytes]]) -> WeightedSequence:
    """Weighted TSV: the items of text, bytes or a binary file that can seek.

    The grammar: a line ends at LF, CRLF or a lone CR; space and tab are
    blanks.  A line whose first non-blank byte is '#' is a comment in
    UTF-8.  Every other non-blank line holds a value and a weight, two
    decimals in the syntax of :func:`maxseg.core.decimal_units` with at
    most SCALE_CAP_DIGITS places; weights are positive.  Anything else
    ('+1', '.5', '5.', '1e3', '1_000', 'nan', a non-ASCII digit, any other
    byte) raises MalformedTsv with its line, as does input with no item.
    Each column is scaled exactly onto the finest power-of-ten integer grid
    its fields need.

    From ``fastpath.MIN_FAST_N`` line ends up,
    :func:`maxseg.tsv_arrays.tsv_to_arrays` reads the input first, a chunk
    at a time; what it hands back, and shorter input, is read by the loop
    below into Python ints, without numpy.
    """
    if isinstance(stream, str) and not stream.isascii():
        stream = stream.encode()
    if isinstance(stream, str):
        def read(at: int, size: int) -> bytes:
            return stream[at:at + size].encode("ascii")
    else:  # bytes are shared, not copied: reads copy only what they return
        read = _reader(io.BytesIO(stream) if isinstance(stream, bytes) else stream)
    lines = at = 0  # line ends; a CRLF cut between blocks counts twice, as lines only bounds rows
    while block := read(at, TSV_CHUNK):
        lines += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
        at += len(block)
    if lines >= fastpath.MIN_FAST_N:
        from .tsv_arrays import tsv_to_arrays

        if (seq := tsv_to_arrays(_tsv_chunks(read), lines)) is not None:
            return seq
    rows = []  # (value units, places, weight units, places) per item
    # Chunks cut no CRLF; bytes.splitlines splits at LF, CRLF and CR.
    for line, text in enumerate((t for c in _tsv_chunks(read) for t in c.splitlines()), 1):
        text = text.strip(b" \t")
        if text.startswith(b"#"):
            try:
                text.decode("utf-8")
            except UnicodeDecodeError:
                raise MalformedTsv(line, "comment is not UTF-8") from None
        elif text:
            fields = _TSV_BLANKS.split(text)
            if len(fields) != 2:
                raise MalformedTsv(line, f"expected 2 fields, got {len(fields)}")
            try:
                rows.append(decimal_units(fields[0], SCALE_CAP_DIGITS)
                            + decimal_units(fields[1], SCALE_CAP_DIGITS))
            except ValueError as exc:
                raise MalformedTsv(line, str(exc)) from None
            if rows[-1][2] <= 0:
                raise MalformedTsv(line, "weight must be > 0")
    if not rows:
        raise MalformedTsv(1, "no items found")
    vp, wp = max(row[1] for row in rows), max(row[3] for row in rows)
    items = ((v * 10 ** (vp - p), w * 10 ** (wp - q)) for v, p, w, q in rows)
    return build_sequence(items, value_scale=10 ** vp, weight_scale=10 ** wp)


# Bytes of TSV input read at once; bounds the array path's scratch.  16 KiB
# took a third more CPU than 64 KiB to parse 2e6 rows (2-vCPU x86-64 host).
TSV_CHUNK = 1 << 16

def _tsv_chunks(read) -> Iterator[bytes]:
    """The input read ``TSV_CHUNK`` bytes at a time, as chunks cut after a
    line end, but not after a CR that ends a block (its LF may follow); a
    last line without a line end gains a LF."""
    parts, at = [], 0
    while block := read(at, TSV_CHUNK):
        at += len(block)
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
        parts.append(memoryview(block)[:cut] if cut else block)
        if cut:
            chunk, parts = b"".join(parts), [block[cut:]]
            del block  # only the chunk is held while it is scanned
            yield chunk
    if any(parts):
        yield b"".join(parts) + b"\n"
