"""Bioinformatics ingestion: FASTA and weighted-TSV parsing, nucleotide
scoring, and run-length compression into the weighted model."""

from __future__ import annotations

import io
from dataclasses import dataclass
from decimal import Decimal
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

from . import fastpath
from .core import SCALE_CAP_DIGITS, WeightedSequence, _merge_spans, build_sequence, exact_decimal
from .errors import MalformedFasta, MalformedTsv, UnknownSymbol

# Symbol codes: the known bases, and those that score as GC.
_KNOWN_BASES = frozenset(b"ACGTUNacgtun")
_GC_BASES = frozenset(b"GCgc")


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
    are mapped straight into a prefix array, int32 when every prefix fits
    int32 and int64 when every prefix fits int64; shorter ones stream into
    prefix lists without importing numpy.  :func:`read_fasta` maps the
    records it streams the same way.
    """
    # One byte per symbol: every non-ASCII symbol becomes '?', neither GC
    # nor known, and a refusal names the symbol itself.
    pieces = (rec.bases[c:c + FASTA_BLOCK].encode("ascii", errors="replace")
              for c in range(0, len(rec.bases), FASTA_BLOCK))
    try:
        return _map_bases(pieces, len(rec.bases), spec, strict)
    except UnknownSymbol as exc:
        raise UnknownSymbol(rec.bases[exc.position - 1], exc.position) from None


def _map_bases(pieces: Iterable[bytes], n: int, spec: MappingSpec,
               strict: bool) -> WeightedSequence:
    """The unit-weight sequence of one record's n bases, which arrive as
    one-byte symbol codes in pieces of at most ``FASTA_BLOCK`` bytes.
    Strict mode raises UnknownSymbol at the first code outside A/C/G/T/U/N.

    A record of at least ``fastpath.MIN_FAST_N`` bases is scored through
    256-entry tables, a piece at a time with a carry, into one prefix array
    allocated at its exact size in the narrowest exact dtype: int32 when
    every prefix fits int32, int64 when every prefix fits int64.  A shorter
    record, or one whose prefixes may leave int64, is scored into prefix
    lists without importing numpy.
    """
    top = n * max(abs(spec.gc_score), abs(spec.other_score))
    if n < fastpath.MIN_FAST_N or top >= 1 << 63:
        return _bases_to_lists(b"".join(pieces), spec, strict)
    import numpy as np

    dtype = "int32" if top < 1 << 31 else "int64"
    scores = np.full(256, spec.other_score, dtype=dtype)
    scores[list(_GC_BASES)] = spec.gc_score
    known = np.zeros(256, dtype=bool)
    known[list(_KNOWN_BASES)] = True
    V = np.empty(n + 1, dtype=dtype)
    V[0] = at = 0
    for piece in pieces:
        codes = np.frombuffer(piece, dtype=np.uint8)
        if strict and not known[codes].all():
            bad = int(np.argmin(known[codes]))
            raise UnknownSymbol(chr(codes[bad]), at + bad + 1)
        out = V[at + 1:at + 1 + len(codes)]
        np.cumsum(scores[codes], dtype=dtype, out=out)
        out += V[at]
        at += len(codes)
    return WeightedSequence(V, None, value_scale=spec.scale, is_uniform=True,
                            min_weight=1, max_weight=1)


def _bases_to_lists(bases: bytes, spec: MappingSpec, strict: bool) -> WeightedSequence:
    """_map_bases's list path: the symbol codes scored one at a time into
    prefix lists, with no numpy."""
    if strict:
        for pos, c in enumerate(bases, start=1):
            if c not in _KNOWN_BASES:
                raise UnknownSymbol(chr(c), pos)
    gc_score, other_score = spec.gc_score, spec.other_score
    items = ((gc_score if c in _GC_BASES else other_score, 1) for c in bases)
    return build_sequence(items, value_scale=spec.scale)


# Bytes of FASTA input scan_fasta and fasta_bases read at once, and bases
# map_to_sequence encodes at once.  It bounds the ingest scratch: on a
# 250k-base record, 64 KiB blocks peaked 0.3 MB higher in RSS than 16 KiB
# ones, and smaller blocks saved nothing more.
FASTA_BLOCK = 1 << 14

# What str.strip() and str.split() strip from ASCII FASTA text here: every
# other ASCII byte they treat as whitespace or a line break sends the input
# to parse_fasta.
_FASTA_SPACE = b"\n \t\r"
_OTHER_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def scan_fasta(read) -> Optional[List[Tuple[str, int, int, int]]]:
    """Find the records of FASTA bytes without holding them: ``(id, start,
    end, n)`` per record in order, where bytes ``start`` to ``end`` hold its
    sequence lines and n bases, or None when the input is not one that
    parse_fasta reads to the same records.

    ``read(at, size)`` returns up to size bytes from offset at; the input is
    read ``FASTA_BLOCK`` bytes at a time with plain bytes operations.  A line
    whose first byte other than space or tab is '>' is a header, and every
    other byte but whitespace is a base.  None means parse_fasta must decide:
    a non-ASCII byte, one of the ASCII bytes outside space, tab, CR and LF
    that parse_fasta reads as whitespace or a line break, a base before the
    first header, a record with no bases, or no record at all.
    """
    found = []
    rid, start, n = None, 0, 0  # the open record; before the first, n counts stray bases
    head = None  # the header line read so far, while one is open
    blank = True  # no base yet on the current line
    off = 0
    while True:
        b = read(off, FASTA_BLOCK)
        if not b:
            break
        if not b.isascii() or any(c in b for c in _OTHER_BREAKS):
            return None
        space = [bytes([c]) for c in _FASTA_SPACE if c in b]
        breaks = [c for c in (b"\n", b"\r") if c in space]
        i = 0
        while i < len(b):
            if head is not None:  # up to the header's line break
                e = len(b)
                for c in breaks:
                    x = b.find(c, i, e)
                    e = e if x < 0 else x
                head += b[i:e]
                if e < len(b):
                    rid, start, n, blank = head.strip().decode("ascii"), off + e, 0, True
                    head = None
                i = e
                continue
            p = b.find(b">", i)
            e = len(b) if p < 0 else p
            n += e - i
            r = -1
            for c in space:
                n -= b.count(c, i, e)
            for c in breaks:
                r = max(r, b.rfind(c, i, e))
            s = max(r + 1, i)  # the current line's bytes in this stretch
            blank = (blank or r >= 0) and not b[s:e].strip(b" \t")
            if p < 0:
                break
            if not blank:  # a '>' inside a line is a base
                n += 1
            elif rid is None and n or rid is not None and not n:
                return None  # a base before the first header, or an empty record
            else:  # a header: the open record ends here
                if rid is not None:
                    found.append((rid, start, off + p, n))
                head = b""
            i = p + 1
        off += len(b)
    if head is not None or rid is None or not n:
        return None  # a header with no bases after it, or no header
    found.append((rid, start, off, n))
    return found


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

    When :func:`scan_fasta` accepts the input, each record's bases are read
    again through :func:`fasta_bases` and mapped as they arrive: the input
    is never held whole.  Any other input is read whole, decoded as strict
    UTF-8 and parsed by :func:`parse_fasta`, and each record is mapped by
    :func:`map_to_sequence`; the text is dropped once it is parsed and each
    record once it is mapped.  Both give the same records, sequences and
    errors.
    """
    def read(at: int, size: int) -> bytes:
        src.seek(at)
        return src.read(size)

    index = scan_fasta(read)
    if index is None:
        src.seek(0)
        records = parse_fasta(src.read().decode("utf-8"))
        records.reverse()  # popped from the end: first record first
        while records:
            seq = map_to_sequence(records[-1], spec, strict=strict)
            yield records.pop().id, seq  # the record is dropped before the yield
            del seq  # before the next record is mapped
        return
    for rid, start, end, n in index:
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
        W = keep if W is None else W[keep]
        weights = np.diff(W)
        lo, hi = int(weights.min()), int(weights.max())
        return WeightedSequence(V[keep], W, value_scale=seq.value_scale,
                                weight_scale=seq.weight_scale, is_uniform=lo == hi == 1,
                                min_weight=lo, max_weight=hi)
    pv, pw = seq.prefix_value, seq.prefix_weight
    ends = [i for i in range(1, n) if (pv[i] - pv[i - 1]) * (pw[i + 1] - pw[i])
            != (pv[i + 1] - pv[i]) * (pw[i] - pw[i - 1])]
    return _merge_spans(seq, [0, *ends, n])


def _on_common_grid(column: List[Tuple[int, int]]) -> Tuple[Iterator[int], int]:
    """(units, places) pairs rescaled to the column's finest place count:
    the integers, streamed, and their shared power-of-ten scale."""
    top = max(places for _, places in column)
    factors = [10 ** (top - p) for p in range(top + 1)]
    return (units * factors[places] for units, places in column), 10 ** top


def parse_tsv(stream: Union[str, bytes, IO[str], IO[bytes], Iterable[str]]) -> WeightedSequence:
    """Weighted TSV: one "value<TAB>weight" item per line, '#' comments.

    Each column is scaled exactly onto one power-of-ten integer grid, the
    finest its fields need.  A field that is not a finite decimal, needs
    more than 9 decimal places or has more than 1000 integer digits, and a
    weight that is not positive, raise MalformedTsv with its line number;
    nothing is rounded.  Bytes and seekable binary files are read as UTF-8.

    Text, bytes or a binary file of at least ``fastpath.MIN_FAST_N`` lines
    is first read straight into prefix arrays by a byte-level grammar: ASCII
    only; tokens separated by space, tab or line feed (a CR only right
    before a LF); every line that is not blank or a '#' comment holds
    exactly two tokens of the form ``-?[0-9]+(.[0-9]+)?``, each with at most
    18 digits and SCALE_CAP_DIGITS fraction digits; positive weights; and
    every scaled item and prefix sum inside int64.  The input is read twice,
    ``TSV_CHUNK`` bytes at a time (text is encoded a chunk at a time), so
    beyond the two prefix columns (int32 while they fit) the array path
    holds O(TSV_CHUNK) scratch.  Input outside that grammar, and every other
    stream, takes the exact path, which gives the same sequence or raises
    the same error; it imports no numpy.
    """
    if isinstance(stream, bytes):
        stream = io.BytesIO(stream)  # shares the bytes: reads copy only what they return
    binary = hasattr(stream, "seek") and not isinstance(stream, io.TextIOBase)
    if binary or isinstance(stream, str) and stream.isascii():
        def read(at: int, size: int) -> bytes:
            if not binary:
                return stream[at:at + size].encode("ascii")
            stream.seek(at)
            return stream.read(size)
        lines = at = 0
        while block := read(at, TSV_CHUNK):
            lines += block.count(b"\n")
            at += len(block)
        if lines >= fastpath.MIN_FAST_N:
            seq = _tsv_to_arrays(read, lines)
            if seq is not None:
                return seq
    if binary:
        stream.seek(0)
        stream = stream.read().decode("utf-8")
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
            if weights[-1][0] <= 0:
                raise ValueError("weight must be > 0")
        except ValueError as exc:
            raise MalformedTsv(lineno, str(exc)) from None
    if not values:
        raise MalformedTsv(1, "no items found")
    vs, vscale = _on_common_grid(values)
    ws, wscale = _on_common_grid(weights)
    return build_sequence(zip(vs, ws), value_scale=vscale, weight_scale=wscale)


# Bytes of TSV input read at once; bounds the array path's scratch.  16 KiB
# took a third more CPU than 64 KiB to parse 2e6 rows (2-vCPU x86-64 host).
TSV_CHUNK = 1 << 16

# Byte classes of the array path: 0 is outside its grammar; TEXT may appear
# in comments only.
_SPACE, _DIGIT, _MINUS, _DOT, _HASH, _TEXT = 1, 2, 3, 4, 5, 6


def _tsv_to_arrays(read, lines: int) -> Optional[WeightedSequence]:
    """parse_tsv's array path over input of ``lines`` line feeds, read by
    ``read(at, size)``: the sequence, or None when the input leaves the
    grammar parse_tsv states."""
    import numpy as np

    table = np.zeros(256, dtype=np.int8)
    table[32:127] = _TEXT
    table[[9, 10, 13, 32]] = _SPACE
    table[48:58] = _DIGIT
    table[[45, 46, 35]] = _MINUS, _DOT, _HASH
    pow10 = 10 ** np.arange(19, dtype=np.int64)
    # The value and weight columns after a leading 0, at most one row per
    # line (the last may lack its line feed), filled a chunk at a time.
    cols = [np.zeros(lines + 2, dtype=np.int32) for _ in range(2)]
    tops, totals, rows = [0, 0], [0.0, 0.0], 0
    lo, hi = float("inf"), 0  # the least and greatest weight on the weight grid
    for chunk in _tsv_chunks(read):
        fields = _scan_tsv_chunk(table, pow10, np.frombuffer(chunk, np.uint8))
        if fields is None:
            return None
        r = rows + len(fields[0]) // 2
        if r == rows:  # blank and comment lines only
            continue
        for c, col in enumerate(cols):
            u, p = fields[0][c::2], fields[1][c::2]
            # the chunk's finest grid: places lowered while no digit there is nonzero
            top = int(p.max(initial=0))
            while top > tops[c] and not (u % pow10[np.maximum(p - top + 1, 0)]).any():
                top -= 1
            k = max(top - tops[c], 0)  # prefix sums are linear: scale those filled by 10**k
            tops[c] += k
            if (p != tops[c]).any():
                up = pow10[np.maximum(tops[c] - p, 0)]
                # No int64 product overflows below this float bound, and an
                # item past it would put the sum past 2**62 anyway.
                if np.multiply(np.abs(u), up, dtype=np.float64).max() >= 2.0 ** 63:
                    return None
                u = u * up
                u //= pow10[np.maximum(p - tops[c], 0)]  # exact: 1.50 -> 15
            # The sum of absolute items is exact below 2**53, so the int32
            # test is, and its float error is far below the 2**62 margin.
            totals[c] = totals[c] * 10 ** k + np.abs(u).sum(dtype=np.float64)
            if totals[c] >= 2.0 ** 62:
                return None
            if totals[c] >= 2 ** 31 and col.dtype == np.int32:  # widen once
                cols[c] = col = col.astype(np.int64)
            if k:
                col[1:rows + 1] *= 10 ** k
            out = col[rows + 1:r + 1]
            np.cumsum(u, dtype=col.dtype, out=out)
            out += col[rows]
            if c:
                lo, hi = min(lo * 10 ** k, int(u.min())), max(hi * 10 ** k, int(u.max()))
        rows = r
        del fields, u  # before the next chunk is scanned
    if not rows or lo <= 0:
        return None
    # Blank and comment lines leave rows unfilled: give their memory back.
    # No view of either column is used after this.
    for col in cols:
        col.resize(rows + 1, refcheck=False)
    return WeightedSequence(*cols, value_scale=10 ** tops[0], weight_scale=10 ** tops[1],
                            is_uniform=lo == hi == 1, min_weight=lo, max_weight=hi)


def _tsv_chunks(read) -> Iterator[bytes]:
    """The input read ``TSV_CHUNK`` bytes at a time, as chunks cut after a
    line feed; a last line without one gains it."""
    parts, at = [], 0
    while block := read(at, TSV_CHUNK):
        at += len(block)
        cut = block.rfind(b"\n") + 1
        parts.append(memoryview(block)[:cut] if cut else block)
        if cut:
            chunk, parts = b"".join(parts), [block[cut:]]
            del block  # only the chunk is held while it is scanned
            yield chunk
    if any(parts):
        yield b"".join(parts) + b"\n"


def _scan_tsv_chunk(table, pow10, b):
    """(units, places) of every field in b, bytes ending in a line feed, in
    reading order, or None when b leaves the grammar.  Beyond b's byte
    classes and a few byte masks, the scratch is per token: lines, dots and
    digits are found from token starts and ends."""
    import numpy as np

    c = table[b]
    cr = np.flatnonzero(b == 13)
    if not c.all() or (b[cr + 1] != 10).any():
        return None
    del cr
    tok = np.zeros(len(b) + 1, dtype=bool)  # tok[i + 1]: b[i] is in a token
    np.not_equal(c, _SPACE, out=tok[1:])
    starts = np.flatnonzero(tok[1:] > tok[:-1])
    ends = np.flatnonzero(tok[1:] < tok[:-1])  # b ends in a LF, so every token ends
    del tok
    lfs = np.flatnonzero(b == 10)
    opens = np.zeros(len(starts) + 1, dtype=bool)  # opens[t]: token t starts a line
    opens[np.searchsorted(starts, lfs)] = True  # the token after each LF; len(starts): none
    opens[0] = True  # b starts a line
    if (c == _HASH).any():  # blank the lines whose first token opens a comment
        note = starts[opens[:-1] & (b[starts] == 35)]
        span = np.zeros(len(b), dtype=np.int8)  # 1 from a comment's '#' to its LF
        span[note] = 1
        span[lfs[np.searchsorted(lfs, note)]] = -1
        np.add.accumulate(span, out=span)
        c[span.view(bool)] = _SPACE
        kept = span[starts] == 0  # whole lines go, so every kept token keeps its opens
        del span, note
        starts = starts[kept]
        ends = ends[kept]
        opens = np.append(opens[:-1][kept], True)
        del kept
    del lfs
    # Two tokens per line: even tokens open a line, odd ones do not.
    if (c > _DOT).any() or len(starts) % 2 or opens[1::2].any() or not opens[0::2].all():
        return None
    del opens
    # A minus only opens a field, right before a digit.
    neg = b[starts] == 45
    if np.count_nonzero(c == _MINUS) != np.count_nonzero(neg) \
            or (c[starts[neg] + 1] != _DIGIT).any():
        return None
    # At most one dot per field, between two digits.
    dot = c == _DOT
    if np.count_nonzero(dot) > len(starts):
        return None
    dots = np.flatnonzero(dot)
    del dot
    if (c[dots - 1] != _DIGIT).any() or (c[dots + 1] != _DIGIT).any():
        return None
    del c
    dot_tok = np.searchsorted(starts, dots, side="right")
    dot_tok -= 1
    if (dot_tok[1:] == dot_tok[:-1]).any():
        return None
    frac = ends[dot_tok]  # the digits after each dot
    frac -= dots
    del dots
    frac -= 1
    if (frac > SCALE_CAP_DIGITS).any():
        return None
    places = np.zeros(len(starts), dtype=np.int8)
    places[dot_tok] = frac
    del dot_tok, frac
    ndig = ends - starts
    ndig -= neg
    ndig -= places > 0
    if (ndig > 18).any():
        return None
    most = int(ndig.max(initial=0))
    del ndig
    # Horner from each field's last digit leftwards, one power of ten per
    # pass: pos steps over the dot and stops at the byte before the first
    # digit, a minus or a separator, which sorts below '0' and reads as 0.
    pos, low = ends, starts
    pos -= 1
    low += neg
    low -= 1
    units = np.zeros(len(pos), dtype=np.int64)
    for k in range(most):
        d = np.subtract(b[pos], 48, dtype=np.int64)
        np.maximum(d, 0, out=d)
        d *= pow10[k]
        units += d
        del d
        pos -= 1
        pos -= places == k + 1
        np.maximum(pos, low, out=pos)
    np.negative(units, out=units, where=neg)
    return units, places
