"""The array path of :func:`maxseg.bio.parse_tsv`: TSV chunks scanned with
numpy straight into int32 or int64 prefix columns.  parse_tsv imports this
module, and with it numpy, only for input of at least ``fastpath.MIN_FAST_N``
lines, so a FASTA or a short TSV input does not compile it.

A chunk is read as structural-index parsers read text (Langdale & Lemire,
"Parsing Gigabytes of JSON per Second", 2019; Lemire, "Number Parsing at a
Gigabyte per Second", 2021): a mask of its structure first, then the
numbers.

- One ``bytes.translate`` gives every byte a code: 0 for a blank or a line
  end, so tokens are the runs of nonzero codes, whose starts and ends come
  from one ``flatnonzero`` of the mask's edges.
- A token opens a line when the gap of blanks and line ends before it
  holds a line end.  The gap's first and last bytes tell, unless it has
  three or more bytes and neither of those is a line end; only then are
  the line ends searched.
- A line whose first token starts with '#' is a comment: its tokens are
  dropped, a token at a time.
- Each column's fields are then read in one walk, a byte of every field per
  step, right-aligned to the column's longest field: a Horner sum of the
  digits, with the dot read as a 0, and three bits per byte that say
  whether it is a digit, a dot or neither.  Those bits reject any byte that
  is not a digit or a single interior dot, and place the dot.

The traced scratch stays within a few chunks however long the input is:
the chunk, its codes, its int32 token edges, and per column a few arrays of
one entry per field: int64 positions and uint32 or uint64 sums.
"""

from typing import Iterable, Union

import numpy as np

from .core import SCALE_CAP_DIGITS, WeightedSequence

# Byte codes: 0 for a blank or a line end, 16 + d for the digit d, 32 for
# a dot and 64 for any other byte.  A code's low four bits are its digit
# value, and code >> 4 is 1 for a digit, 2 for a dot and 4 otherwise.
_CODES = bytes(0 if c in b"\t\n\r " else 16 + c - 48 if 48 <= c < 58 else 32 if c == 46
               else 64 for c in range(256))

# A field has at most 19 bytes after its sign: 18 digits and a dot.
_MOST = 19


def _tables(dtype):
    """The walk's tables in dtype, indexed by s, a field's bytes after its
    sign, which the walk keeps in three-bit slots, the last byte in the
    lowest: the low bits of s slots (all ones for s = 0, so that no field
    without a digit is accepted), the low bits of the first and the last of
    them, and 10**s."""
    top = np.iinfo(dtype).max
    full = [top] + [(8 ** s - 1) // 7 & top for s in range(1, _MOST + 1)]
    ends = [0] + [(1 | 8 ** (s - 1)) & top for s in range(1, _MOST + 1)]
    return [np.array(t, dtype) for t in (full, ends, [10 ** s & top for s in range(_MOST + 1)])]


# Fields of at most 9 bytes fit uint32 slots and sums: they take half the
# memory traffic and numpy's vector multiply.
_TABLES = {np.dtype(t): _tables(t) for t in (np.uint32, np.uint64)}


def tsv_to_arrays(chunks: Iterable[bytes], lines: int) -> Union[WeightedSequence, int]:
    """parse_tsv's array path over input of ``lines`` line ends, which
    arrive as chunks that each end in a line end: the sequence or, for
    input outside its part of parse_tsv's grammar, the byte offset of the
    first chunk it refused (0 when it refused the input as a whole).  Its
    part: fields of at most 18 digits and SCALE_CAP_DIGITS written places,
    and sums inside int64."""
    pow10 = 10 ** np.arange(19, dtype=np.int64)
    # The value and weight columns after a leading 0, at most one row per
    # line (the last may lack its line end), filled a chunk at a time.
    cols = [np.zeros(lines + 2, dtype=np.int32) for _ in range(2)]
    tops, totals, rows, end = [0, 0], [0.0, 0.0], 0, 0
    for chunk in chunks:
        at, end = end, end + len(chunk)
        if not chunk.isascii():  # only comments may hold such bytes, in UTF-8
            try:
                chunk.decode()
            except UnicodeDecodeError:
                return at
        fields = _scan_tsv_chunk(chunk)
        if fields is None:
            return at
        r = rows
        for c, (col, field) in enumerate(zip(cols, fields)):
            if field is None:
                return at
            u, p, neg = field
            del field
            if c and (neg is not None or u.min() == 0):  # the line path names the weight's line
                return at
            r = rows + len(u)
            # the chunk's finest grid: places lowered while no digit there is nonzero
            top = int(p.max())
            while top > tops[c] and not (u % pow10[np.maximum(p - top + 1, 0)]).any():
                top -= 1
            k = max(top - tops[c], 0)  # prefix sums are linear: scale those filled by 10**k
            tops[c] += k
            if (p != tops[c]).any():
                up = pow10[np.maximum(tops[c] - p, 0)]
                # No int64 product overflows below this float bound, and an
                # item past it would put the sum past 2**62 anyway.
                if np.multiply(u, up, dtype=np.float64).max() >= 2.0 ** 63:
                    return at
                u = u * up
                u //= pow10[np.maximum(p - tops[c], 0)]  # exact: 1.50 -> 15
            # The sum of the items' absolute values is exact below 2**53, so
            # the int32 test is, and its float error is far below the 2**62
            # margin.
            totals[c] = totals[c] * 10 ** k + u.sum(dtype=np.float64)
            if totals[c] >= 2.0 ** 62:
                return at
            if totals[c] >= 2 ** 31 and col.dtype == np.int32:  # widen once
                cols[c] = col = col.astype(np.int64)
            if k:
                col[1:rows + 1] *= 10 ** k
            if neg is not None:  # the sign goes on with one multiply
                u = u * (1 - 2 * neg.view(np.int8))
            out = col[rows + 1:r + 1]
            np.cumsum(u, dtype=col.dtype, out=out)
            out += col[rows]
            del u  # before the next column is read
        rows = r
        del fields  # before the next chunk is scanned
    if not rows:
        return 0
    # Blank and comment lines leave rows unfilled: give their memory back.
    # No view of either column is used after this.
    for col in cols:
        col.resize(rows + 1, refcheck=False)
    return WeightedSequence(*cols, value_scale=10 ** tops[0], weight_scale=10 ** tops[1])


def _scan_tsv_chunk(chunk: bytes):
    """The two columns of chunk, bytes that end in a line end, as an
    iterator that reads each only when asked for; or None when chunk's lines
    leave the grammar (bytes past ASCII in comments are left to the
    caller).  See :func:`_read_column` for what each column is."""
    b = np.frombuffer(chunk, np.uint8)
    code = np.frombuffer(chunk.translate(_CODES), np.uint8)
    tok = np.empty(len(b) + 1, dtype=bool)  # tok[i + 1]: byte i is in a token
    tok[0] = False
    np.not_equal(code, 0, out=tok[1:])
    edges = np.flatnonzero(tok[1:] != tok[:-1])  # chunk ends in a line end, so every token ends
    del tok
    edges = edges.astype(np.int32)  # half the scratch; gathers index with int64 copies
    starts, ends = edges[0::2], edges[1::2]
    del edges
    # Token t > 0 opens a line when the gap of blanks and line ends before
    # it holds a line end.  A gap's first and last bytes tell when it has at
    # most two; of 9, 10, 13 and 32 only 10 and 13 have a bit of 6 set.
    opens = np.ones(len(starts), dtype=bool)
    after = ends[:-1].astype(np.int64)  # each gap's first byte
    gap = b[after]
    after -= starts[1:]
    gap |= b[np.subtract(starts[1:], 1, dtype=np.int64)]
    gap &= 6
    np.not_equal(gap, 0, out=opens[1:])
    del gap
    if ((after < -2) & ~opens[1:]).any():  # a line end may lie between blanks
        eols = np.flatnonzero((b == 10) | (b == 13))
        np.not_equal(np.searchsorted(eols, starts[1:]), np.searchsorted(eols, ends[:-1]),
                     out=opens[1:])
        del eols
    del after
    if b"#" in chunk:  # drop the lines whose first token opens a comment
        kept = b[starts[opens].astype(np.int64)] != 35  # per line
        if not kept.all():
            kept = kept[np.cumsum(opens) - 1]  # per token
            starts, ends, opens = starts[kept], ends[kept], opens[kept]
        del kept
    # Two tokens per line: even tokens open a line, odd ones do not.
    if len(starts) % 2 or not opens[0::2].all() or opens[1::2].any():
        return None
    if not len(starts):
        return ()
    return (_read_column(code, b, starts[c::2], ends[c::2]) for c in range(2))


def _read_column(code, b, starts, ends):
    """(units, places, neg) of the fields from starts to ends (exclusive):
    their absolute values in units of 10**-places, an int64 array and an
    int8 array or, when all fields have the same places, one int8; and
    where they are negative, a bool array, or None when none is.  None when
    a field is not ``-?[0-9]+(.[0-9]+)?`` of at most 18 digits and
    SCALE_CAP_DIGITS places."""
    lo = starts.astype(np.int64)
    neg = b[lo] == 45
    lo += neg  # the byte before a field's first digit: a blank, a line end or '-'
    lo -= 1
    hi = np.subtract(ends, 1, dtype=np.int64)  # its last byte
    size = hi - lo
    most = int(size.max())
    if most > _MOST:
        return None
    dtype = np.dtype(np.uint32 if most < 10 else np.uint64)
    full, edge, pow10 = _TABLES[dtype]
    # Each field's bytes are read from the left, right-aligned at hi, one
    # per step: a Horner sum of their digits, and three bits each, code >>
    # 4.  Bytes at or before lo, read while a field has not started, add
    # nothing to the sum, and bits only above the field's.
    units = np.zeros(len(lo), dtype=dtype)
    kinds = np.zeros(len(lo), dtype=dtype)
    ten, three, one = dtype.type(10), dtype.type(3), dtype.type(1)
    hi -= most - 1  # the byte each field is read from
    pos = np.maximum(hi, lo)
    for k in range(1, most + 1):
        c = code[pos]
        units *= ten
        units += c & 15
        c >>= 4
        kinds <<= three
        kinds |= c
        if k < most:
            np.add(hi, k, out=pos)
            np.maximum(pos, lo, out=pos)
    del lo, hi, pos
    # Every byte a digit or a dot, at most one dot, and none first or last.
    dots = kinds >> one
    kinds |= dots
    kinds &= full[most]
    dots &= full[most]
    if (kinds != full[size]).any() or (dots & edge[size]).any() or (dots & (dots - one)).any():
        return None
    del kinds
    if most == _MOST and ((size == _MOST) & (dots == 0)).any():  # 19 digits
        return None
    # A lone dot in slot p is 8**p, 2**(3p).  The dot was read as a digit
    # 0: with h the digits before it, units read h * 10**(p + 1) + the rest
    # and are h * 10**p + the rest.
    if (dots == dots[0]).all():  # one place count for the column
        places = np.int8(int(dots[0]).bit_length() // 3)
    else:
        places = (np.frexp(dots)[1] // 3).astype(np.int8)
    if places.max() > SCALE_CAP_DIGITS:
        return None
    if places.ndim:
        units -= units // pow10[np.where(dots != 0, places + 1, most)] * (9 * pow10[places])
    elif places:
        units -= units // pow10[places + 1] * (9 * pow10[places])
    return units.astype(np.int64), places, (neg if neg.any() else None)

