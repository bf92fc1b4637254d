"""The array path of :func:`maxseg.bio.parse_tsv`: TSV chunks scanned with
numpy straight into int32 or int64 prefix columns.  parse_tsv imports this
module, and with it numpy, only for input of at least ``fastpath.MIN_FAST_N``
lines, so a FASTA or a short TSV input does not compile it.
"""

from typing import Iterable, Optional

import numpy as np

from .core import SCALE_CAP_DIGITS, WeightedSequence

# Byte classes of the array path: 0 is outside its grammar; TEXT may appear
# in comments only.
_SPACE, _DIGIT, _MINUS, _DOT, _HASH, _TEXT = 1, 2, 3, 4, 5, 6


def tsv_to_arrays(chunks: Iterable[bytes], lines: int) -> Optional[WeightedSequence]:
    """parse_tsv's array path over input of ``lines`` line ends, which
    arrive as chunks that each end in a line end: the sequence, or None for
    input outside its part of parse_tsv's grammar: fields of at most 18
    digits and SCALE_CAP_DIGITS written places, and sums inside int64."""
    table = np.zeros(256, dtype=np.int8)
    table[32:127] = _TEXT
    table[[9, 10, 13, 32]] = _SPACE
    table[48:58] = _DIGIT
    table[[45, 46, 35]] = _MINUS, _DOT, _HASH
    pow10 = 10 ** np.arange(19, dtype=np.int64)
    # The value and weight columns after a leading 0, at most one row per
    # line (the last may lack its line end), filled a chunk at a time.
    cols = [np.zeros(lines + 2, dtype=np.int32) for _ in range(2)]
    tops, totals, rows = [0, 0], [0.0, 0.0], 0
    for chunk in chunks:
        if not chunk.isascii():  # only comments may hold such bytes, in UTF-8
            try:
                chunk.decode()
            except UnicodeDecodeError:
                return None
        fields = _scan_tsv_chunk(table, pow10, np.frombuffer(chunk, np.uint8))
        if fields is None:
            return None
        r = rows + len(fields[0]) // 2
        if r == rows:  # blank and comment lines only
            continue
        for c, col in enumerate(cols):
            u, p = fields[0][c::2], fields[1][c::2]
            if c and u.min() <= 0:  # the line path names the line of the weight
                return None
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
        rows = r
        del fields, u  # before the next chunk is scanned
    if not rows:
        return None
    # Blank and comment lines leave rows unfilled: give their memory back.
    # No view of either column is used after this.
    for col in cols:
        col.resize(rows + 1, refcheck=False)
    return WeightedSequence(*cols, value_scale=10 ** tops[0], weight_scale=10 ** tops[1])


def _scan_tsv_chunk(table, pow10, b):
    """(units, places) of every field in b, bytes ending in a line end, in
    reading order, or None when b leaves the grammar (bytes past ASCII in
    comments are left to the caller).  Beyond b's byte classes and a few
    byte masks, the scratch is per token: lines, dots and digits are found
    from token starts and ends."""
    c = table[b]
    tok = np.zeros(len(b) + 1, dtype=bool)  # tok[i + 1]: b[i] is in a token
    np.not_equal(c, _SPACE, out=tok[1:])
    starts = np.flatnonzero(tok[1:] > tok[:-1])
    ends = np.flatnonzero(tok[1:] < tok[:-1])  # b ends in a line end, so every token ends
    del tok
    eols = np.flatnonzero((b == 10) | (b == 13))  # a CRLF ends a line and an empty one
    opens = np.zeros(len(starts) + 1, dtype=bool)  # opens[t]: token t starts a line
    opens[np.searchsorted(starts, eols)] = True  # the token after each line end; len(starts): none
    opens[0] = True  # b starts a line
    if (c == _HASH).any():  # blank the lines whose first token opens a comment
        note = starts[opens[:-1] & (b[starts] == 35)]
        span = np.zeros(len(b), dtype=np.int8)  # 1 from a comment's '#' to its line end
        span[note] = 1
        span[eols[np.searchsorted(eols, note)]] = -1
        np.add.accumulate(span, out=span)
        c[span.view(bool)] = _SPACE
        kept = span[starts] == 0  # whole lines go, so every kept token keeps its opens
        del span, note
        starts = starts[kept]
        ends = ends[kept]
        opens = np.append(opens[:-1][kept], True)
        del kept
    del eols
    # Two tokens per line: even tokens open a line, odd ones do not.
    if not c.all() or (c > _DOT).any() or len(starts) % 2 or opens[1::2].any() \
            or not opens[0::2].all():
        return None
    del opens
    # A minus only opens a field, right before a digit.
    neg = b[starts] == 45
    if np.count_nonzero(c == _MINUS) != np.count_nonzero(neg) \
            or (c[starts[neg] + 1] != _DIGIT).any():
        return None
    # At most one dot per field, between two digits.
    dots = np.flatnonzero(c == _DOT)
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
