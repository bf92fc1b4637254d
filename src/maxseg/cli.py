"""Command-line front end: find segments, verify against the oracle, bench.

`find` checks its flags, then opens its input once as a binary file that
can seek, for :func:`maxseg.bio.read_fasta` or :func:`maxseg.bio.parse_tsv`.
`verify` and `bench` run from :mod:`maxseg.dev`, imported only for them.

Exit codes: 0 success, 1 parse/numeric error, 2 no feasible segment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import math
import os
import sys
from fractions import Fraction
from typing import IO, Iterator, List, NamedTuple, Optional, Tuple

from .bio import MappingSpec, compress_runs, parse_tsv, read_fasta
from .core import (
    WeightedSequence,
    compute_bounds,
    decimal_units,
    density_decimal_str,
    format_scaled,
)
from .errors import InfeasibleWidthWindow, MaxsegError
from .solvers import SolveRequest, solve


def _parse_bound(text: str, flag: str) -> Fraction:
    """The exact value of a width bound's text, which may carry any number
    of decimal places."""
    try:
        units, places = decimal_units(text.encode(errors="surrogateescape"))
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None
    return Fraction(units, 10 ** places)


def _parse_int(text: str, flag: str) -> int:
    """An integer flag's value: ASCII ``-?[0-9]+``, read by :func:`decimal_units`."""
    raw = text.encode(errors="surrogateescape")
    with contextlib.suppress(ValueError):
        if b"." not in raw:
            return decimal_units(raw)[0]
    raise ValueError(f"{flag}: expected an integer, got {text!r}")


def _open_input(path: str):
    """The input as a binary file that can seek, for a with statement: a
    file that can seek where it lies (stdin at its start is read in place
    and left open), anything else (a pipe, a FIFO) copied 64 KiB at a time
    into a temporary file.  An in-memory text stdin is UTF-8; a closed one is refused."""
    if path == "-" and sys.stdin is None:
        raise ValueError("--input -: stdin is closed")
    if path == "-" and not hasattr(sys.stdin, "buffer"):  # its text is in memory already
        return io.BytesIO(sys.stdin.read().encode())
    src = sys.stdin.buffer if path == "-" else open(path, "rb")
    if src.seekable() and src.tell() == 0:  # a file, or stdin redirected from one
        return contextlib.nullcontext(src) if path == "-" else src
    import shutil
    import tempfile

    spool = tempfile.TemporaryFile()
    try:
        shutil.copyfileobj(src, spool)
    except OSError:
        spool.close()
        raise
    finally:
        if path != "-":
            src.close()
    spool.seek(0)
    return spool


# ---------------------------------------------------------------------------
# find
# ---------------------------------------------------------------------------

REPORT_HEADER = "record_id\tstart\tend\twidth\tsum\tdensity"


class SegmentReport(NamedTuple):
    """One output row of `find`: indices are 1-based inclusive, width and sum
    are rendered in user units, density to 9 decimal places (or exactly as
    sum/width under --exact)."""

    record_id: str
    start: int
    end: int
    width: str
    sum: str
    density: str

    @classmethod
    def from_segment(cls, record_id, seq, seg, exact: bool) -> "SegmentReport":
        width_txt = format_scaled(seg.width, seq.weight_scale)
        sum_txt = format_scaled(seg.sum, seq.value_scale)
        if exact:
            dens_txt = f"{sum_txt}/{width_txt}"
        else:
            dens_txt = density_decimal_str(
                seg.sum, seg.width, seq.value_scale, seq.weight_scale
            )
        return cls(record_id, seg.start, seg.end, width_txt, sum_txt, dens_txt)

    def line(self) -> str:
        return (f"{self.record_id}\t{self.start}\t{self.end}"
                f"\t{self.width}\t{self.sum}\t{self.density}")


def _dump_structures(seq: WeightedSequence, L_scaled, err: IO[str]) -> None:
    from .sweep_left import initialize_min_width
    from .sweep_right import initialize_max_width

    total = seq.prefix_weight[seq.n]
    bounds = compute_bounds(seq, min(L_scaled, total), total)
    initialize_min_width(seq, 1, seq.n, bounds).dump_tsv(err)
    initialize_max_width(seq, 1, seq.n, bounds).dump_tsv(err)


def _load_records(args) -> Iterator[Tuple[str, WeightedSequence]]:
    """Yield (record id, sequence) one record at a time, as
    :func:`maxseg.bio.read_fasta` yields FASTA records, or the one TSV
    sequence.  The flags are checked before the input is opened, so a flag
    error comes before any input error."""
    if args.format == "tsv":
        if args.mapping != "gc":
            raise ValueError("--mapping applies to FASTA input only")
        if args.strict:
            raise ValueError("--strict applies to FASTA input only")
    elif args.mapping == "gc":
        spec = MappingSpec.gc01()
    elif args.mapping.startswith("huang:"):
        spec = MappingSpec.huang(args.mapping.split(":", 1)[1])
    else:
        raise ValueError(f"--mapping: expected 'gc' or 'huang:P', got {args.mapping!r}")
    with _open_input(args.input) as src:
        if args.format == "fasta":
            yield from read_fasta(src, spec, args.strict)
        else:
            yield "r1", parse_tsv(src)


def cmd_find(args, out: IO[str], err: IO[str]) -> int:
    L = _parse_bound(args.L, "--L")
    if L <= 0:
        raise ValueError(f"--L must be positive, got {args.L}")
    U: Optional[Fraction] = None
    if args.U != "max":
        U = _parse_bound(args.U, "--U")
        if U < L:
            raise ValueError(f"need L <= U, got L={args.L} U={args.U}")

    rows: List[str] = []
    notes: List[str] = []
    for rid, seq in _load_records(args):
        if args.compress:
            seq = compress_runs(seq)
        # Widths are whole multiples of 1/ws, so these admit the widths [L, U] does.
        ws = seq.weight_scale
        L_scaled = math.ceil(L * ws)
        U_scaled = None if U is None else math.floor(U * ws)
        try:
            if U_scaled is not None and U_scaled < L_scaled:
                raise InfeasibleWidthWindow(
                    f"no width on the grid of 1/{ws} lies in [{args.L}, {args.U}]")
            seg = solve(SolveRequest(seq, L_scaled, U_scaled))
        except InfeasibleWidthWindow as exc:
            notes.append(f"record {rid!r}: InfeasibleWidthWindow: {exc}\n")
        else:
            rows.append(SegmentReport.from_segment(rid, seq, seg, args.exact).line())
        if args.debug_dump:
            err.write(f"# record {rid!r}\n")
            _dump_structures(seq, L_scaled, err)
        del seq  # release this record's sequence before the next one is mapped

    # Rows are written only once every record has been read, so an input
    # error in a later record leaves stdout empty.
    out.write(REPORT_HEADER + "\n")
    for row in rows:
        out.write(row + "\n")
    err.writelines(notes)
    return 2 if notes else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxseg",
        description="Find maximum-density segments of weighted sequences "
        "under width bounds [L, U].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_find = sub.add_parser("find", help="solve records from FASTA or weighted TSV")
    p_find.add_argument("--input", required=True, help="path or '-' for stdin")
    p_find.add_argument("--format", required=True, choices=["fasta", "tsv"])
    p_find.add_argument("--mapping", default="gc",
                        help="fasta scoring: 'gc' or 'huang:P' (default gc)")
    p_find.add_argument("--L", required=True, help="minimum width (decimal)")
    p_find.add_argument("--U", default="max", help="maximum width (decimal) or 'max'")
    p_find.add_argument("--compress", action="store_true",
                        help="merge equal-density runs before solving")
    p_find.add_argument("--strict", action="store_true",
                        help="reject unknown nucleotide symbols")
    p_find.add_argument("--exact", action="store_true",
                        help="print density as exact 'sum/width'")
    p_find.add_argument("--debug-dump", action="store_true",
                        help="dump sweep-structure tables to stderr")

    p_verify = sub.add_parser("verify", help="differential-test the solver "
                              "against the brute-force oracle")
    p_verify.add_argument("--seeds", default="1000")
    p_verify.add_argument("--max-n", default="200")
    p_verify.add_argument("--model", choices=["uniform", "general"], default="uniform")
    p_verify.add_argument("--L-U", dest="L_U", default="random",
                          help="'random' or 'fixed:L,U'")
    p_verify.add_argument("--seed", default="0", help="base seed")

    p_bench = sub.add_parser("bench", help="time the pure sweep solvers and "
                             "report loop-iteration counters as CSV")
    p_bench.add_argument("--sizes", required=True, help="comma list, e.g. 1e5,2e5")
    p_bench.add_argument("--algo", required=True,
                         choices=["l-only", "uniform-lu", "general-lu"])
    p_bench.add_argument("--repeat", default="1")
    p_bench.add_argument("--seed", default="0")
    p_bench.add_argument("--L")
    p_bench.add_argument("--U")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    err = sys.stderr
    try:
        if args.command == "find":
            return cmd_find(args, out, err)
        from . import dev

        for name in ("seeds", "max_n", "seed", "repeat", "L", "U"):  # integer flags
            if getattr(args, name, None) is not None:
                setattr(args, name, _parse_int(getattr(args, name), "--" + name.replace("_", "-")))
        if args.command == "verify":
            return dev.cmd_verify(args, out, err)
        return dev.cmd_bench(args, out, err)
    except (MaxsegError, ValueError, OSError) as exc:
        err.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


def run() -> int:
    """Entry point of ``python -m maxseg`` and the ``maxseg`` script.

    maxseg calls no BLAS routine, so unless the caller has set it, OpenBLAS
    gets one thread: numpy, first imported inside :func:`main`, then starts
    no worker thread that would spin on another core.  Once :func:`main`
    returns, every live object is frozen so that interpreter exit skips a
    full garbage collection over numpy and the records."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
