"""Command-line front end: find segments, verify against the oracle, bench.

Exit codes: 0 success, 1 parse/numeric error, 2 no feasible segment.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from typing import IO, Iterator, List, Optional, Tuple

from .bio import MappingSpec, compress_runs, map_to_sequence, parse_fasta, parse_tsv
from .core import (
    MAX_INTEGER_DIGITS,
    SCALE_CAP_DIGITS,
    OpCounters,
    WeightedSequence,
    build_sequence,
    compute_bounds,
    density_decimal_str,
    finite_decimal,
    format_scaled,
)
from .errors import InfeasibleWidthWindow, MaxsegError
from .oracle import brute_force_best
from .solvers import (
    SolveRequest,
    max_density_general,
    max_density_min_width,
    max_density_uniform,
    solve,
)
from .sweep_left import initialize_min_width
from .sweep_right import initialize_max_width


def _parse_bound(text: str, flag: str) -> Decimal:
    try:
        return finite_decimal(text)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _snap(bound: Decimal, scale: int, rounding: str) -> int:
    """bound * scale rounded to an integer in direction `rounding`, exactly:
    widths are whole multiples of 1/scale, so ceil(L * scale) and
    floor(U * scale) admit the same widths as [L, U].  Rounding the product
    the same way at a precision above its integer digits keeps it exact."""
    ctx = Context(prec=MAX_INTEGER_DIGITS + 2 * SCALE_CAP_DIGITS, rounding=rounding)
    return int(ctx.multiply(bound, scale).to_integral_value(rounding=rounding))


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# find
# ---------------------------------------------------------------------------

REPORT_HEADER = "record_id\tstart\tend\twidth\tsum\tdensity"


@dataclass(frozen=True)
class SegmentReport:
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


def _mapping_from_flag(text: str) -> MappingSpec:
    if text == "gc":
        return MappingSpec.gc01()
    if text.startswith("huang:"):
        return MappingSpec.huang(text.split(":", 1)[1])
    raise ValueError(f"--mapping: expected 'gc' or 'huang:P', got {text!r}")


def _dump_structures(seq: WeightedSequence, L_scaled, err: IO[str]) -> None:
    total = seq.prefix_weight[seq.n]
    bounds = compute_bounds(seq, min(L_scaled, total), total)
    initialize_min_width(seq, 1, seq.n, bounds).dump_tsv(err)
    initialize_max_width(seq, 1, seq.n, bounds).dump_tsv(err)


def _load_records(args) -> Iterator[Tuple[str, WeightedSequence]]:
    """Yield (record id, sequence) one record at a time: FASTA records are
    mapped only when asked for, so a caller that drops each sequence before
    the next holds one at a time."""
    text = _read_input(args.input)
    if args.format == "tsv":
        if args.mapping != "gc":
            raise ValueError("--mapping applies to FASTA input only")
        if args.strict:
            raise ValueError("--strict applies to FASTA input only")
        yield "r1", parse_tsv(text)
        return
    spec = _mapping_from_flag(args.mapping)
    records = parse_fasta(text)
    del text
    for rec in records:
        yield rec.id, map_to_sequence(rec, spec, strict=args.strict)


def cmd_find(args, out: IO[str], err: IO[str]) -> int:
    L_dec = _parse_bound(args.L, "--L")
    if L_dec <= 0:
        raise ValueError(f"--L must be positive, got {L_dec}")
    U_dec: Optional[Decimal] = None
    if args.U != "max":
        U_dec = _parse_bound(args.U, "--U")
        if U_dec < L_dec:
            raise ValueError(f"need L <= U, got L={L_dec} U={U_dec}")

    rows: List[str] = []
    notes: List[str] = []
    for rid, seq in _load_records(args):
        if args.compress:
            seq = compress_runs(seq)
        ws = seq.weight_scale
        L_scaled = _snap(L_dec, ws, ROUND_CEILING)
        U_scaled = None if U_dec is None else _snap(U_dec, ws, ROUND_FLOOR)
        try:
            if U_scaled is not None and U_scaled < L_scaled:
                raise InfeasibleWidthWindow(
                    f"no width on the grid of 1/{ws} lies in [{L_dec}, {U_dec}]")
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
# verify
# ---------------------------------------------------------------------------


def random_uniform_instance(rng: random.Random, max_n: int):
    """Unit weights, values in 0..9, random 1 <= L <= U <= n."""
    n = rng.randint(1, max_n)
    seq = build_sequence([(rng.randint(0, 9), 1) for _ in range(n)])
    L = rng.randint(1, n)
    U = rng.randint(L, n)
    return seq, L, U


def random_general_instance(rng: random.Random, max_n: int):
    """Weights in 1..5, values in -9..9, random L <= U <= total width."""
    n = rng.randint(1, max_n)
    seq = build_sequence([(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)])
    total = seq.prefix_weight[n]
    L = rng.randint(1, total)
    U = rng.randint(L, total)
    return seq, L, U


def _verify_one(seed: int, model: str, max_n: int, fixed_lu) -> Tuple[bool, str]:
    rng = random.Random(seed)
    if model == "uniform":
        seq, L, U = random_uniform_instance(rng, max_n)
    else:
        seq, L, U = random_general_instance(rng, max_n)
    if fixed_lu is not None:
        L, U = fixed_lu
    try:
        seg = solve(SolveRequest(seq, L, U))
        got = (seg.start, seg.end, seg.density)
    except InfeasibleWidthWindow:
        got = None
    try:
        seg = brute_force_best(seq, L, U)
        want = (seg.start, seg.end, seg.density)
    except InfeasibleWidthWindow:
        want = None
    if got is None or want is None:
        ok = got is None and want is None
        return ok, "feasibility mismatch" if not ok else ""
    if got != want:
        return False, f"(start, end, density) {got!r} != oracle {want!r}"
    return True, ""


def cmd_verify(args, out: IO[str], err: IO[str]) -> int:
    fixed_lu = None
    if args.L_U != "random":
        msg = f"--L-U: expected 'random' or 'fixed:L,U' with integers 0 < L <= U, got {args.L_U!r}"
        if not args.L_U.startswith("fixed:"):
            raise ValueError(msg)
        try:
            L_txt, U_txt = args.L_U[len("fixed:"):].split(",")
            fixed_lu = (int(L_txt), int(U_txt))
        except ValueError:
            raise ValueError(msg) from None
        if not 0 < fixed_lu[0] <= fixed_lu[1]:
            raise ValueError(msg)
    passed = 0
    first_bad: Optional[int] = None
    detail = ""
    for t in range(args.seeds):
        seed = args.seed + t
        ok, why = _verify_one(seed, args.model, args.max_n, fixed_lu)
        if ok:
            passed += 1
        elif first_bad is None:
            first_bad = seed
            detail = why
    out.write(f"{passed}/{args.seeds} pass\n")
    if first_bad is not None:
        out.write(f"first counterexample: seed={first_bad} ({detail})\n")
        return 1
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _bench_sizes(text: str) -> List[int]:
    sizes = []
    for part in text.split(","):
        try:
            size = float(part)
        except ValueError:
            size = 0.0  # refused below
        if not (size.is_integer() and size >= 1):  # inf and NaN are not integers
            raise ValueError(f"--sizes: expected whole numbers >= 1, got {part.strip()!r}")
        sizes.append(int(size))
    return sizes


def _bench_instance(rng: random.Random, n: int, algo: str) -> WeightedSequence:
    if algo == "general-lu":
        return build_sequence([(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(n)])
    return build_sequence([(rng.randint(0, 9), 1) for _ in range(n)])


def bench_once(seq: WeightedSequence, algo: str, L: int, U: int) -> Tuple[int, int]:
    """One timed run of a pure sweep; returns (wall nanoseconds, loop iterations)."""
    counters = OpCounters()
    t0 = time.perf_counter_ns()
    if algo == "l-only":
        max_density_min_width(seq, L, counters=counters)
    elif algo == "uniform-lu":
        max_density_uniform(seq, L, U, counters=counters)
    elif algo == "general-lu":
        max_density_general(seq, L, U, counters=counters)
    else:
        raise ValueError(f"unknown algo {algo!r}")
    t1 = time.perf_counter_ns()
    return t1 - t0, counters.total()


def cmd_bench(args, out: IO[str], err: IO[str]) -> int:
    sizes = _bench_sizes(args.sizes)
    if args.repeat < 1:
        raise ValueError(f"--repeat: expected at least 1, got {args.repeat}")
    out.write("algo,n,L,U,wall_nanos,loop_iterations\n")
    for n in sizes:
        rng = random.Random(args.seed)
        seq = _bench_instance(rng, n, args.algo)
        L = args.L if args.L is not None else max(1, n // 100)
        U = args.U if args.U is not None else min(seq.prefix_weight[n], max(L, 50 * L))
        u_txt = "max" if args.algo == "l-only" else str(U)
        walls = []
        iters = 0
        for _ in range(args.repeat):
            wall, iters = bench_once(seq, args.algo, L, U)
            walls.append(wall)
        wall_med = int(statistics.median(walls))
        out.write(f"{args.algo},{n},{L},{u_txt},{wall_med},{iters}\n")
    return 0


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
    p_verify.add_argument("--seeds", type=int, default=1000)
    p_verify.add_argument("--max-n", type=int, default=200)
    p_verify.add_argument("--model", choices=["uniform", "general"], default="uniform")
    p_verify.add_argument("--L-U", dest="L_U", default="random",
                          help="'random' or 'fixed:L,U'")
    p_verify.add_argument("--seed", type=int, default=0, help="base seed")

    p_bench = sub.add_parser("bench", help="time the pure sweep solvers and "
                             "report loop-iteration counters as CSV")
    p_bench.add_argument("--sizes", required=True, help="comma list, e.g. 1e5,2e5")
    p_bench.add_argument("--algo", required=True,
                         choices=["l-only", "uniform-lu", "general-lu"])
    p_bench.add_argument("--repeat", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--L", type=int, default=None)
    p_bench.add_argument("--U", type=int, default=None)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    err = sys.stderr
    try:
        if args.command == "find":
            return cmd_find(args, out, err)
        if args.command == "verify":
            return cmd_verify(args, out, err)
        return cmd_bench(args, out, err)
    except (MaxsegError, ValueError, OSError) as exc:
        err.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
