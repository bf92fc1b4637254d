"""The developer commands ``maxseg verify`` and ``maxseg bench``.

:func:`maxseg.cli.main` parses their flags and imports this module only
when one of them runs, so a ``find`` process loads neither the oracle nor
the instance generators.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import IO, List, Optional, Tuple

from .cli import _parse_int
from .core import OpCounters, WeightedSequence, build_sequence, decimal_units
from .errors import InfeasibleWidthWindow
from .oracle import brute_force_best
from .solvers import (
    SolveRequest,
    max_density_general,
    max_density_min_width,
    max_density_uniform,
    solve,
)

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
    for flag, value in (("--seeds", args.seeds), ("--max-n", args.max_n)):
        if value < 1:
            raise ValueError(f"{flag}: expected at least 1, got {value}")
    fixed_lu = None
    if args.L_U != "random":
        msg = f"--L-U: expected 'random' or 'fixed:L,U' with integers 0 < L <= U, got {args.L_U!r}"
        if not args.L_U.startswith("fixed:"):
            raise ValueError(msg)
        try:
            L_txt, U_txt = args.L_U[len("fixed:"):].split(",")
            fixed_lu = (_parse_int(L_txt, "--L-U"), _parse_int(U_txt, "--L-U"))
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
    """--sizes: whole numbers from 1 to 1e18, decimals with an optional exponent (1e5)."""
    sizes = []
    for part in text.split(","):
        mant, e, power = part.replace("E", "e").partition("e")
        try:
            units, places = decimal_units(mant.encode(errors="surrogateescape"))
            shift = (_parse_int(power, "--sizes") if e else 0) - places
            size = units * 10 ** shift if 0 <= shift <= 18 else 0
        except ValueError:
            size = 0  # refused below
        if not 1 <= size <= 10 ** 18:
            raise ValueError(f"--sizes: expected whole numbers from 1 to 1e18, got {part!r}")
        sizes.append(size)
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
    if args.L is not None and args.L < 1:
        raise ValueError(f"--L: expected at least 1, got {args.L}")
    top_L = args.L if args.L is not None else max(1, max(sizes) // 100)
    if args.U is not None and args.algo != "l-only" and args.U < top_L:
        raise ValueError(f"--U: expected at least L={top_L}, got {args.U}")
    for n in sizes:  # every weight is at least 1: only an --L above n needs the instance
        if args.L is not None and args.L > n:
            total = _bench_instance(random.Random(args.seed), n, args.algo).prefix_weight[n]
            if args.L > total:
                raise ValueError(f"--L: size {n} has total width {total}, below L={args.L}")
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
