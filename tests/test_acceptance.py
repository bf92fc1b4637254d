"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Timing-sensitive criteria (07, 08) measure medians:
07 of size ratios over back-to-back pairs of CPU-timed runs of the
pure-Python reference path, 08 of five wall-time runs of the dispatching
entry point users call.
"""

import gc
import random
import statistics
import sys
import time

from maxseg import (
    InfeasibleWidthWindow,
    OpCounters,
    SolveRequest,
    brute_force_best,
    brute_force_partition,
    build_sequence,
    density,
    max_density_general,
    max_density_min_width,
    max_density_uniform,
    solve,
)
from maxseg.cli import main as cli_main
from maxseg.core import compute_bounds
from maxseg.dev import random_general_instance, random_uniform_instance
from maxseg.oracle import _is_right_skew
from maxseg.solvers import _iter_cover
from maxseg.sweep_left import initialize_min_width
from maxseg.sweep_right import initialize_max_width


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def _triple(seg):
    # the tie rule is part of the answer: compare the endpoints too
    return seg.start, seg.end, seg.density


def test_c01_oracle_equivalence_uniform():
    t0 = time.perf_counter()
    failures = 0
    for seed in range(1000):
        rng = random.Random(seed)
        seq, L, U = random_uniform_instance(rng, 200)
        got = _triple(solve(SolveRequest(seq, L, U)))
        want = _triple(brute_force_best(seq, L, U))
        if got != want:
            failures += 1
    elapsed = time.perf_counter() - t0
    _report(1, "oracle-equivalence-uniform",
            failures == 0 and elapsed < 30.0,
            f"{1000 - failures}/1000 exact, {elapsed:.1f}s")


def test_c02_oracle_equivalence_general():
    failures = 0
    for seed in range(1000):
        rng = random.Random(10_000 + seed)
        seq, L, U = random_general_instance(rng, 200)
        try:
            got = _triple(max_density_general(seq, L, U))
        except InfeasibleWidthWindow:
            got = None
        try:
            want = _triple(brute_force_best(seq, L, U))
        except InfeasibleWidthWindow:
            want = None
        if got != want:
            failures += 1
    _report(2, "oracle-equivalence-general", failures == 0,
            f"{1000 - failures}/1000 exact")


def test_c03_oracle_equivalence_min_width():
    failures = 0
    for seed in range(1000):
        rng = random.Random(20_000 + seed)
        n = rng.randint(1, 200)
        seq = build_sequence(
            [(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        )
        L = rng.randint(1, seq.prefix_weight[n])
        got = _triple(max_density_min_width(seq, L))
        want = _triple(brute_force_best(seq, L, None))
        if got != want:
            failures += 1
    _report(3, "oracle-equivalence-min-width", failures == 0,
            f"{1000 - failures}/1000 exact")


def test_c04_partition_invariants():
    violations = 0
    for seed in range(500):
        rng = random.Random(30_000 + seed)
        n = rng.randint(1, 100)
        seq = build_sequence(
            [(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        )
        bounds = compute_bounds(seq, 1, seq.prefix_weight[n])
        blocks = brute_force_partition(seq, 1, n)
        for (s1, e1), (s2, e2) in zip(blocks, blocks[1:]):
            if not density(seq, s1, e1) > density(seq, s2, e2):
                violations += 1
        if not all(_is_right_skew(seq, s, e) for s, e in blocks):
            violations += 1
        if n >= 2:
            st_l = initialize_min_width(seq, 1, n, bounds)
            st_u = initialize_max_width(seq, 1, n, bounds)
            for s, e in brute_force_partition(seq, 2, n):
                if st_l.pointer(s) != e:
                    violations += 1
                if st_u.pointer(e) != s:
                    violations += 1
            ptr = [0, 0] + [st_l.pointer(k) for k in range(2, n + 1)]
            for k in range(2, n + 1):
                pk = ptr[k]
                for m in range(k + 1, min(pk, n) + 1):
                    # nesting: never k < m <= p[k] < p[m]
                    if m <= pk < ptr[m]:
                        violations += 1
    _report(4, "partition-invariants", violations == 0,
            f"500 instances, {violations} violations")


def test_c05_shortest_optimum_width_bound():
    violations = 0
    for seed in range(500):
        rng = random.Random(40_000 + seed)
        n = rng.randint(1, 100)
        seq = build_sequence([(rng.randint(0, 9), 1) for _ in range(n)])
        L = rng.randint(1, n)
        pv = seq.prefix_value
        best = None
        shortest = None
        for i in range(1, n + 1):
            for j in range(i + L - 1, n + 1):
                s, w = pv[j] - pv[i - 1], j - i + 1
                key = (s, w)
                if best is None or s * best[1] > best[0] * w:
                    best = key
                    shortest = w
                elif s * best[1] == best[0] * w and w < shortest:
                    shortest = w
        if shortest is not None and shortest > 2 * L - 1:
            violations += 1
    _report(5, "shortest-optimum-width-bound", violations == 0,
            f"500 instances, {violations} violations")


def test_c06_collect_blocks_exhaustive():
    # the greedy aligned cover max_density_general walks for each left index
    checked = 0
    violations = 0
    for beta in range(5):
        max_len = 2 ** (beta + 1) - 1
        for p in range(1, 257):
            for q in range(p, min(256, p + max_len - 1) + 1):
                blocks = list(_iter_cover(p, q, beta))
                checked += 1
                covered = []
                for level, start in blocks:
                    covered.extend(range(start, start + 2 ** level))
                    if level > beta or (start - 1) % 2 ** level:
                        violations += 1
                if covered != list(range(p, q + 1)):
                    violations += 1
                if len(blocks) > 2 * (beta + 1):
                    violations += 1
    _report(6, "collect-blocks-exhaustive", violations == 0,
            f"{checked} intervals, {violations} violations")


def _pure_instance(algo, n, seed=7):
    rng = random.Random(seed)
    L = max(1, n // 100)
    if algo == "general-lu":
        seq = build_sequence([(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(n)])
        U = L + 2047
    else:
        seq = build_sequence([(rng.randint(0, 9), 1) for _ in range(n)])
        U = 50 * L
    return seq, L, U


def _timed_pure(algo, seq, L, U):
    c = OpCounters()
    gc.collect()  # untimed: start every sample from the same heap
    t0 = time.process_time()
    if algo == "l-only":
        max_density_min_width(seq, L, counters=c)
    elif algo == "uniform-lu":
        max_density_uniform(seq, L, U, counters=c)
    else:
        max_density_general(seq, L, U, counters=c)
    return time.process_time() - t0, c.total()


def test_c07_linearity_counters_and_scaling():
    # Three things keep the timing steady on a shared host.  A sample is the
    # CPU time of this process, so time spent waiting for a CPU does not
    # count.  The cyclic garbage collector is off while a sample runs, so a
    # full collection, whose cost grows with the whole heap, lands in no
    # sample.  And the ratio is the median over back-to-back pairs of runs of
    # the two sizes, so a phase in which the host runs slower or faster hits
    # both halves of a pair alike.  The pairs alternate which size runs first.
    sizes = (100_000, 200_000)
    ok = True
    details = []
    gc.disable()
    try:
        for algo, pairs in (("l-only", 9), ("uniform-lu", 9), ("general-lu", 5)):
            instances = {n: _pure_instance(algo, n) for n in sizes}
            secs = {n: [] for n in sizes}
            iters = {}
            ratios = []
            for k in range(pairs):
                for n in (sizes if k % 2 == 0 else sizes[::-1]):
                    cpu, iters[n] = _timed_pure(algo, *instances[n])
                    secs[n].append(cpu)
                ratios.append(secs[200_000][-1] / secs[100_000][-1])
            for n in sizes:
                _, L, U = instances[n]
                if algo == "general-lu":
                    beta = (U - L + 1).bit_length() - 1
                    bound = 4 * n * (beta + 1)
                else:
                    bound = 4 * n
                if iters[n] > bound:
                    ok = False
                details.append(f"{algo}@{n}: {iters[n] / n:.2f}n iters, "
                               f"{statistics.median(secs[n]):.2f}s")
            ratio = statistics.median(ratios)
            if not 1.5 <= ratio <= 2.6:
                ok = False
            details.append(f"{algo} ratio {ratio:.2f}")
    finally:
        gc.enable()
    _report(7, "linearity-counters-and-scaling", ok, "; ".join(details))


def test_c08_desk_scale_performance():
    rng = random.Random(8)
    n = 1_000_000
    seq = build_sequence([(rng.randint(0, 9), 1) for _ in range(n)])
    req = SolveRequest(seq, 100, 5000)
    solve(req)  # warm-up: the first call pays the one-time numpy import
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        solve(req)
        walls.append(time.perf_counter() - t0)
    med = statistics.median(walls)
    _report(8, "desk-scale-performance", med < 2.0,
            f"n=1e6 L=100 U=5000 median {med:.3f}s of 5 runs")


def _synthetic_genome(rng, n, planted_at, planted_len):
    gc = "GC"
    at = "AT"
    chars = []
    for pos in range(n):
        inside = planted_at <= pos < planted_at + planted_len
        p_gc = 0.95 if inside else 0.4
        pool = gc if rng.random() < p_gc else at
        chars.append(pool[rng.randrange(2)])
    return "".join(chars)


def test_c09_gc_application_end_to_end(tmp_path, capsys):
    n, planted_len = 100_000, 150
    hits = 0
    for seed in range(20):
        rng = random.Random(90_000 + seed)
        planted_at = rng.randrange(0, n - planted_len)
        path = tmp_path / f"genome{seed}.fa"
        path.write_text(f">g{seed}\n{_synthetic_genome(rng, n, planted_at, planted_len)}\n")
        code = cli_main([
            "find", "--input", str(path), "--format", "fasta",
            "--mapping", "gc", "--L", "100", "--U", "200",
        ])
        out = capsys.readouterr().out
        assert code == 0
        start, end = (int(v) for v in out.splitlines()[1].split("\t")[1:3])
        ps, pe = planted_at + 1, planted_at + planted_len  # 1-based planted range
        overlap = max(0, min(end, pe) - max(start, ps) + 1)
        if overlap >= planted_len // 2:
            hits += 1
    _report(9, "gc-application-end-to-end", hits >= 19, f"{hits}/20 seeds overlap >= 50%")


def test_c10_cross_algorithm_agreement():
    compared = 0
    failures = 0
    for seed in range(1000):
        rng = random.Random(seed)
        seq, L, U = random_uniform_instance(rng, 200)
        if L == U:
            continue
        compared += 1
        a = _triple(max_density_uniform(seq, L, U))
        b = _triple(max_density_general(seq, L, U))
        if a != b:
            failures += 1
    _report(10, "cross-algorithm-agreement", failures == 0,
            f"{compared} instances with L<U, {failures} mismatches")
