"""Compare `maxseg find` and the numpy backend between this tree and another
revision.

The revision is extracted with ``git archive`` into a temporary directory.

The find group runs ``python -m maxseg find`` from both trees on the same
inputs:

- perfbench's fasta-gc and tsv-weighted inputs at the given seeds;
- TSV edge files: short (below the array path's size gate) and long
  (above it) bodies of tsv-weighted rows with other line ends, a UTF-8
  comment, or one row that sits at an edge of the TSV grammar.

Each input runs under the flag sets {}, --exact, --compress and
--debug-dump (whose stderr holds the sweep tables), and under fractional
bounds (and, for FASTA, ``--mapping huang:0.45``), read from a file, from
stdin (a pipe) and from a named pipe given as ``--input``, and stdout,
stderr and exit code are compared byte for byte (an output past 64 KiB by
its length and SHA-256).

The dev group runs ``verify --seeds 200`` for each model and ``bench
--sizes 2e3`` for each algorithm from both trees, and compares exit code,
stderr and stdout byte for byte, less bench's ``wall_nanos`` column.

The backend group runs ``fastpath.best`` from both trees, with
``MIN_FAST_N = 1``, on 1000 random instances per seed, and this tree's
``brute_force_best`` on each: unit weights and weights 1..3, some items
wider than U (so some windows are empty), integral and half-integral
bounds and ``U = None``, at ``CHUNK`` 1, 3, 64 and 16384 in turn.  An
instance differs when the three answers are not all the same (an
infeasible one must raise ``InfeasibleWidthWindow`` in both trees).

The pure group runs the pure-Python solvers from both trees on 1000 random
instances per seed: ``solve`` with ``MIN_FAST_N`` above every n, so the
backend declines, and each of ``max_density_min_width``,
``max_density_uniform`` and ``max_density_general`` (given the total width
when U is None).  Items are unit-weight, equal-weight (2), 1..3-weight, with
some items wider than U, or with half-integer values and weights; bounds are
integral or half-integral.  An instance differs when any call's
``(start, end, sum, width)`` and four ``OpCounters``, or its error type and
message, differ between the trees.

The tool prints one summary line per group, one line per input or instance
whose results differ, and the first find difference in full.  It exits 1
when any result differs.

Run from anywhere:  python tools/parity.py --against REV [--seeds 1,2,3] [--jobs 2]
It needs git, the standard library and numpy (perfbench's generators).
"""

import argparse
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIND_ARGS = {
    "fasta": ["--format", "fasta", "--mapping", "gc", "--L", "100", "--U", "200"],
    "tsv": ["--format", "tsv", "--L", "100", "--U", "1100"],
}
# The flag sets each input of a format runs under.  A set's --mapping, --L
# or --U replaces the one in FIND_ARGS, as argparse keeps the last.
FLAG_SETS = {
    "fasta": [[], ["--exact"], ["--compress"], ["--debug-dump"], ["--mapping", "huang:0.45"],
              ["--L", "99.5", "--U", "200.25"]],
    "tsv": [[], ["--exact"], ["--compress"], ["--debug-dump"], ["--L", "100.05", "--U", "1100.5"]],
}
# Where find reads its input from: --input PATH, --input - with the bytes on
# stdin, or --input FIFO, a named pipe that a thread writes them into.
SOURCES = ("file", "stdin", "fifo")

# TSV rows put in place of one body row, by name.  The first three are in
# the grammar; the rest leave it.
EDGE_ROWS = {
    "trailing-zeros": "1.0000000000\t2.50",
    "nineteen-digits": "1234567890123456789\t1",
    "blank-padded": " \t-0.50 \t 1.5\t ",
    "underscore": "1_000\t1",
    "plus": "+1\t1",
    "leading-dot": ".5\t1",
    "trailing-dot": "5.\t1",
    "exponent": "1e3\t1",
    "exponent-upper": "1E3\t1",
    "arabic-indic-digits": "\u0661\u0662\t1",
    "no-break-space": "1\u00a02",
    "vertical-tab": "1\t1\v",
    "file-separator": "1\t1\x1c",
    "line-separator": "1\t1\u2028",
    "infinity": "Infinity\t1",
    "nan": "1\tnan",
    "ten-places": "0.0000000001\t1",
    "integer-digits": "1" * 1001 + "\t1",
    "zero-weight": "1\t0",
    "three-fields": "1\t2\t3",
}


def extract(rev: str, dest: Path) -> None:
    """The tree of rev, from ``git archive``, in dest."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def inputs(seeds):
    """(name, format, bytes) of every input."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for seed in seeds:
        yield f"fasta-gc-{seed}", "fasta", workloads.fasta_gc(seed).text.encode()
        yield f"tsv-weighted-{seed}", "tsv", workloads.tsv_weighted(seed).text.encode()
    rows = workloads.TSV_WEIGHTED["rows"]
    for size, n in (("short", 1000), ("long", 5000)):
        lines = workloads.tsv_weighted(1, n / rows).text.splitlines()
        body = "\n".join(lines) + "\n"
        yield f"tsv-{size}-lf", "tsv", body.encode()
        yield f"tsv-{size}-crlf", "tsv", body.replace("\n", "\r\n").encode()
        yield f"tsv-{size}-cr", "tsv", body.replace("\n", "\r").encode()
        yield f"tsv-{size}-no-final-lf", "tsv", body[:-1].encode()
        yield f"tsv-{size}-utf8-comment", "tsv", ("# valeur \u00e9t\u00e9\n" + body).encode()
        yield f"tsv-{size}-invalid-utf8-comment", "tsv", body.encode() + b"# \xff\n"
        for name, row in EDGE_ROWS.items():
            edited = lines[:n - 5] + [row] + lines[n - 4:]
            yield f"tsv-{size}-{name}", "tsv", ("\n".join(edited) + "\n").encode()


def find(tree: Path, fmt: str, flags, path: Path, source: str):
    """(exit code, stdout, stderr) of one `find` run from tree's sources,
    each output as :func:`kept` keeps it."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    data = path.read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        where = {"file": str(path), "stdin": "-", "fifo": os.path.join(tmp, "fifo")}[source]
        argv = [sys.executable, "-m", "maxseg", "find", "--input", where, *FIND_ARGS[fmt], *flags]
        writer = None
        if source == "fifo":
            os.mkfifo(where)
            writer = threading.Thread(target=feed, args=(where, data))
            writer.start()
        try:
            proc = subprocess.run(argv, input=data if source == "stdin" else b"",
                                  capture_output=True, env=env, cwd=path.parent, timeout=600)
        finally:
            while writer is not None and writer.is_alive():  # the run left the pipe unread
                os.close(os.open(where, os.O_RDONLY | os.O_NONBLOCK))  # so the write ends
                writer.join(0.1)
    return proc.returncode, kept(proc.stdout), kept(proc.stderr)


def feed(fifo: str, data: bytes) -> None:
    """Write data into the named pipe fifo for one reader; a reader that
    closes the pipe early ends the write."""
    try:
        with open(fifo, "wb") as pipe:
            pipe.write(data)
    except BrokenPipeError:
        pass


def kept(output: bytes) -> bytes:
    """output, or past 64 KiB its length, SHA-256 and first 200 bytes: the
    debug dump of a long input runs to tens of MB."""
    if len(output) <= 1 << 16:
        return output
    digest = hashlib.sha256(output).hexdigest()
    return f"{len(output)} bytes, sha256 {digest}: ".encode() + output[:200]


DEV_RUNS = ([["verify", "--seeds", "200", "--model", model] for model in ("uniform", "general")]
            + [["bench", "--sizes", "2e3", "--algo", algo]
               for algo in ("l-only", "uniform-lu", "general-lu")])


def dev_output(tree: Path, argv):
    """(exit code, stdout, stderr) of one verify or bench run from tree's
    sources; bench's CSV loses its wall_nanos column, which is a timing."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "maxseg", *argv], capture_output=True,
                          env=env, timeout=600)
    out = proc.stdout
    if argv[0] == "bench" and out:
        rows = [line.split(b",") for line in out.splitlines()]
        wall = rows[0].index(b"wall_nanos")
        out = b"\n".join(b",".join(row[:wall] + row[wall + 1:]) for row in rows)
    return proc.returncode, out, proc.stderr


def dev_group(old: Path, rev: str, jobs: int) -> int:
    """Print the dev group's summary; the number of runs that differ."""
    with ThreadPoolExecutor(jobs) as pool:
        results = list(pool.map(lambda argv: (dev_output(old, argv), dev_output(ROOT, argv)),
                                DEV_RUNS))
    differ = [(argv, got) for argv, got in zip(DEV_RUNS, results) if got[0] != got[1]]
    print(f"dev parity vs {rev}: {len(DEV_RUNS)} runs (verify --seeds 200 per model, bench "
          f"--sizes 2e3 per algo, wall_nanos left out): {len(DEV_RUNS) - len(differ)} same, "
          f"{len(differ)} differ")
    for argv, (was, now) in differ:
        print(f"  {' '.join(argv)}: against {was!r}, this tree {now!r}")
    return len(differ)


BACKEND_CHUNKS = (1, 3, 64, 16384)
BACKEND_PER_SEED = 1000

# Reads [chunk, items, L, U] instances as JSON on stdin and writes, per
# instance, fastpath.best's answer or "infeasible".
BACKEND_WORKER = """
import json, sys
from maxseg import fastpath
from maxseg.core import build_sequence
from maxseg.errors import InfeasibleWidthWindow

fastpath.MIN_FAST_N = 1
answers = []
for chunk, items, L, U in json.load(sys.stdin):
    fastpath.CHUNK = chunk
    try:
        answers.append(fastpath.best(build_sequence(map(tuple, items)), L, U))
    except InfeasibleWidthWindow:
        answers.append("infeasible")
json.dump(answers, sys.stdout)
"""


def backend_instances(seed: int):
    """[chunk, items, L, U] instances drawn from seed."""
    rng = random.Random(seed)
    cases = []
    for t in range(BACKEND_PER_SEED):
        n = rng.randint(1, 80)
        weighted = rng.random() < 0.75
        wide = weighted and rng.random() < 0.5  # about one item in eight of weight 9
        items = [[rng.randint(-9, 9),
                  (9 if wide and rng.random() < 0.125 else rng.randint(1, 3)) if weighted else 1]
                 for _ in range(n)]
        L = rng.randint(1, 8) - rng.choice((0, 0.5))
        U = rng.choice((None, rng.randint(math.ceil(L), 12) + rng.choice((0, 0.5))))
        cases.append([BACKEND_CHUNKS[t % len(BACKEND_CHUNKS)], items, L, U])
    return cases


def best_answers(tree: Path, cases):
    """fastpath.best from tree's sources on every case, as JSON values."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", BACKEND_WORKER], input=json.dumps(cases),
                          capture_output=True, text=True, env=env, check=True, timeout=600)
    return json.loads(proc.stdout)


def oracle_answers(cases):
    """This tree's brute_force_best on every case, as best_answers gives them."""
    sys.path.insert(0, str(ROOT / "src"))
    from maxseg.core import build_sequence
    from maxseg.errors import InfeasibleWidthWindow
    from maxseg.oracle import brute_force_best

    answers = []
    for _, items, L, U in cases:
        try:
            seg = brute_force_best(build_sequence(map(tuple, items)), L, U)
            answers.append([seg.start, seg.end])
        except InfeasibleWidthWindow:
            answers.append("infeasible")
    return answers


def backend_group(old: Path, rev: str, seeds, jobs: int) -> int:
    """Print the backend group's summary; the number of instances that differ."""
    cases = [c for seed in seeds for c in backend_instances(seed)]
    with ThreadPoolExecutor(jobs) as pool:
        was, now = pool.map(lambda tree: best_answers(tree, cases), (old, ROOT))
    want = oracle_answers(cases)
    differ = [k for k in range(len(cases)) if not was[k] == now[k] == want[k]]
    wide = sum(1 for _, items, _, U in cases if U is not None and max(w for _, w in items) > U)
    chunks = ", ".join(map(str, BACKEND_CHUNKS))
    print(f"backend parity vs {rev}: {len(cases)} instances (CHUNK {chunks}; "
          f"{sum(w == 'infeasible' for w in want)} infeasible, {wide} with an item wider than U): "
          f"{len(cases) - len(differ)} same in both trees and the oracle, {len(differ)} differ")
    for k in differ:
        chunk, items, L, U = cases[k]
        print(f"  CHUNK {chunk}, L {L}, U {U}, {len(items)} items: "
              f"against {was[k]}, this tree {now[k]}, oracle {want[k]}")
    return len(differ)


PURE_PER_SEED = 1000
PURE_SHAPES = ("unit", "equal", "weighted", "wide", "halves")

# Reads [items, L, U] instances as JSON on stdin, items as "p/q" strings,
# and writes, per instance, one result per call: ["ok", start, end, sum,
# width, counters] or ["error", type, message].
PURE_WORKER = """
import json, sys
from fractions import Fraction
from maxseg import fastpath, solvers
from maxseg.core import OpCounters, build_sequence

fastpath.MIN_FAST_N = 1 << 62
calls = (
    lambda seq, L, U, c: solvers.solve(solvers.SolveRequest(seq, L, U), counters=c),
    lambda seq, L, U, c: solvers.max_density_min_width(seq, L, counters=c),
    lambda seq, L, U, c: solvers.max_density_uniform(
        seq, L, seq.total_width if U is None else U, counters=c),
    lambda seq, L, U, c: solvers.max_density_general(
        seq, L, seq.total_width if U is None else U, counters=c),
)
answers = []
for items, L, U in json.load(sys.stdin):
    seq = build_sequence((Fraction(v), Fraction(w)) for v, w in items)
    results = []
    for call in calls:
        c = OpCounters()
        try:
            seg = call(seq, L, U, c)
            results.append(["ok", seg.start, seg.end, str(seg.sum), str(seg.width),
                            [c.init_merges, c.descent_steps, c.bitonic_steps, c.scan_steps]])
        except Exception as exc:
            results.append(["error", type(exc).__name__, str(exc)])
    answers.append(results)
json.dump(answers, sys.stdout)
"""


def pure_instances(seed: int):
    """[items, L, U] instances drawn from seed, items as "p/q" strings."""
    rng = random.Random(seed)
    cases = []
    for t in range(PURE_PER_SEED):
        shape = PURE_SHAPES[t % len(PURE_SHAPES)]
        n = rng.randint(1, 60)
        items = []
        for _ in range(n):
            v, w = rng.randint(-9, 9), {"unit": 1, "equal": 2}.get(shape) or rng.randint(1, 3)
            if shape == "wide" and rng.random() < 0.125:
                w = 9
            if shape == "halves":
                v, w = f"{v}/2", f"{w}/2"
            items.append([str(v), str(w)])
        L = rng.randint(1, 8) - rng.choice((0, 0.5))
        U = rng.choice((None, rng.randint(math.ceil(L), 12) + rng.choice((0, 0.5))))
        cases.append([items, L, U])
    return cases


def pure_answers(tree: Path, cases):
    """PURE_WORKER's results from tree's sources on every case."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", PURE_WORKER], input=json.dumps(cases),
                          capture_output=True, text=True, env=env, check=True, timeout=600)
    return json.loads(proc.stdout)


def pure_group(old: Path, rev: str, seeds, jobs: int) -> int:
    """Print the pure group's summary; the number of instances that differ."""
    cases = [c for seed in seeds for c in pure_instances(seed)]
    with ThreadPoolExecutor(jobs) as pool:
        was, now = pool.map(lambda tree: pure_answers(tree, cases), (old, ROOT))
    differ = [k for k in range(len(cases)) if was[k] != now[k]]
    calls = [r for results in now for r in results]
    errors = sorted({r[1] for r in calls if r[0] == "error"})
    print(f"pure parity vs {rev}: {len(cases)} instances x 4 calls (solve, min-width, "
          f"uniform, general; {sum(r[0] == 'error' for r in calls)} calls raise: "
          f"{', '.join(errors)}): {len(cases) - len(differ)} same, {len(differ)} differ")
    for k in differ:
        items, L, U = cases[k]
        pairs = [(a, b) for a, b in zip(was[k], now[k]) if a != b]
        print(f"  L {L}, U {U}, {len(items)} items: against {pairs[0][0]}, this tree {pairs[0][1]}")
    return len(differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--seeds", default="1,2,3", help="perfbench seeds (default 1,2,3)")
    parser.add_argument("--jobs", type=int, default=2, help="runs at once (default 2)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        old = tmp / "against"
        extract(args.against, old)
        backend_differ = backend_group(old, args.against, seeds, args.jobs)
        pure_differ = pure_group(old, args.against, seeds, args.jobs)
        dev_differ = dev_group(old, args.against, args.jobs)
        cases, n_inputs = [], 0
        for name, fmt, data in inputs(seeds):
            n_inputs += 1
            (tmp / name).mkdir()
            path = tmp / name / "input"
            path.write_bytes(data)
            cases += [(name, fmt, flags, path, source)
                      for flags in FLAG_SETS[fmt] for source in SOURCES]
        with ThreadPoolExecutor(args.jobs) as pool:
            results = list(pool.map(
                lambda c: (find(old, *c[1:]), find(ROOT, *c[1:])), cases))
    differ = [(case, got) for case, got in zip(cases, results) if got[0] != got[1]]
    differ_names = list(dict.fromkeys(case[0] for case, _ in differ))
    print(f"find parity vs {args.against}: {len(cases)} runs on {n_inputs} inputs, "
          f"{len(cases) - len(differ)} same, {len(differ)} differ in {len(differ_names)} inputs")
    for name in differ_names:
        _, (was, now) = next(d for d in differ if d[0][0] == name)
        first = [r[2].decode(errors="replace").partition("\n")[0] or f"exit {r[0]}"
                 for r in (was, now)]
        print(f"  {name}: {first[0]!r} -> {first[1]!r}")
    if differ:
        (name, fmt, flags, _, source), (was, now) = differ[0]
        print(f"first difference: {name} {' '.join(flags) or '{}'} from {source}")
        for label, (code, out, err) in (("against", was), ("this tree", now)):
            print(f"  {label}: exit {code}, stdout {out[:200]!r}, stderr {err[:200]!r}")
    return 1 if differ or backend_differ or pure_differ or dev_differ else 0


if __name__ == "__main__":
    sys.exit(main())
