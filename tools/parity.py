"""Compare `maxseg find` between this tree and another revision, byte for byte.

The revision is extracted with ``git archive`` into a temporary directory,
and ``python -m maxseg find`` runs from both trees on the same inputs:

- perfbench's fasta-gc and tsv-weighted inputs at the given seeds;
- TSV edge files: short (below the array path's size gate) and long
  (above it) bodies of tsv-weighted rows with other line ends, a UTF-8
  comment, or one row that sits at an edge of the TSV grammar.

Each input runs under the flag sets {}, --exact and --compress, read from a
file and from stdin (a pipe), and stdout, stderr and exit code are compared
byte for byte.  The tool prints one summary line, one line per input whose
results differ (the first stderr line of each side), and the first
difference in full.  It exits 1 when any result differs.

Run from anywhere:  python tools/parity.py --against REV [--seeds 1,2,3] [--jobs 2]
It needs git, the standard library and numpy (perfbench's generators).
"""

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLAG_SETS = [[], ["--exact"], ["--compress"]]
FIND_ARGS = {
    "fasta": ["--format", "fasta", "--mapping", "gc", "--L", "100", "--U", "200"],
    "tsv": ["--format", "tsv", "--L", "100", "--U", "1100"],
}

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


def find(tree: Path, fmt: str, flags, path: Path, stdin: bool):
    """(exit code, stdout, stderr) of one `find` run from tree's sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "maxseg", "find", "--input", "-" if stdin else str(path),
            *FIND_ARGS[fmt], *flags]
    proc = subprocess.run(argv, input=path.read_bytes() if stdin else b"",
                          capture_output=True, env=env, cwd=path.parent, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


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
        cases, n_inputs = [], 0
        for name, fmt, data in inputs(seeds):
            n_inputs += 1
            (tmp / name).mkdir()
            path = tmp / name / "input"
            path.write_bytes(data)
            cases += [(name, fmt, flags, path, stdin)
                      for flags in FLAG_SETS for stdin in (False, True)]
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
        (name, fmt, flags, _, stdin), (was, now) = differ[0]
        print(f"first difference: {name} {' '.join(flags) or '{}'} from "
              f"{'stdin' if stdin else 'a file'}")
        for label, (code, out, err) in (("against", was), ("this tree", now)):
            print(f"  {label}: exit {code}, stdout {out[:200]!r}, stderr {err[:200]!r}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
