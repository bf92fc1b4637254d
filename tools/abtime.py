"""Time one command in fresh processes from this tree and another revision.

The revision is extracted with ``git archive`` (``tools/parity.py``'s
``extract``) and this tree's ``src`` is copied beside it, so both sides run
from a temporary directory in the same way.  Each pair runs the command once
from each tree, in alternating order (the revision first in even pairs), as
children of one small launcher process, as perfbench runs its operations:
Linux carries a peak RSS across ``exec``, so a child of this tool would
report at least this tool's own peak, while a child of the launcher reports
its own.  Per child the launcher records wall time, and ``ru_utime +
ru_stime`` and ``ru_maxrss`` from ``wait4``.  One unrecorded run per tree
comes first, to warm the file cache.

The command is ``python -m maxseg ARGV``, or ``python ARGV`` when ARGV
starts with an interpreter option (``-c "import numpy, maxseg.cli"``).
``--workload fasta-gc`` or ``tsv-weighted`` writes perfbench's input at
``--seed`` and runs perfbench's ``find`` argv on it.  With ``--base``, a
second command runs from the same tree right before each timed child, and
the figures are the command's less the base's: ``--base "-c 'import
numpy'"`` with ``-c "import numpy, maxseg.cli"`` gives what maxseg's import
adds to numpy's.  Children get
``PYTHONPATH`` set to their tree's ``src`` and ``OPENBLAS_NUM_THREADS=1``
unless the caller set it (``maxseg.cli.run`` sets the same).

Bytecode: by default every child compiles the maxseg sources, as perfbench's
children do where ``PYTHONDONTWRITEBYTECODE`` is set; children get that
variable, so no ``__pycache__`` appears.  ``--compiled`` runs ``compileall``
on each tree's sources first, writing each tree's own ``__pycache__`` in
place.  ``PYTHONPYCACHEPREFIX`` is not used: it also hides numpy's installed
bytecode, so ``import numpy`` compiles from source in every child.

``--layer parse_tsv`` or ``best`` times warm calls of one layer instead,
on the ``--workload`` input: one worker process per tree imports that
tree's maxseg, makes one untimed call, and then makes one timed call per
request, ``bio.parse_tsv`` on the input file or ``fastpath.best`` on the
first sequence ``find`` reads from it, with its ``--L`` and ``--U``.  The pairs
alternate between the two workers as above, and each call's wall time
(``perf_counter``) and CPU time (``process_time``) are recorded; what it
returns stands in for stdout.

For wall time, CPU time and, unless ``--layer`` is given, peak RSS the tool
prints each side's median, the median of the per-pair ratios (this tree
over the revision) with a 95% bootstrap interval, and the pairs in which
this tree is lower (ties count for neither side).  It exits 1 when a child
fails or when the two trees' exit codes or stdout differ.

Run from anywhere:
  python tools/abtime.py --against REV [--pairs 30] [--compiled] --workload fasta-gc
  python tools/abtime.py --against REV --base "-c 'import numpy'" -- -c "import numpy, maxseg.cli"
  python tools/abtime.py --against REV --layer parse_tsv --workload tsv-weighted
It needs git and the standard library (``--workload`` runs perfbench's
generators, which use numpy, in a child process).
"""

import argparse
import hashlib
import json
import os
import random
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from parity import FIND_ARGS, ROOT, extract  # noqa: E402

# Reads {"argv", "env", "out"} requests, one JSON line each, runs each as a
# child with stdout to "out" and stderr discarded, and answers each with one
# JSON line {"wall_s", "cpu_s", "maxrss_kb", "returncode"}.
LAUNCHER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    req = json.loads(line)
    with open(req["out"], "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=subprocess.DEVNULL,
                                env=req["env"])
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    print(json.dumps({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                      "maxrss_kb": usage.ru_maxrss,
                      "returncode": os.waitstatus_to_exitcode(status)}), flush=True)
"""

# Writes perfbench's input of the workload named by argv[1] at seed argv[2].
WORKLOAD_WRITER = """
import sys
sys.path.insert(0, sys.argv[3])
import workloads
make = {"fasta-gc": workloads.fasta_gc, "tsv-weighted": workloads.tsv_weighted}[sys.argv[1]]
sys.stdout.write(make(int(sys.argv[2])).text)
"""
WORKLOAD_FORMAT = {"fasta-gc": "fasta", "tsv-weighted": "tsv"}

# Times warm calls of the layer argv[1] on the input file argv[3] of format
# argv[2], with find's bounds argv[4] and argv[5]: answers each line it
# reads with one JSON line {"wall_s", "cpu_s", "out"}, after one untimed call.
LAYER_WORKER = """
import hashlib, json, sys, time
from maxseg import bio, fastpath
layer, fmt, path, L, U = sys.argv[1:]
def load():
    with open(path, "rb") as src:
        if fmt == "tsv":
            return bio.parse_tsv(src)
        return next(bio.read_fasta(src, bio.MappingSpec.gc01()))[1]
if layer == "parse_tsv":
    call = load
    def out(seq):
        digest = hashlib.sha256()
        for col in seq.prefix_arrays():
            digest.update(b"-" if col is None else col.astype("int64").tobytes())
        return [seq.value_scale, seq.weight_scale, digest.hexdigest()]
else:
    seq = load()
    bounds = int(L) * seq.weight_scale, int(U) * seq.weight_scale
    def call():
        return fastpath.best(seq, *bounds)
    out = list
call()
for line in sys.stdin:
    t0, c0 = time.perf_counter(), time.process_time()
    res = call()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    print(json.dumps({"wall_s": wall, "cpu_s": cpu, "out": out(res)}), flush=True)
"""
LAYERS = ("parse_tsv", "best")

METRICS = (("wall_ms", "wall_s", 1e3), ("cpu_ms", "cpu_s", 1e3),
           ("peak_rss_mb", "maxrss_kb", 1 / 1024))
BOOTSTRAP = 2000


def ratio_interval(ratios, rng: random.Random):
    """The 2.5% and 97.5% points of the median of ratios resampled with replacement."""
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP))
    return medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--pairs", type=int, default=30, help="timed pairs (default 30)")
    parser.add_argument("--compiled", action="store_true",
                        help="compile each tree's bytecode in place first")
    parser.add_argument("--workload", choices=sorted(WORKLOAD_FORMAT),
                        help="run perfbench's find on its input of this workload")
    parser.add_argument("--seed", type=int, default=3, help="workload seed (default 3)")
    parser.add_argument("--layer", choices=LAYERS,
                        help="time warm calls of this layer on the workload's input")
    parser.add_argument("--base", help="a second command, shell-quoted, run from the same "
                        "tree before each timed child; its figures are subtracted")
    parser.add_argument("command", nargs="*", help="maxseg arguments, or interpreter "
                        "arguments starting with an option; after --")
    args = parser.parse_args(argv)
    if bool(args.workload) == bool(args.command):
        parser.error("give either --workload or a command after --")
    if args.layer and (args.base or args.compiled or not args.workload):
        parser.error("--layer takes --workload, and neither --base nor --compiled")
    if args.layer == "parse_tsv" and WORKLOAD_FORMAT[args.workload] != "tsv":
        parser.error("--layer parse_tsv takes a TSV workload")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"against": tmp / "against", "this": tmp / "this"}
        extract(args.against, trees["against"])
        shutil.copytree(ROOT / "src", trees["this"] / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        command = args.command
        if args.workload:
            text = subprocess.run(
                [sys.executable, "-c", WORKLOAD_WRITER, args.workload, str(args.seed),
                 str(ROOT / "perfbench")], check=True, capture_output=True).stdout
            (tmp / "input").write_bytes(text)
            command = ["find", "--input", str(tmp / "input"),
                       *FIND_ARGS[WORKLOAD_FORMAT[args.workload]]]

        def argv_of(words):
            return [sys.executable, *([] if words[0].startswith("-") else ["-m", "maxseg"]), *words]

        argv = argv_of(command)
        base_argv = argv_of(shlex.split(args.base)) if args.base else None
        envs = {}
        for side, tree in trees.items():
            if args.compiled:
                subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")],
                               check=True)
            env = dict(os.environ, PYTHONPATH=str(tree / "src"))
            env.setdefault("OPENBLAS_NUM_THREADS", "1")
            env.pop("PYTHONPYCACHEPREFIX", None)
            if not args.compiled:
                env["PYTHONDONTWRITEBYTECODE"] = "1"
            envs[side] = env
        if args.layer:
            fmt = WORKLOAD_FORMAT[args.workload]
            bounds = [FIND_ARGS[fmt][FIND_ARGS[fmt].index(flag) + 1] for flag in ("--L", "--U")]
            workers = {side: subprocess.Popen(
                [sys.executable, "-c", LAYER_WORKER, args.layer, fmt, str(tmp / "input"),
                 *bounds], env=envs[side], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True) for side in trees}
            procs = list(workers.values())

            def run(side):
                """One timed call of the layer in side's worker."""
                workers[side].stdin.write("\n")
                workers[side].stdin.flush()
                line = workers[side].stdout.readline()
                if not line:  # the worker failed
                    return {"wall_s": 0.0, "cpu_s": 0.0, "returncode": 1, "stdout": ""}
                res = json.loads(line)
                return dict(res, returncode=0, stdout=json.dumps(res.pop("out")))
        else:
            launcher = subprocess.Popen([sys.executable, "-c", LAUNCHER],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            procs = [launcher]

            def launch(side, words):
                req = {"argv": words, "env": envs[side], "out": str(tmp / "out")}
                launcher.stdin.write(json.dumps(req) + "\n")
                launcher.stdin.flush()
                return json.loads(launcher.stdout.readline())

            def run(side):
                """The command's figures from side's tree, less the base's if any."""
                base = launch(side, base_argv) if base_argv else None
                res = launch(side, argv)
                res["stdout"] = hashlib.sha256((tmp / "out").read_bytes()).hexdigest()
                if base:
                    res["returncode"] |= base["returncode"]
                    for _, key, _ in METRICS:
                        res[key] -= base[key]
                return res

        try:
            runs = {"against": [], "this": []}
            for side in runs:  # warm-up, not recorded
                run(side)
            for k in range(args.pairs):
                for side in (("against", "this") if k % 2 == 0 else ("this", "against")):
                    runs[side].append(run(side))
        finally:
            for proc in procs:
                proc.stdin.close()
                proc.wait()

    if args.layer:
        print(f"abtime vs {args.against}: warm calls of {args.layer} on the {args.workload} "
              f"input, seed {args.seed}")
        print(f"{args.pairs} pairs, alternating order; one worker process per tree")
    else:
        mode = ("bytecode compiled in place first" if args.compiled
                else "compiled from source in every child")
        print(f"abtime vs {args.against}: {shlex.join(['python', *argv[1:]])}"
              + (f", less {shlex.join(['python', *base_argv[1:]])}" if args.base else ""))
        print(f"{args.pairs} pairs, alternating order; {mode}")
    print(f"{'metric':<12}{'against':>10}{'this':>10}  {'ratio (95% CI)':<22}this lower")
    rng = random.Random(0)
    for label, key, unit in METRICS[:2] if args.layer else METRICS:
        was = [r[key] * unit for r in runs["against"]]
        now = [r[key] * unit for r in runs["this"]]
        ratios = [b / a for a, b in zip(was, now) if a]  # a base can leave a difference of 0
        ratio = "-"
        if ratios:
            lo, hi = ratio_interval(ratios, rng)
            ratio = f"{statistics.median(ratios):.3f} ({lo:.3f}-{hi:.3f})"
        won = sum(b < a for a, b in zip(was, now))
        print(f"{label:<12}{statistics.median(was):>10.2f}{statistics.median(now):>10.2f}  "
              f"{ratio:<22}{won}/{args.pairs}")
    outputs = {side: {(r["returncode"], r["stdout"]) for r in runs[side]} for side in runs}
    failed = [side for side in runs if any(code for code, _ in outputs[side])]
    same = len(outputs["against"]) == 1 and outputs["against"] == outputs["this"]
    print("outputs: " + ("exit code and stdout the same in every run" if same else
                         f"differ (exit code, stdout digest): {outputs}"))
    if failed:
        print(f"nonzero exit in: {', '.join(failed)}")
    return 0 if same and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
