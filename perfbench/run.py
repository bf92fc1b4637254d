#!/usr/bin/env python3
"""maxseg benchmark: three seeded workloads, closed loop, one client.

    python3 perfbench/run.py --workload fasta-gc --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

Workloads (generators in ``workloads.py``):

* ``fasta-gc``: ``maxseg find --format fasta --mapping gc --L 100 --U 200``
  on 4 records of 250k bases; one operation is one fresh CLI process.
* ``solve-c08``: in-process ``solve(SolveRequest(seq, 100, 5000))`` on the
  1e6-item C08 instance; the sequence is built in set-up.  It runs under
  ``--workload solve-c08`` and ``all`` but is not listed in BENCHMARK.json:
  its layers are all covered by the other two, and each gated workload
  costs about a minute per run.
* ``tsv-weighted``: ``maxseg find --format tsv --L 100 --U 1100`` on 150k
  decimal rows, about 0.1% of them wider than U; one fresh CLI process each.

Operations run one at a time from this process, with ``MAXSEG_THREADS=1``.
An untraced run alternates set-ups with timed operations until ``--seconds``
pass; ``setup_s`` is the median set-up: one warm-up CLI process for the find
workloads, ``build_sequence`` plus a warm-up solve for ``solve-c08``.
Every answer is compared with the independent reference in ``reference.py``,
whose own answers are compared with ``pinned.json`` when the seed is pinned.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separately traced phase.
Each run also writes a record with the machine config, and the merged spans
of a traced run, under ``.bench_out/``.  Exit code 0 means every answer was
correct, 1 that some were not, 2 that the program could not be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINNED = HERE / "pinned.json"

MIN_OPS = 3
MIN_TRACED_OPS = 2
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150
ROADMAP_C08_S = 5.3  # solve on the C08 instance, as measured for ROADMAP.md
MAXSEG_THREADS = "1"  # the CLI's default: one solve at a time

END_TO_END = [
    ("op_s_p50", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
PER_LAYER = [
    ("bio.parse_fasta.s", "s"),
    ("bio.map_to_sequence.s", "s"),
    ("bio.map_to_sequence.items", "count"),
    ("bio.parse_tsv.s", "s"),
    ("bio.parse_tsv.items", "count"),
    ("core.build_sequence.s", "s"),
    ("core.build_sequence.items", "count"),
    ("core.compute_bounds.s", "s"),
    ("core.compute_bounds.calls", "count"),
    ("core.compute_bounds.cursor_advances", "count"),
    ("solvers.solve.s", "s"),
    ("solvers.solve.self_s", "s"),
    ("solvers.pieces", "count"),
    ("solvers.max_density_uniform.s", "s"),
    ("solvers.max_density_uniform.calls", "count"),
    ("solvers.max_density_general.s", "s"),
    ("solvers.max_density_general.calls", "count"),
    ("solvers.max_density_min_width.s", "s"),
    ("solvers.max_density_min_width.calls", "count"),
    ("solvers.sliding_window.calls", "count"),
    ("solvers.counters.init_merges", "count"),
    ("solvers.counters.descent_steps", "count"),
    ("solvers.counters.bitonic_steps", "count"),
    ("solvers.counters.scan_steps", "count"),
    ("solvers.iters_per_item", "count/item"),
    ("sweep_left.initialize_min_width.s", "s"),
    ("sweep_left.initialize_min_width.calls", "count"),
    ("sweep_left.find_match_min_width.s", "s"),
    ("sweep_left.find_match_min_width.calls", "count"),
    ("sweep_right.initialize_max_width.s", "s"),
    ("sweep_right.initialize_max_width.calls", "count"),
    ("sweep_right.find_match_max_width.s", "s"),
    ("sweep_right.find_match_max_width.calls", "count"),
    ("fastpath.eligible", "share"),
    ("cli.import_s", "s"),
    ("cli.render.s", "s"),
    ("trace.overhead_ratio", "ratio"),
]
# Per-layer keys taken as medians over the traced operations that reach them.
_LAYER_MEDIANS = [name for name, _ in PER_LAYER
                  if not name.startswith(("fastpath.", "cli.import", "trace.", "solvers.iters"))]


def _require_program() -> None:
    if not (SRC / "maxseg" / "__init__.py").is_file():
        sys.stderr.write(f"error: the maxseg sources are missing under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# Checking answers
# ---------------------------------------------------------------------------


def _check_rows(stdout: str, inst, refs) -> str:
    """Empty string when the CLI report matches the reference, else why not."""
    lines = stdout.splitlines()
    if not lines or lines[0].split("\t")[:3] != ["record_id", "start", "end"]:
        return "missing report header"
    rows = [line.split("\t") for line in lines[1:]]
    if len(rows) != len(refs):
        return f"{len(rows)} report rows for {len(refs)} records"
    for row, record, ref in zip(rows, inst.records, refs):
        if len(row) != 6:
            return f"malformed row {row!r}"
        rid, start, end, width, total, dens = row
        start_ref, end_ref, sum_ref, width_ref = ref
        if rid != record[0] or (int(start), int(end)) != (start_ref, end_ref):
            return f"record {rid!r}: got ({start}, {end}), reference ({start_ref}, {end_ref})"
        if Decimal(width) * inst.weight_scale != width_ref or \
                Decimal(total) * inst.value_scale != sum_ref:
            return f"record {rid!r}: width/sum {width}/{total} differ from the reference"
        exact = Fraction(sum_ref * inst.weight_scale, width_ref * inst.value_scale)
        if abs(Fraction(Decimal(dens)) - exact) > Fraction(1, 2 * 10 ** 9):
            return f"record {rid!r}: density {dens} is not {float(exact):.9f}"
    return ""


def _check_segment(seg, refs) -> str:
    got = (seg.start, seg.end, seg.density.sum, seg.density.width)
    return "" if got == tuple(refs[0]) else f"got {got}, reference {tuple(refs[0])}"


def _reference_answers(inst, seed: int):
    """Reference answers for the instance, and a list of integrity problems."""
    from reference import best_segment

    refs = [list(best_segment(v, w, L, U)) for _, v, w, L, U in inst.records]
    problems = []
    if inst.planted:  # the C09 rule: the answer covers half the planted window
        for (rid, *_), (start, end, _, _), (ps, pe) in zip(inst.records, refs, inst.planted):
            overlap = min(end, pe) - max(start, ps) + 1
            if 2 * overlap < pe - ps + 1:
                problems.append(f"record {rid!r}: reference misses the planted region")
    pinned = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
    want = pinned.get(inst.workload, {}).get(str(seed))
    if want is not None and want != refs:
        problems.append(f"reference {refs} differs from pinned answer {want} for seed {seed}")
    return refs, problems


# ---------------------------------------------------------------------------
# Machine and configuration record
# ---------------------------------------------------------------------------


def machine_config(workload: str, eligible_share: float) -> dict:
    import numpy

    from maxseg import fastpath

    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": bool(fastpath.HAVE_NUMBA),
        "fastpath_eligible": eligible_share,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_max": cpu_max,
        "MAXSEG_THREADS": MAXSEG_THREADS,
        "machine": platform.machine(),
        "workload": workload,
    }


def _eligible_share(inst) -> float:
    """Share of the input records (before any heavy-item split) the numba
    fast path would take; the sequences are assembled from numpy prefix
    sums, outside any timed region."""
    import numpy as np

    from maxseg import core, fastpath

    flags = []
    for _, v, w, _, _ in inst.records:
        pv = np.concatenate(([0], np.cumsum(v))).tolist()
        pw = np.concatenate(([0], np.cumsum(w))).tolist()
        seq = core.WeightedSequence(pv, pw, is_uniform=bool((w == 1).all()),
                                    min_weight=int(w.min()), max_weight=int(w.max()))
        flags.append(fastpath.eligible(seq))
    return sum(flags) / len(flags)


def compare(old_path: str, new_path: str) -> int:
    """Print per-metric change; configs that differ are not comparable."""
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    differ = sorted(k for k in set(old["config"]) | set(new["config"])
                    if old["config"].get(k) != new["config"].get(k))
    if differ or old["trace"] != new["trace"]:
        print(f"not comparable: config differs in {', '.join(differ) or 'trace'}")
        return 3
    for name, m in new["result"]["metrics"].items():
        before = old["result"]["metrics"].get(name, {}).get("value")
        if before:
            print(f"{name}\t{before:.6g} -> {m['value']:.6g} {m['unit']}"
                  f"\t({(m['value'] - before) / before:+.1%})")
    return 0


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["MAXSEG_THREADS"] = MAXSEG_THREADS
    return env


class Launcher:
    """Runs CLI children through ``launcher.py``, so each child's peak RSS
    is its own (see that file); start it before allocating inputs."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        return False

    def run(self, argv, tag: str):
        """Run one child to completion; returns (wall_s, peak_rss_mb, exit code, stdout)."""
        out_path = OUT / f"{tag}.out"
        err_path = OUT / f"{tag}.err"
        request = {"argv": argv, "out": str(out_path), "err": str(err_path),
                   "env": _child_env(), "cwd": str(ROOT), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if reply["returncode"] != 0:
            sys.stderr.write(err_path.read_text())
        return (reply["wall_s"], reply["maxrss_kb"] / 1024.0, reply["returncode"],
                out_path.read_text())


def rounds(runner, seconds: float):
    """Closed loop of rounds, each one set-up then one timed operation, until
    ``seconds`` have passed.  A shared host's speed drifts over tens of
    seconds; alternating lets the set-up samples and the operation samples
    each span the whole run rather than one half of it."""
    setups, samples = [], []
    deadline = perf_counter() + seconds
    while len(samples) < MIN_OPS or perf_counter() < deadline:
        setups.append(runner.setup(len(setups)))
        samples.append(runner.plain(len(samples)))
    return setups, samples


def timed_loop(op, seconds: float, min_ops: int):
    """Closed loop: run ``op`` back to back until ``seconds`` have passed."""
    samples = []
    deadline = perf_counter() + seconds
    while len(samples) < min_ops or perf_counter() < deadline:
        samples.append(op(len(samples)))
    return samples


def import_probe_s(launcher: Launcher) -> float:
    code = ("import time; t = time.perf_counter(); import maxseg.cli; "
            "print(time.perf_counter() - t)")
    values = []
    for k in range(IMPORT_PROBES):
        _, _, rc, out = launcher.run([sys.executable, "-c", code], f"import-probe-{k}")
        if rc != 0:
            raise RuntimeError("importing maxseg.cli failed")
        values.append(float(out.strip()))
    return statistics.median(values)


class FindWorkload:
    """One operation is one fresh ``python -m maxseg find`` process."""

    def __init__(self, inst, refs, args, launcher: Launcher):
        self.inst = inst
        self.refs = refs
        self.launcher = launcher
        self.input_path = OUT / f"{inst.workload}.input"
        self.input_path.write_text(inst.text)
        self.find_args = ["find", "--input", str(self.input_path)] + args

    def _op(self, argv, tag):
        wall, rss, rc, stdout = self.launcher.run(argv, tag)
        why = f"exit code {rc}" if rc != 0 else _check_rows(stdout, self.inst, self.refs)
        return wall, rss, why

    def plain(self, k):
        return self._op([sys.executable, "-m", "maxseg"] + self.find_args,
                        f"{self.inst.workload}-op")

    def setup(self, k):
        wall, _, why = self.plain(k)
        return wall, why

    def traced(self, k, docs):
        spans_path = OUT / f"{self.inst.workload}-spans-{k}.json"
        result = self._op([sys.executable, str(HERE / "traced_find.py"), str(spans_path),
                           str(k)] + self.find_args, f"{self.inst.workload}-traced")
        if spans_path.is_file():  # absent only when the child died early
            docs.append(json.loads(spans_path.read_text()))
            spans_path.unlink()
        return result

    def peak_rss(self, samples):
        return max(rss for _, rss, _ in samples)

    def eligible_share(self):
        return _eligible_share(self.inst)


class SolveWorkload:
    """One operation is one in-process ``solve`` on the C08 instance."""

    def __init__(self, inst, refs):
        self.inst = inst
        self.refs = refs
        p = inst.records[0]
        self.L, self.U = p[3], p[4]
        inst.records = [(p[0], None, None, p[3], p[4])]  # free the reference arrays
        self.seq = None

    def setup(self, k):
        from maxseg import core, solvers

        self.seq = None
        gc.collect()
        t0 = perf_counter()
        self.seq = core.build_sequence(self.inst.item_list)
        seg = solvers.solve(solvers.SolveRequest(self.seq, self.L, self.U))
        return perf_counter() - t0, _check_segment(seg, self.refs)

    def plain(self, k, counters=None):
        from maxseg import solvers

        req = solvers.SolveRequest(self.seq, self.L, self.U)
        t0 = perf_counter()
        try:
            seg = solvers.solve(req) if counters is None else solvers.solve(req, counters=counters)
        except Exception as exc:  # any raise is a failed operation
            return perf_counter() - t0, 0.0, f"{type(exc).__name__}: {exc}"
        return perf_counter() - t0, 0.0, _check_segment(seg, self.refs)

    def traced(self, k, tracer):
        from maxseg import core

        frame = tracer.begin_op(k)
        try:
            return self.plain(k, counters=core.OpCounters())
        finally:
            tracer.end_op(frame)

    def traced_setup(self, tracer):
        from maxseg import core

        self.seq = None
        gc.collect()
        frame = tracer.begin_op("setup")
        try:
            self.seq = core.build_sequence(self.inst.item_list)
        finally:
            tracer.end_op(frame)

    def peak_rss(self, samples):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def eligible_share(self):
        from maxseg import fastpath

        return float(fastpath.eligible(self.seq))


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def _find_args(workload: str):
    from workloads import FASTA_GC, TSV_WEIGHTED

    if workload == "fasta-gc":
        p = FASTA_GC
        return ["--format", "fasta", "--mapping", "gc", "--L", str(p["L"]), "--U", str(p["U"])]
    p = TSV_WEIGHTED
    return ["--format", "tsv", "--L", str(p["L"]), "--U", str(p["U"])]


def run_workload(name: str, seed: int, seconds: float, trace: bool, launcher: Launcher) -> dict:
    from workloads import GENERATORS

    inst = GENERATORS[name](seed)
    refs, problems = _reference_answers(inst, seed)
    runner = SolveWorkload(inst, refs) if name == "solve-c08" else \
        FindWorkload(inst, refs, _find_args(name), launcher)

    if not trace:
        setups, samples = rounds(runner, seconds)
        walls = [wall for wall, _, _ in samples]
        values = {
            "op_s_p50": statistics.median(walls),
            "items_per_s": inst.items * len(walls) / sum(walls),
            "peak_rss_mb": runner.peak_rss(samples),
            "setup_s": statistics.median(wall for wall, _ in setups),
        }
        units = dict(END_TO_END)
        eligible = runner.eligible_share()
    else:
        setups = [runner.setup(0)]
        samples, values, eligible = _traced_phase(runner, name, seed, seconds, launcher)
        walls = [wall for wall, _, _ in samples]
        units = dict(PER_LAYER)
    problems += [f"set-up answer wrong: {why}" for _, why in setups if why]
    report = {"workload": name, "seed": seed, "trace": int(trace), "items": inst.items,
              "setup_samples": [wall for wall, _ in setups]}
    failures = [why for _, _, why in samples if why]
    report["op_samples"] = walls
    report["failures"] = failures[:5]
    report["problems"] = problems
    report["config"] = machine_config(name, eligible)
    report["result"] = {
        "correct": not failures and not problems,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k, _ in
                    (PER_LAYER if trace else END_TO_END)},
    }
    return report


def _traced_phase(runner, name: str, seed: int, seconds: float, launcher: Launcher):
    """Untraced then traced operations; per-layer metrics from the traced ones."""
    from spans import COUNTER_FIELDS, Tracer, median_layers, per_op_layers

    plain = timed_loop(runner.plain, seconds / 2, MIN_TRACED_OPS)
    if isinstance(runner, SolveWorkload):
        tracer = Tracer()
        tracer.install()
        try:
            runner.traced_setup(tracer)
            traced = timed_loop(lambda k: runner.traced(k, tracer), seconds / 2, MIN_TRACED_OPS)
        finally:
            tracer.uninstall()
        doc = tracer.document()
    else:
        docs = []
        traced = timed_loop(lambda k: runner.traced(k, docs), seconds / 2, MIN_TRACED_OPS)
        doc = {key: [x for d in docs for x in d[key]] for key in ("spans", "aggregates")}
    (OUT / f"trace-{name}-{seed}.json").write_text(json.dumps(doc))

    ops = list(per_op_layers(doc).values())
    values = median_layers(ops, _LAYER_MEDIANS)
    pieces = sum(layers.get("solvers.pieces", 0) for layers in ops)
    eligible = sum(layers.get("fastpath.eligible_pieces", 0) for layers in ops)
    values["fastpath.eligible"] = eligible / pieces if pieces else 0.0
    iters = [sum(layers[f"solvers.counters.{f}"] for f in COUNTER_FIELDS) / runner.inst.items
             for layers in ops if "solvers.counters.init_merges" in layers]
    values["solvers.iters_per_item"] = statistics.median(iters) if iters else 0.0
    values["cli.import_s"] = import_probe_s(launcher)
    values["trace.overhead_ratio"] = (statistics.median(w for w, _, _ in traced)
                                      / statistics.median(w for w, _, _ in plain))
    _print_self_times(doc)
    return plain + traced, values, values["fastpath.eligible"]


def _print_self_times(doc) -> None:
    """Self seconds per layer, summed over the traced operations."""
    totals = {}
    for s in doc["spans"]:
        totals[s["name"]] = totals.get(s["name"], 0.0) + s["self_s"]
    for a in doc["aggregates"]:
        totals[a["name"]] = totals.get(a["name"], 0.0) + a["busy_s"]
    print("self time by layer (s, all traced operations):")
    for layer, value in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<40} {value:10.4f}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _print_table(report: dict) -> None:
    res = report["result"]
    name = report["workload"]
    n = res["attempted"]
    for metric, m in res["metrics"].items():
        note = f"n={n}" if metric == "op_s_p50" else ""
        if metric == "op_s_p50" and name == "solve-c08":
            note += f"  (ROADMAP figure {ROADMAP_C08_S} s)"
        print(f"{name:<13} {metric:<40} {m['value']:>14.6g} {m['unit']:<10} {note}")
    if not report["trace"]:
        print(f"{name:<13} {'failed_ratio':<40} {res['failed'] / n:>14.6g} {'ratio':<10} "
              f"({res['failed']}/{n})")
    for why in report["problems"] + report["failures"]:
        print(f"{name:<13} FAILED: {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["fasta-gc", "solve-c08", "tsv-weighted", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two result records written under .bench_out/")
    args = parser.parse_args(argv)
    _require_program()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    OUT.mkdir(exist_ok=True)
    names = ["fasta-gc", "solve-c08", "tsv-weighted"] if args.workload == "all" else [args.workload]
    reports = []
    with Launcher() as launcher:
        for name in names:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace), launcher)
            record = OUT / f"result-{name}-{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps(report, indent=1))
            _print_table(report)
            reports.append(report)
    print(f"config: {json.dumps(reports[0]['config'])}")

    if len(reports) == 1:
        result = reports[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in reports),
            "attempted": sum(r["result"]["attempted"] for r in reports),
            "failed": sum(r["result"]["failed"] for r in reports),
            "metrics": {f"{r['workload']}/{k}": m for r in reports
                        for k, m in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
