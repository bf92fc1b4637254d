"""The benchmark's own tests: reference exactness, repeatable trace counts,
pinned answers that fail the run, and agreement with BENCHMARK.json.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import functools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from maxseg import build_sequence  # noqa: E402
from maxseg.oracle import brute_force_best  # noqa: E402
from reference import best_segment  # noqa: E402
from spans import per_op_layers  # noqa: E402
from workloads import fasta_gc, solve_c08, tsv_weighted  # noqa: E402

SMALL = 0.02


def _oracle(values, weights, L, U):
    seg = brute_force_best(build_sequence(zip(values.tolist(), weights.tolist())), L, U)
    return seg.start, seg.end, seg.sum, seg.width


def _small_instances(seed):
    """Small instances from each generator, at the workload's own bounds."""
    yield from fasta_gc(seed, scale=0.002).records  # 4 x 600 bases
    yield from solve_c08(seed, scale=0.0008).records  # 800 items
    yield from tsv_weighted(seed, scale=0.003, heavy_rate=0.02).records  # 450 rows


@pytest.mark.parametrize("seed", range(6))
def test_reference_matches_oracle_on_generator_instances(seed):
    for _, values, weights, L, U in _small_instances(seed):
        assert best_segment(values, weights, L, U) == _oracle(values, weights, L, U)


@pytest.mark.parametrize("seed", range(6))
def test_reference_tie_rule_on_narrow_bounds(seed):
    # Narrow windows over the same data make equal-density ties common.
    rng = random.Random(seed)
    for _, values, weights, _, _ in _small_instances(seed):
        values, weights = values[:120], weights[:120]
        total = int(weights.sum())
        L = rng.randint(1, max(1, total // 20))
        U = rng.randint(L, L + 3 * int(weights.max()))
        try:
            want = _oracle(values, weights, L, U)
        except Exception:
            with pytest.raises(ValueError):
                best_segment(values, weights, L, U)
            continue
        assert best_segment(values, weights, L, U) == want


COUNT_KEYS = ("solvers.counters.", "core.compute_bounds.cursor_advances", "solvers.pieces")


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink every generator and start from an empty pinned-answer file."""
    import workloads

    for name, generate in list(workloads.GENERATORS.items()):
        monkeypatch.setitem(workloads.GENERATORS, name, functools.partial(generate, scale=SMALL))
    monkeypatch.setattr(run, "PINNED", tmp_path / "pinned.json")
    run.OUT.mkdir(exist_ok=True)
    return run.PINNED


def _run_small(workload, seed, trace):
    with run.Launcher() as launcher:
        return run.run_workload(workload, seed, 0.1, trace, launcher)


def _trace_counts(workload, seed):
    report = _run_small(workload, seed, trace=True)
    assert report["result"]["correct"], report["problems"] + report["failures"]
    doc = json.loads((run.OUT / f"trace-{workload}-{seed}.json").read_text())
    per_op = []
    for op, layers in per_op_layers(doc).items():
        if op == "setup":
            continue
        per_op.append({k: v for k, v in layers.items()
                       if k.endswith(".calls") or k.startswith(COUNT_KEYS)})
    return per_op


@pytest.mark.parametrize("workload", ["fasta-gc", "solve-c08", "tsv-weighted"])
def test_trace_counts_repeat_exactly(small, workload):
    first = _trace_counts(workload, 4)
    second = _trace_counts(workload, 4)
    assert first and all(ops == first[0] for ops in first + second)
    assert first[0]["solvers.solve.calls"] >= 1


def test_split_copies_count_as_solve_self_time(small, monkeypatch):
    # With 2% of rows wider than U, solve splits the input and copies each
    # piece; the copies belong to solve's self time, not to ingest.
    import workloads

    monkeypatch.setitem(workloads.GENERATORS, "tsv-weighted",
                        functools.partial(tsv_weighted, scale=SMALL, heavy_rate=0.02))
    layers = _trace_counts("tsv-weighted", 3)[0]
    assert layers["solvers.pieces"] > 10
    assert layers["core.build_sequence.calls"] == 1  # the ingest build only


def test_wrong_pinned_answer_fails_the_run(small, capsys):
    inst = solve_c08(2, SMALL)
    right = [list(best_segment(*rec[1:])) for rec in inst.records]
    args = ["--workload", "solve-c08", "--seed", "2", "--seconds", "0.1", "--trace", "0"]

    small.write_text(json.dumps({"solve-c08": {"2": right}}))
    assert run.main(args) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is True

    wrong = [[right[0][0] + 1] + right[0][1:]]
    small.write_text(json.dumps({"solve-c08": {"2": wrong}}))
    assert run.main(args) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_without_the_program_the_run_fails_silently(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fasta-gc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["fasta-gc", "tsv-weighted"]


def test_configs_that_differ_are_not_comparable(tmp_path):
    base = {"trace": 0, "config": run.machine_config("solve-c08", 0.0),
            "result": {"metrics": {"op_s_p50": {"value": 1.0, "unit": "s"}}}}
    other = json.loads(json.dumps(base))
    other["config"]["numba"] = not base["config"]["numba"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(other))
    assert run.compare(str(a), str(a)) == 0
    assert run.compare(str(a), str(b)) == 3


def test_child_peak_rss_excludes_the_benchmark_process():
    run.OUT.mkdir(exist_ok=True)
    with run.Launcher() as launcher:
        ballast = bytearray(80 << 20)  # touched pages raise this process's high-water mark
        ballast[::4096] = b"x" * len(ballast[::4096])
        _, rss_mb, rc, _ = launcher.run([sys.executable, "-c", "pass"], "rss-probe")
        del ballast
    assert rc == 0 and rss_mb < 60
