import io
import os
import subprocess
import sys

import pytest

import maxseg.cli as cli
from maxseg import DensityValue, Segment
from maxseg.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_cli(argv, monkeypatch=None, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    import sys

    real_out, real_err, real_in = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr = out, err
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = real_out, real_err, real_in
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def fasta_file(tmp_path):
    path = tmp_path / "in.fa"
    path.write_text(">s\nATGCGC\n")
    return str(path)


class TestFind:
    def test_fasta_gc_window(self, fasta_file):
        code, out, err = run_cli(
            ["find", "--input", fasta_file, "--format", "fasta",
             "--mapping", "gc", "--L", "2", "--U", "3"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "record_id\tstart\tend\twidth\tsum\tdensity"
        assert lines[1] == "s\t3\t4\t2\t2\t1.000000000"

    def test_stdin_tsv_single_item(self):
        code, out, _ = run_cli(
            ["find", "--input", "-", "--format", "tsv", "--L", "1", "--U", "1"],
            stdin="5\t1\n",
        )
        assert code == 0
        assert out.splitlines()[1] == "r1\t1\t1\t1\t5\t5.000000000"

    def test_infeasible_exit_code(self, tmp_path):
        path = tmp_path / "u.fa"
        path.write_text(">tiny\nACGT\n")
        code, out, err = run_cli(
            ["find", "--input", str(path), "--format", "fasta", "--L", "10"]
        )
        assert code == 2
        assert "InfeasibleWidthWindow" in err
        assert out.splitlines() == ["record_id\tstart\tend\twidth\tsum\tdensity"]

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_text("ACGT\n")
        code, _, err = run_cli(
            ["find", "--input", str(path), "--format", "fasta", "--L", "2"]
        )
        assert code == 1
        assert "MalformedFasta" in err

    def test_exact_flag(self, fasta_file):
        code, out, _ = run_cli(
            ["find", "--input", fasta_file, "--format", "fasta",
             "--L", "2", "--U", "3", "--exact"]
        )
        assert code == 0
        assert out.splitlines()[1].endswith("\t2/2")

    def test_huang_mapping(self, tmp_path):
        path = tmp_path / "h.fa"
        path.write_text(">s\nGCAT\n")
        code, out, _ = run_cli(
            ["find", "--input", str(path), "--format", "fasta",
             "--mapping", "huang:0.5", "--L", "2", "--U", "2"]
        )
        assert code == 0
        # best 2-wide window is GC: (0.5 + 0.5) / 2
        assert out.splitlines()[1] == "s\t1\t2\t2\t1\t0.500000000"

    def test_fractional_width_bounds_tsv(self):
        code, out, _ = run_cli(
            ["find", "--input", "-", "--format", "tsv", "--L", "1.5", "--U", "2.5"],
            stdin="9\t1\n1\t1\n8\t1\n",
        )
        assert code == 0
        # widths are scaled to tenths; only 2-item windows fit [1.5, 2.5]
        line = out.splitlines()[1]
        assert line == "r1\t1\t2\t2\t10\t5.000000000"

    def test_compress_flag(self):
        code, out, _ = run_cli(
            ["find", "--input", "-", "--format", "tsv",
             "--L", "2", "--U", "4", "--compress", "--exact"],
            stdin="1\t1\n1\t1\n0\t1\n0\t1\n",
        )
        assert code == 0
        # runs merge to (2,2), (0,2); best window of width in [2,4] is the run (1,2)
        assert out.splitlines()[1] == "r1\t1\t1\t2\t2\t2/2"

    def test_strict_flag(self, tmp_path):
        path = tmp_path / "n.fa"
        path.write_text(">s\nAXGT\n")
        code, _, err = run_cli(
            ["find", "--input", str(path), "--format", "fasta",
             "--L", "1", "--strict"]
        )
        assert code == 1
        assert "UnknownSymbol" in err

    def test_debug_dump(self, fasta_file):
        code, out, err = run_cli(
            ["find", "--input", fasta_file, "--format", "fasta",
             "--L", "2", "--U", "3", "--debug-dump"]
        )
        assert code == 0
        assert "index\tpointer\tbucket" in err
        assert "index\tpointer" in err

    def test_multi_record_order_with_threads(self, tmp_path):
        path = tmp_path / "multi.fa"
        path.write_text(">a\nGGGG\n>b\nATAT\n>c\nGCGC\n")
        code, out, _ = run_cli(
            ["find", "--input", str(path), "--format", "fasta", "--L", "2", "--U", "4"]
        )
        assert code == 0
        ids = [line.split("\t")[0] for line in out.splitlines()[1:]]
        assert ids == ["a", "b", "c"]

    def test_records_mapped_and_solved_one_at_a_time(self, tmp_path, monkeypatch):
        path = tmp_path / "multi.fa"
        path.write_text(">a\nGGGG\n>b\nATAT\n>c\nGCGC\n")
        mapped = 0
        seen = []
        real_map, real_solve = cli.map_to_sequence, cli.solve

        def counting_map(*a, **kw):
            nonlocal mapped
            mapped += 1
            return real_map(*a, **kw)

        def recording_solve(*a, **kw):
            seen.append(mapped)
            return real_solve(*a, **kw)

        monkeypatch.setattr(cli, "map_to_sequence", counting_map)
        monkeypatch.setattr(cli, "solve", recording_solve)
        code, _, _ = run_cli(
            ["find", "--input", str(path), "--format", "fasta", "--L", "2", "--U", "4"]
        )
        assert code == 0
        assert seen == [1, 2, 3]  # the k-th solve follows exactly k mappings

    def test_mixed_feasibility_with_debug_dump(self, tmp_path):
        path = tmp_path / "mixed.fa"
        path.write_text(">a\nGGCCAT\n>b\nAT\n>c\nGCGCAAAT\n")
        code, out, err = run_cli(
            ["find", "--input", str(path), "--format", "fasta",
             "--L", "3", "--U", "5", "--debug-dump"]
        )
        assert code == 2
        ids = [line.split("\t")[0] for line in out.splitlines()[1:]]
        assert ids == ["a", "c"]
        notes = [line for line in err.splitlines() if "InfeasibleWidthWindow" in line]
        assert len(notes) == 1 and notes[0].startswith("record 'b':")
        headers = [line for line in err.splitlines() if line.startswith("# record ")]
        assert headers == ["# record 'a'", "# record 'b'", "# record 'c'"]

    def test_input_error_in_later_record_leaves_stdout_empty(self, tmp_path):
        path = tmp_path / "late.fa"
        path.write_text(">a\nGGCCAT\n>b\nAXGT\n")
        code, out, err = run_cli(
            ["find", "--input", str(path), "--format", "fasta",
             "--L", "2", "--strict"]
        )
        assert code == 1
        assert out == ""
        assert "UnknownSymbol" in err

    def test_deterministic_output(self, fasta_file):
        runs = [
            run_cli(["find", "--input", fasta_file, "--format", "fasta",
                     "--L", "2", "--U", "3"])
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_mapping_rejected_for_tsv(self):
        code, _, err = run_cli(
            ["find", "--input", "-", "--format", "tsv",
             "--mapping", "huang:0.5", "--L", "1"],
            stdin="1\t1\n",
        )
        assert code == 1
        assert "FASTA" in err

    def test_reported_density_recomputes_from_reported_fields(self):
        # rendered density always equals sum/width of the reported endpoints
        from decimal import Decimal

        code, out, _ = run_cli(
            ["find", "--input", "-", "--format", "tsv", "--L", "2", "--U", "3.5"],
            stdin="1.5\t2\n-0.25\t0.5\n2\t1\n",
        )
        assert code == 0
        _, start, end, width, total, dens = out.splitlines()[1].split("\t")
        want = Decimal(total) / Decimal(width)
        assert abs(Decimal(dens) - want) <= Decimal("5e-10")


class TestVerify:
    def test_uniform_pass(self):
        code, out, _ = run_cli(
            ["verify", "--seeds", "40", "--max-n", "30", "--model", "uniform"]
        )
        assert code == 0
        assert out.splitlines()[0] == "40/40 pass"

    def test_general_pass(self):
        code, out, _ = run_cli(
            ["verify", "--seeds", "25", "--max-n", "25", "--model", "general",
             "--seed", "7"]
        )
        assert code == 0
        assert "25/25 pass" in out

    def test_single_trivial_instance(self):
        code, out, _ = run_cli(["verify", "--seeds", "1", "--max-n", "1"])
        assert code == 0
        assert "1/1 pass" in out

    def test_fixed_bounds(self):
        code, out, _ = run_cli(
            ["verify", "--seeds", "20", "--max-n", "30", "--L-U", "fixed:2,5"]
        )
        assert code == 0

    @pytest.mark.parametrize("text", ["fixed:5", "fixed:1,2,3", "fixed:a,2", "fixed", "5,6", "fixed:5,2"])
    def test_malformed_fixed_bounds_rejected(self, text):
        code, out, err = run_cli(["verify", "--seeds", "2", "--L-U", text])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ValueError: --L-U: ")
        assert repr(text) in err

    def test_mutant_comparator_caught(self, monkeypatch):
        # a broken solver must produce a counterexample seed and exit nonzero
        def mutant(req, **kw):
            return Segment(1, 1, DensityValue(req.seq.prefix_value[1] - 1, 1))

        monkeypatch.setattr(cli, "solve", mutant)
        code, out, _ = run_cli(["verify", "--seeds", "10", "--max-n", "20"])
        assert code == 1
        assert "first counterexample: seed=" in out


class TestBench:
    def test_csv_shape_and_linear_counters(self):
        code, out, _ = run_cli(
            ["bench", "--sizes", "1e3,2e3", "--algo", "l-only", "--repeat", "2"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "algo,n,L,U,wall_nanos,loop_iterations"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[1] for r in rows] == ["1000", "2000"]
        for r in rows:
            n, iters = int(r[1]), int(r[5])
            assert iters <= 4 * n
            assert r[3] == "max"

    def test_times_pure_sweeps_without_numpy(self):
        # bench times the paper's sweeps at every size: numpy is never
        # imported, and the loop counters are those of a sweep that ran
        script = (
            "import sys, maxseg.cli\n"
            "code = maxseg.cli.main(['bench', '--sizes', '5000', '--algo', 'uniform-lu'])\n"
            "assert code == 0\n"
            "assert 'numpy' not in sys.modules, 'bench imported numpy'\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        row = proc.stdout.splitlines()[1].split(",")
        assert row[:2] == ["uniform-lu", "5000"]
        assert int(row[5]) > 0

    def test_degenerate_size(self):
        code, out, _ = run_cli(["bench", "--sizes", "1", "--algo", "uniform-lu"])
        assert code == 0
        assert out.splitlines()[1].startswith("uniform-lu,1,")

    def test_general_and_baseline_algos(self):
        code, out, _ = run_cli(
            ["bench", "--sizes", "500", "--algo", "general-lu", "--L", "8", "--U", "39"]
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        beta = (39 - 8 + 1).bit_length() - 1
        assert int(row[5]) <= 4 * 500 * (beta + 1)
        code, out, _ = run_cli(["bench", "--sizes", "400", "--algo", "baseline-logl"])
        assert code == 0
