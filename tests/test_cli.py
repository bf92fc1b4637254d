import gc
import io
import itertools
import os
import random
import re
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import maxseg.cli as cli
import maxseg.dev as dev
from maxseg import (
    DensityValue,
    InfeasibleWidthWindow,
    MalformedFasta,
    MaxsegError,
    Segment,
    UnknownSymbol,
    brute_force_best,
    density,
    make_segment,
    parse_tsv,
)
from maxseg import fastpath
from maxseg.cli import main
from maxseg.errors import MisencodedFasta

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


def run_python(script):
    """Run a script in a fresh interpreter that imports maxseg from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)


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

    def test_closed_stdin_is_refused(self, monkeypatch):
        # `find --input - <&-` leaves sys.stdin None
        monkeypatch.setattr(sys, "stdin", None)
        for fmt in ("fasta", "tsv"):
            assert run_cli(["find", "--input", "-", "--format", fmt, "--L", "2"]) == (
                1, "", "error: ValueError: --input -: stdin is closed\n")

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
        # the bounds snap onto the unit grid as [2, 2]: only 2-item windows fit
        line = out.splitlines()[1]
        assert line == "r1\t1\t2\t2\t10\t5.000000000"

    def test_bounds_snap_onto_the_weight_grid(self, tmp_path):
        path = tmp_path / "u.fa"
        path.write_text(">s\nGCGCAT\n")
        find = ["find", "--input", str(path), "--format", "fasta"]
        # no whole number of bases lies in the window: infeasible, not rounded to 2
        code, out, err = run_cli(find + ["--L", "2.0000000001", "--U", "2.0000000004"])
        assert code == 2
        assert out.splitlines() == [cli.REPORT_HEADER]
        assert err.startswith("record 's': InfeasibleWidthWindow")
        # [1.0000000001, 3.9999999999] admits the widths 2 and 3
        code, out, _ = run_cli(find + ["--L", "1.0000000001", "--U", "3.9999999999"])
        assert code == 0
        assert out.splitlines()[1] == "s\t1\t2\t2\t2\t1.000000000"

    @pytest.mark.parametrize("flag", ["--L", "--U"])
    @pytest.mark.parametrize("text", ["nan", "inf", "1e1000", "x", "1e0", "+2", ".5", "5.",
                                      "2_0", "\u0662", " 2 ", "Infinity"])
    def test_bounds_refused(self, fasta_file, flag, text):
        # a bound is read by the TSV fields' decimal syntax, -?[0-9]+(.[0-9]+)?
        bounds = {"--L": "1", "--U": "3", flag: text}
        code, out, err = run_cli(["find", "--input", fasta_file, "--format", "fasta",
                                  "--L", bounds["--L"], "--U", bounds["--U"]])
        assert code == 1
        assert out == ""
        assert err == f"error: ValueError: {flag}: not a decimal number: {text!r}\n"

    @given(
        items=st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 30)),
                       min_size=1, max_size=10),
        # tenths, on the grid or off it by one unit in the 2nd to 12th place
        bounds=st.lists(
            st.builds(lambda t, e, p: Decimal(t).scaleb(-1) + Decimal(e).scaleb(-p),
                      st.integers(1, 120), st.integers(-1, 1), st.integers(2, 12)),
            min_size=2, max_size=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_fractional_bounds_match_oracle(self, items, bounds):
        # find snaps [L, U] onto the weight grid; the oracle takes the exact
        # rational bounds, so both must admit the same widths
        L, U = sorted(bounds)
        text = "".join(f"{a}\t{w // 10}.{w % 10}\n" for a, w in items)
        code, out, _ = run_cli(
            ["find", "--input", "-", "--format", "tsv", "--L", f"{L:f}", "--U", f"{U:f}"],
            stdin=text,
        )
        seq = parse_tsv(text)
        ws = seq.weight_scale
        try:
            want = brute_force_best(seq, Fraction(L) * ws, Fraction(U) * ws)
        except InfeasibleWidthWindow:
            assert code == 2
            return
        assert code == 0
        _, start, end, *_ = out.splitlines()[1].split("\t")
        assert (int(start), int(end)) == (want.start, want.end)

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

    def test_multi_record_order(self, tmp_path):
        path = tmp_path / "multi.fa"
        path.write_text(">a\nGGGG\n>b\nATAT\n>c\nGCGC\n")
        code, out, _ = run_cli(
            ["find", "--input", str(path), "--format", "fasta", "--L", "2", "--U", "4"]
        )
        assert code == 0
        ids = [line.split("\t")[0] for line in out.splitlines()[1:]]
        assert ids == ["a", "b", "c"]

    def test_records_mapped_and_solved_one_at_a_time(self, tmp_path, monkeypatch):
        from maxseg import bio

        mapped = 0
        seen = []
        real_map, real_solve = bio._map_bases, cli.solve

        def counting_map(*a, **kw):
            nonlocal mapped
            mapped += 1
            return real_map(*a, **kw)

        def recording_solve(*a, **kw):
            seen.append(mapped)
            return real_solve(*a, **kw)

        monkeypatch.setattr(bio, "_map_bases", counting_map)
        monkeypatch.setattr(cli, "solve", recording_solve)
        path = tmp_path / "multi.fa"
        path.write_text(">a\nGGGG\n>b\nATAT\n>c\nGCGC\n")
        code, _, _ = run_cli(
            ["find", "--input", str(path), "--format", "fasta", "--L", "2", "--U", "4"]
        )
        assert code == 0
        assert seen == [1, 2, 3]  # the k-th solve follows exactly k mappings

    def test_input_dropped_before_each_solve(self, tmp_path, monkeypatch):
        # FASTA is streamed and never read whole.  TSV input that is read
        # whole, and its decoded text, are dropped once they are parsed: no
        # solve runs while either is alive.
        fasta = tmp_path / "multi.fa"
        fasta.write_text(">a\nGGGGAT\n>b\nATATGC\n>c\nGCGCAA\n")
        tsv = tmp_path / "in.tsv"
        tsv.write_text("1\t1\n-2\t1\n3\t2\n")
        alive = set()
        real_open, real_solve = cli._open_input, cli.solve

        def tracked(obj):
            alive.add(id(obj))
            return obj

        class Text(str):
            def __del__(self):
                alive.discard(id(self))

        class Data(bytes):  # the input read whole; parsers decode it
            def __del__(self):
                alive.discard(id(self))

            def decode(self, *args, **kwargs):
                return tracked(Text(super().decode(*args, **kwargs)))

        class Source:
            def __init__(self, path):
                self.path, self.fh = path, real_open(path)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def seek(self, at):
                return self.fh.seek(at)

            def read(self, size=-1):
                if size is not None and size >= 0:
                    return self.fh.read(size)
                assert self.path != str(fasta), "streamed FASTA is read whole"
                return tracked(Data(self.fh.read()))

        def solving(*a, **kw):
            assert not alive, "the input bytes or text are alive during a solve"
            return real_solve(*a, **kw)

        monkeypatch.setattr(cli, "_open_input", Source)
        monkeypatch.setattr(cli, "solve", solving)
        for path, fmt in ((fasta, "fasta"), (tsv, "tsv")):
            code, out, _ = run_cli(["find", "--input", str(path), "--format", fmt,
                                    "--L", "2", "--U", "4"])
            assert code == 0 and len(out.splitlines()) == (4 if fmt == "fasta" else 2)

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

    def test_strict_rejected_for_tsv(self):
        code, out, err = run_cli(
            ["find", "--input", "-", "--format", "tsv", "--strict", "--L", "1"],
            stdin="1\t1\n",
        )
        assert code == 1
        assert out == ""
        assert err == "error: ValueError: --strict applies to FASTA input only\n"

    @pytest.mark.parametrize("argv, msg", [
        (["--format", "fasta", "--mapping", "at"],
         "--mapping: expected 'gc' or 'huang:P', got 'at'"),
        (["--format", "fasta", "--mapping", "huang:2"], "huang p must lie in [0, 1], got 2"),
        (["--format", "tsv", "--mapping", "huang:0.4"], "--mapping applies to FASTA input only"),
        (["--format", "tsv", "--strict"], "--strict applies to FASTA input only"),
        (["--format", "tsv", "--U", "01.50"], "need L <= U, got L=2 U=01.50"),  # as given
    ], ids=["fasta-mapping", "fasta-huang-p", "tsv-mapping", "tsv-strict", "bounds-order"])
    def test_flag_errors_come_before_a_missing_input(self, tmp_path, argv, msg):
        missing = str(tmp_path / "missing.txt")
        assert run_cli(["find", "--input", missing, "--L", "2"] + argv) == (
            1, "", f"error: ValueError: {msg}\n")

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

    def test_find_on_short_fasta_never_imports_numpy(self, tmp_path):
        # records below the backend's size are mapped and solved by the pure
        # path, so find pays no numpy import for them
        path = tmp_path / "short.fa"
        path.write_text(">a\nACGTGGCCATATGCGC\n>b\n" + "GATC" * 1023 + "\n")
        script = (
            "import sys, maxseg.cli, maxseg.fastpath\n"
            "assert 4 * 1023 < maxseg.fastpath.MIN_FAST_N\n"
            f"code = maxseg.cli.main(['find', '--input', {str(path)!r}, '--format', 'fasta',"
            " '--mapping', 'huang:0.45', '--L', '4', '--U', '8', '--strict'])\n"
            "assert code == 0\n"
            "assert 'numpy' not in sys.modules, 'find imported numpy'\n"
        )
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        assert [row.split("\t")[0] for row in proc.stdout.splitlines()] == ["record_id", "a", "b"]

    def test_find_on_short_tsv_never_imports_numpy(self, tmp_path):
        # text of fewer lines than the backend's size is read by the pure
        # reader into Python ints and solved by the pure sweeps
        path = tmp_path / "short.tsv"
        rows = "".join(f"{k % 7 - 3}.{k % 10}5\t{1 + k % 3}.5\n" for k in range(4094))
        path.write_text("# value\tweight\n" + rows)
        script = (
            "import sys, maxseg.cli, maxseg.fastpath\n"
            f"assert open({str(path)!r}).read().count('\\n') < maxseg.fastpath.MIN_FAST_N\n"
            f"code = maxseg.cli.main(['find', '--input', {str(path)!r}, '--format', 'tsv',"
            " '--L', '4', '--U', '8', '--exact'])\n"
            "assert code == 0\n"
            "assert 'numpy' not in sys.modules, 'find imported numpy'\n"
        )
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        assert [row.split("\t")[0] for row in proc.stdout.splitlines()] == ["record_id", "r1"]

    def test_backend_find_loads_only_what_it_runs(self, tmp_path):
        # the package loads no submodule until a name is read, and a find
        # that the backend answers loads no sweep, oracle or verify/bench
        # code, nor the dataclasses and statistics modules
        path = tmp_path / "long.fa"
        path.write_text(">a\n" + "GATTACAGGC" * (fastpath.MIN_FAST_N // 10 + 1) + "\n")
        script = (
            "import runpy, sys\n"
            "import maxseg\n"
            "assert not [m for m in sys.modules if m.startswith('maxseg.')], 'submodule loaded'\n"
            "assert set(maxseg.__all__) <= set(dir(maxseg))\n"
            f"sys.argv = ['maxseg', 'find', '--input', {str(path)!r}, '--format', 'fasta',"
            " '--L', '10', '--U', '20']\n"
            "try:\n"
            "    runpy.run_module('maxseg', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "assert 'numpy' in sys.modules\n"
            "print([m for m in ('maxseg.oracle', 'maxseg.sweep_left', 'maxseg.sweep_right',"
            " 'maxseg.dev', 'statistics', 'dataclasses') if m in sys.modules])\n"
        )
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("caller", [None, "2"])
    def test_run_gives_openblas_one_thread_unless_the_caller_set_it(self, tmp_path, caller):
        # find calls no BLAS routine: numpy's first import inside run() then
        # starts no OpenBLAS worker, and a caller's own setting is kept
        if caller is None and not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc to count the process's threads")
        path = tmp_path / "long.fa"
        path.write_text(">a\n" + "GATTACAGGC" * (fastpath.MIN_FAST_N // 10 + 1) + "\n")
        script = (
            "import os, sys\n"
            + ("os.environ.pop('OPENBLAS_NUM_THREADS', None)\n" if caller is None
               else f"os.environ['OPENBLAS_NUM_THREADS'] = {caller!r}\n")
            + "import maxseg.cli\n"
            f"sys.argv = ['maxseg', 'find', '--input', {str(path)!r}, '--format', 'fasta',"
            " '--mapping', 'gc', '--L', '10', '--U', '20']\n"
            "assert maxseg.cli.run() == 0\n"
            "assert 'numpy' in sys.modules\n"
            "task = '/proc/self/task'  # threads are counted only where /proc is\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'],"
            " len(os.listdir(task)) if os.path.isdir(task) else '-')\n"
        )
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        setting, threads = proc.stdout.splitlines()[-1].split()
        if caller is None:
            assert (setting, threads) == ("1", "1")
        else:
            assert setting == caller


def _tsv_rows(n):
    """n rows of (hundredths, tenths) decimals, the same for every n."""
    return [f"{'-' if v < 0 else ''}{abs(v) // 100}.{abs(v) % 100:02d}\t{1 + k % 3}.{(k * 7) % 10}"
            for k, v in ((k, (k * 7919) % 1801 - 900) for k in range(n))]


class TestTsvFiles:
    # A TSV file is read as bytes.  Line ends, comments and encodings give
    # the stdout, stderr and exit code that reading it as text gave.
    BODY = "\n".join(_tsv_rows(5000))
    ARGV = ["--format", "tsv", "--L", "10", "--U", "50.5"]
    ANSWER = ("record_id\tstart\tend\twidth\tsum\tdensity\n"
              "r1\t4937\t4940\t10\t14.12\t1.412000000\n")
    CASES = {
        "lf": ("# value\tweight\n" + BODY + "\n").encode(),
        "crlf": ("# value\tweight\r\n" + BODY.replace("\n", "\r\n") + "\r\n").encode(),
        "cr": ("# value\tweight\r" + BODY.replace("\n", "\r") + "\r").encode(),
        "non-ascii comment": ("# valeur \u00e9t\u00e9\tpoids\n" + BODY + "\n").encode(),
        "no final lf": ("# value\tweight\n" + BODY).encode(),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_line_ends_and_comments(self, tmp_path, name):
        path = tmp_path / "in.tsv"
        path.write_bytes(self.CASES[name])
        assert run_cli(["find", "--input", str(path)] + self.ARGV) == (0, self.ANSWER, "")
        assert run_cli(["find", "--input", "-"] + self.ARGV,
                       stdin=self.CASES[name].decode()) == (0, self.ANSWER, "")

    @pytest.mark.parametrize("mapping", [[], ["--mapping", "huang:0.4"]])
    def test_invalid_utf8_is_refused_after_the_flags(self, tmp_path, mapping):
        path = tmp_path / "in.tsv"
        path.write_bytes(self.CASES["lf"] + b"# \xff bad\n")
        assert run_cli(["find", "--input", str(path)] + self.ARGV + mapping) == (
            1, "", "error: ValueError: --mapping applies to FASTA input only\n" if mapping
            else "error: MalformedTsv: line 5002: comment is not UTF-8\n")

    @pytest.mark.parametrize("data, line", [
        ("# header\n\n1\t1\n2\t0\n", 4),
        ("# value\tweight\n" + "\n".join(_tsv_rows(2999) + ["3\t-0.0"] + _tsv_rows(2000)), 3001),
    ], ids=["short", "long"])
    def test_non_positive_weight_refused_with_its_line(self, tmp_path, data, line):
        path = tmp_path / "in.tsv"
        path.write_bytes(data.encode())
        want = (1, "", f"error: MalformedTsv: line {line}: weight must be > 0\n")
        assert run_cli(["find", "--input", str(path)] + self.ARGV) == want
        assert run_cli(["find", "--input", "-"] + self.ARGV, stdin=data) == want

    def test_a_field_outside_the_grammar_is_refused_at_every_size(self, tmp_path):
        # One such row in a file long enough for the array path is refused
        # at its line, not read by a more lenient parser.
        rows = _tsv_rows(fastpath.MIN_FAST_N + 10)
        k = len(rows) - 7
        rows[k - 1] = "1_000\t1"
        data = "\n".join(rows) + "\n"
        path = tmp_path / "in.tsv"
        path.write_bytes(data.encode())
        want = (1, "", f"error: MalformedTsv: line {k}: not a decimal number: '1_000'\n")
        assert run_cli(["find", "--input", str(path)] + self.ARGV) == want
        assert run_cli(["find", "--input", "-"] + self.ARGV, stdin=data) == want

    def test_mapping_refused_on_a_valid_file(self, tmp_path):
        path = tmp_path / "in.tsv"
        path.write_bytes(self.CASES["lf"])
        assert run_cli(["find", "--input", str(path), "--mapping", "huang:0.4"] + self.ARGV) == (
            1, "", "error: ValueError: --mapping applies to FASTA input only\n")


class TestStdinMatchesFile:
    # `find --input -` reads stdin's bytes under the rule a file's bytes get,
    # so the same bytes give the same stdout, stderr and exit code either way.
    CASES = [
        ("tsv", b"# \xff bad\n1\t1\n-2\t1\n3\t2\n"),
        ("tsv", "# poids \u00e9t\u00e9\r\n1\t1\r\n-2\t1\r\n3.5\t2\r\n".encode()),
        ("fasta", b">r\nAC\xffGT\n"),
        ("fasta", ">r \u00e9\r\nACGGC\r\nTA\rGC\n".encode()),
    ]

    @pytest.mark.parametrize("fmt,data", CASES, ids=[
        "tsv-invalid-utf8", "tsv-crlf-non-ascii", "fasta-invalid-utf8", "fasta-cr-non-ascii"])
    def test_same_bytes_same_result(self, tmp_path, fmt, data):
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))

        def find(source, stdin):
            proc = subprocess.run(
                [sys.executable, "-m", "maxseg", "find", "--input", source,
                 "--format", fmt, "--L", "2", "--U", "4"],
                input=stdin, capture_output=True, env=env, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        from_file = find(str(path), b"")
        assert find("-", data) == from_file
        if fmt == "fasta" and b"\xff" in data:
            assert from_file == (1, b"", b"error: MisencodedFasta: line 2: "
                                 b"non-ASCII byte 0xff in a sequence line\n")
        elif b"\xff" in data:
            assert from_file == (1, b"", b"error: MalformedTsv: line 1: comment is not UTF-8\n")
        else:
            assert from_file[0] == 0 and from_file[1].count(b"\n") == 2

    @pytest.mark.parametrize("fmt,data", CASES[1::2], ids=["tsv", "fasta"])
    def test_seekable_stdin_is_read_in_place(self, tmp_path, monkeypatch, fmt, data):
        # stdin redirected from a file is read where it lies, not copied.
        import tempfile

        path = tmp_path / "in.txt"
        path.write_bytes(data)
        argv = ["--format", fmt, "--L", "2", "--U", "4"]
        want = run_cli(["find", "--input", str(path)] + argv)
        monkeypatch.setattr(tempfile, "TemporaryFile", mock.Mock(side_effect=AssertionError))
        with open(path) as stdin:
            monkeypatch.setattr(sys, "stdin", stdin)
            assert run_cli(["find", "--input", "-"] + argv) == want
            assert not stdin.closed
        assert want[0] == 0


def _find_fasta(tmp_path, data, argv, via, block):
    """(exit code, stdout, stderr) of `find --format fasta` on data read
    from a file, from stdin's bytes or from a FIFO that a thread writes,
    with bio.FASTA_BLOCK set to block."""
    from maxseg import bio

    writer = None
    if via == "file":
        path = tmp_path / "in.fa"
        path.write_bytes(data)
        source, stdin = str(path), None
    elif via == "fifo":  # a path that cannot seek, as <(zcat in.fa.gz) gives
        path = tmp_path / "in.fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
        writer.start()
        source, stdin = str(path), None
    else:
        source, stdin = "-", io.TextIOWrapper(io.BytesIO(data))
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr = out, err
    if stdin is not None:
        sys.stdin = stdin
    try:
        with mock.patch.object(bio, "FASTA_BLOCK", block):
            code = main(["find", "--input", source, "--format", "fasta"] + argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = saved
        if writer is not None:
            writer.join(timeout=30)
            assert not writer.is_alive(), "find did not read the FIFO to its end"
            path.unlink()
    return code, out.getvalue(), err.getvalue()


def _report(*rows, err=""):
    """find's exit code, stdout and stderr for these report rows, and the
    InfeasibleWidthWindow notes err when there are any."""
    return 2 if err else 0, "".join(f"{row}\n" for row in (cli.REPORT_HEADER,) + rows), err


def _refused(error):
    """find's exit code, stdout and stderr for an input error."""
    return 1, "", f"error: {error}\n"


def _model_fasta(data):
    """The FASTA byte grammar by lines: (id, bases) per record, or the type
    and line of the first refusal."""
    recs, at = [], 1
    for k, line in enumerate(data.splitlines(), start=1):  # at LF, CRLF and CR only
        line = line.strip(b" \t")
        if line.startswith(b">"):
            if recs and not recs[-1][1]:
                return MalformedFasta, at
            try:
                recs.append((line[1:].strip(b" \t").decode(), bytearray()))
            except UnicodeDecodeError:
                return MisencodedFasta, k
            at = k
        elif line:
            if not recs or not line.isascii():
                return (MisencodedFasta if recs else MalformedFasta), k
            recs[-1][1].extend(line.translate(None, b" \t"))
    if not recs or not recs[-1][1]:
        return MalformedFasta, at
    return [(rid, bytes(bases)) for rid, bases in recs]


class TestFastaBytes:
    # FASTA bytes are streamed into prefix arrays under one byte grammar.
    # Each input gives the same stdout, stderr and exit code on a file,
    # through stdin and through a FIFO (copied to a temporary file first,
    # since it cannot seek), at every block size; the outcomes are listed
    # per FLAGS entry.  STREAMED and the five refusals at the end of EXACT
    # give what find gave when a second, text-based parser still read every
    # input the stream did not accept, and the stream already agreed with
    # it on these.  The rest of EXACT went to that parser: the other ASCII
    # controls are now bases, and a non-ASCII base is refused with its line.
    FLAGS = [[], ["--strict"], ["--compress"],
             ["--strict", "--compress", "--mapping", "huang:0.45", "--exact"]]
    VIAS = ("file", "stdin") + (("fifo",) if hasattr(os, "mkfifo") else ())
    LONG = "".join("GCATTAGC"[(k * k) % 8] for k in range(2 * 4096))
    STREAMED = {
        "crlf": b">a x\r\nACGTG\r\nGCCAT\r\n>b\r\nGGGCC\r\n",
        "lone cr": b">a\rACG\rTGC\r>b\rGGA\r",
        "tabs and spaces": b"\t>a  desc \t\n  AC GT\tGG  \n\t\nGC C \n> b\n A T \n",
        "space before header": b" >id\nACGT\n  >b\nGGCC\n",
        "'>' inside a line": b">a\nAC>GT\nGG>\n>b\nG>C\n",
        "blank lines and lowercase": b"\n\n>a\n\nacgtn\n\nGcGc\n\n>b\nuU\n",
        "unknown symbols": b">a\nACXGT\n>b\nGG*C\x00\n",
        "both sides of MIN_FAST_N": (
            f">short\n{LONG[:4095]}\n>long\n{LONG[:4096]}\n>longer\n{LONG}\n").encode(),
        "no final line break": b">a\nACGGC",
    }
    B_INFEASIBLE = "record 'b': InfeasibleWidthWindow: no segment with width in [2, 4]\n"
    OUTCOMES = {
        "crlf": [
            _report("a x\t2\t3\t2\t2\t1.000000000", "b\t1\t2\t2\t2\t1.000000000"),
            _report("a x\t2\t3\t2\t2\t1.000000000", "b\t1\t2\t2\t2\t1.000000000"),
            _report('a x\t2\t2\t2\t2\t1.000000000', err=B_INFEASIBLE),
            _report('a x\t2\t2\t2\t1.1\t1.1/2', err=B_INFEASIBLE),
        ],
        "lone cr": [
            _report("a\t2\t3\t2\t2\t1.000000000", "b\t1\t2\t2\t2\t1.000000000"),
            _report("a\t2\t3\t2\t2\t1.000000000", "b\t1\t2\t2\t2\t1.000000000"),
            _report("a\t2\t2\t2\t2\t1.000000000", "b\t1\t1\t2\t2\t1.000000000"),
            _report("a\t2\t2\t2\t1.1\t1.1/2", "b\t1\t1\t2\t1.1\t1.1/2"),
        ],
        "tabs and spaces": [
            _report("a  desc\t2\t3\t2\t2\t1.000000000", "b\t1\t2\t2\t0\t0.000000000"),
            _report("a  desc\t2\t3\t2\t2\t1.000000000", "b\t1\t2\t2\t0\t0.000000000"),
            _report("a  desc\t2\t2\t2\t2\t1.000000000", "b\t1\t1\t2\t0\t0.000000000"),
            _report("a  desc\t2\t2\t2\t1.1\t1.1/2", "b\t1\t1\t2\t-0.9\t-0.9/2"),
        ],
        "space before header": [
            _report("id\t2\t3\t2\t2\t1.000000000", "b\t1\t2\t2\t2\t1.000000000"),
            _report("id\t2\t3\t2\t2\t1.000000000", "b\t1\t2\t2\t2\t1.000000000"),
            _report("id\t2\t2\t2\t2\t1.000000000", "b\t1\t1\t4\t4\t1.000000000"),
            _report("id\t2\t2\t2\t1.1\t1.1/2", "b\t1\t1\t4\t2.2\t2.2/4"),
        ],
        "'>' inside a line": [
            _report("a\t6\t7\t2\t2\t1.000000000", "b\t1\t3\t3\t2\t0.666666667"),
            _refused("UnknownSymbol: position 3: unknown symbol '>'"),
            _report("a\t6\t6\t2\t2\t1.000000000", "b\t1\t3\t3\t2\t0.666666667"),
            _refused("UnknownSymbol: position 3: unknown symbol '>'"),
        ],
        "blank lines and lowercase": [
            _report("a\t2\t3\t2\t2\t1.000000000", "b\t1\t2\t2\t0\t0.000000000"),
            _report("a\t2\t3\t2\t2\t1.000000000", "b\t1\t2\t2\t0\t0.000000000"),
            _report("a\t2\t2\t2\t2\t1.000000000", "b\t1\t1\t2\t0\t0.000000000"),
            _report("a\t2\t2\t2\t1.1\t1.1/2", "b\t1\t1\t2\t-0.9\t-0.9/2"),
        ],
        "unknown symbols": [
            _report("a\t2\t4\t3\t2\t0.666666667", "b\t1\t2\t2\t2\t1.000000000"),
            _refused("UnknownSymbol: position 3: unknown symbol 'X'"),
            _report("a\t2\t4\t3\t2\t0.666666667", "b\t1\t1\t2\t2\t1.000000000"),
            _refused("UnknownSymbol: position 3: unknown symbol 'X'"),
        ],
        "both sides of MIN_FAST_N": [
            _report(*(f"{rid}\t1\t2\t2\t2\t1.000000000" for rid in ("short", "long", "longer"))),
            _report(*(f"{rid}\t1\t2\t2\t2\t1.000000000" for rid in ("short", "long", "longer"))),
            _report(*(f"{rid}\t1\t1\t2\t2\t1.000000000" for rid in ("short", "long", "longer"))),
            _report(*(f"{rid}\t1\t1\t2\t1.1\t1.1/2" for rid in ("short", "long", "longer"))),
        ],
        "no final line break": [
            _report("a\t2\t3\t2\t2\t1.000000000"),
            _report("a\t2\t3\t2\t2\t1.000000000"),
            _report("a\t2\t2\t4\t4\t1.000000000"),
            _report("a\t2\t2\t4\t2.2\t2.2/4"),
        ],
    }
    EXACT = {
        **{name: (b">a\nAC" + bytes([c]) + b"GT\n", [
            _report("a\t2\t4\t3\t2\t0.666666667"),
            _refused(f"UnknownSymbol: position 3: unknown symbol {chr(c)!r}")] * 2)
           for name, c in [("vertical tab", 0x0b), ("form feed", 0x0c),
                           *((f"separator {c:#x}", c) for c in range(0x1c, 0x20))]},
        "valid non-ascii": (">a é\nACGT\n>b\nGGéC\n".encode(), [_refused(
            "MisencodedFasta: line 4: non-ASCII byte 0xc3 in a sequence line")] * 4),
        "invalid utf-8": (b">a\nAC\xffGT\n", [_refused(
            "MisencodedFasta: line 2: non-ASCII byte 0xff in a sequence line")] * 4),
        "empty record": (b">a\n>b\nACGT\n", [_refused(
            "MalformedFasta: line 1: record 'a' has no bases")] * 4),
        "empty last record": (b">a\nACGT\n>b\n  \n", [_refused(
            "MalformedFasta: line 3: record 'b' has no bases")] * 4),
        "data before the first header": (b"ACGT\n>a\nGG\n", [_refused(
            "MalformedFasta: line 1: sequence data before any '>' header")] * 4),
        "empty file": (b"", [_refused("MalformedFasta: line 1: no records found")] * 4),
        "blank file": (b" \n\n", [_refused("MalformedFasta: line 1: no records found")] * 4),
    }

    @pytest.mark.parametrize("name", sorted(STREAMED) + sorted(EXACT))
    def test_same_output_as_the_exact_path(self, tmp_path, name):
        if name in self.STREAMED:
            data, outcomes = self.STREAMED[name], self.OUTCOMES[name]
        else:
            data, outcomes = self.EXACT[name]
        for flags, want in zip(self.FLAGS, outcomes):
            argv = ["--L", "2", "--U", "4"] + flags
            for via in self.VIAS:
                for block in (1, 7, 64):
                    got = _find_fasta(tmp_path, data, argv, via, block)
                    assert got == want, (flags, via, block)

    TOKENS = [b">", b">r", b" >id x", ">a é".encode(), b"\n", b"\r\n", b"\r", b" ", b"\t",
              b"ACGT", b"GGCC", b"acgtn", b"X", b"\x0b", b"\x1e", b"\x00", "é".encode(), b"\xff"]

    @given(st.lists(st.sampled_from(TOKENS), max_size=40), st.booleans(), st.booleans(),
           st.sampled_from((1, 7, 64)), st.sampled_from((1, 8, 4096)))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes_match_the_exact_path(self, tokens, header, strict, block, min_fast_n):
        # read_fasta against _model_fasta, which reads the grammar by lines.
        from maxseg import MappingSpec, bio, fastpath

        data = (b">r0\n" if header else b"") + b"".join(tokens)
        want = _model_fasta(data)
        if strict and isinstance(want, list):  # the first unknown symbol, record by record
            unknown = ((UnknownSymbol, k) for _, bases in want
                       for k, c in enumerate(bases, start=1) if c not in b"ACGTUNacgtun")
            want = next(unknown, want)
        with mock.patch.object(fastpath, "MIN_FAST_N", min_fast_n), \
                mock.patch.object(bio, "FASTA_BLOCK", block):
            try:
                got = [(rid, seq.prefix_value) for rid, seq in
                       bio.read_fasta(io.BytesIO(data), MappingSpec.gc01(), strict)]
            except MaxsegError as exc:
                got = type(exc), getattr(exc, "line", getattr(exc, "position", None))
        if isinstance(want, list):
            want = [(rid, [0, *itertools.accumulate(int(c in b"GCgc") for c in bases)])
                    for rid, bases in want]
        assert got == want

    def test_a_file_is_never_held_whole(self, tmp_path):
        # The first record of a 1e6-base file is mapped at 4 bytes per base
        # plus a few blocks of scratch: the file's bytes (1 byte per base)
        # are never held, whether its header is ASCII or UTF-8.
        import tracemalloc

        import numpy  # noqa: F401  (its one-off import is not ingest)

        from maxseg import MappingSpec, bio

        n = 10**6
        rng = random.Random(3)
        bases = "".join(rng.choices("ACGT", k=n))
        path = tmp_path / "long.fa"
        for header in ("a", "a \u00e9"):
            path.write_text(f">{header}\n" + "\n".join(bases[i:i + 60] for i in range(0, n, 60))
                            + "\n>b\nAC\n", encoding="utf-8")
            tracemalloc.start()
            try:
                with open(path, "rb") as fh:
                    records = bio.read_fasta(fh, MappingSpec.gc01())
                    rid, seq = next(records)
                    peak = tracemalloc.get_traced_memory()[1]
                    records.close()
            finally:
                tracemalloc.stop()
            assert (rid, seq.n, seq.prefix_arrays()[0].dtype.name) == (header, n, "int32")
            assert peak < 4 * n + 600_000, f"{(peak - 4 * n) / 1e3:.0f} kB above the prefix array"
            del seq


# Runs argv[1:] and prints its peak RSS in kB.  Linux carries a process's
# resident high-water mark across exec, so a child started straight from the
# test process would report at least the test process's own peak; started
# from this small interpreter, the child's ru_maxrss is its own.
_PEAK_RSS = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "assert os.waitstatus_to_exitcode(status) == 0\n"
    "print(usage.ru_maxrss)\n"
)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in kB is Linux's")
class TestPeakMemory:
    @staticmethod
    def _peak_kb(*argv, stdin=None):
        """Peak RSS in kB of a fresh interpreter run with argv, reading the
        file stdin (if given) as its standard input."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, sys.executable, *argv],
                              stdin=stdin, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    def test_find_on_a_long_record_peaks_at_few_bytes_per_base(self, tmp_path):
        # One 2e6-base record: the sequence keeps 4 bytes per base, and the
        # file is read in blocks, so the input and the backend's rounds add
        # little on top of an interpreter that has imported numpy and the CLI.
        n = 2_000_000
        rng = random.Random(11)
        bases = "".join(rng.choices("ACGT", k=n))
        path = tmp_path / "long.fa"
        path.write_text(">r\n" + "\n".join(bases[i:i + 60] for i in range(0, n, 60)) + "\n")
        del bases
        base = self._peak_kb("-c", "import numpy, maxseg.cli")
        find = self._peak_kb("-m", "maxseg", "find", "--input", str(path), "--format", "fasta",
                             "--L", "100", "--U", "200")
        per_base = (find - base) * 1024 / n
        assert per_base <= 6, f"{per_base:.1f} B/base above the import baseline"

    def test_find_on_a_long_weighted_tsv_peaks_at_few_bytes_per_row(self, tmp_path):
        # 5e5 decimal rows, weights 1.0-3.0 and one in a thousand wider than
        # U: the file is read in chunks, so the two int32 prefix columns (8
        # bytes per row), the backend's windows (kept packed through the
        # solve, at most half a byte more) and a few chunks' scratch are all
        # that grows.  Lone-CR line ends and a UTF-8 comment keep it so.
        n = 500_000
        rng = random.Random(12)
        rows = ["# value\tweight"]
        for _ in range(n):
            v = rng.randint(-900, 900)
            w = rng.randint(11010, 20000) if rng.random() < 0.001 else rng.randint(10, 30)
            rows.append(f"{'-' if v < 0 else ''}{abs(v) // 100}.{abs(v) % 100:02d}"
                        f"\t{w // 10}.{w % 10}")
        text = "\n".join(rows) + "\n"
        del rows
        path = tmp_path / "long.tsv"
        base = self._peak_kb("-c", "import numpy, maxseg.cli")
        for name, data in (("lf", text), ("cr", text.replace("\n", "\r")),
                           ("utf-8 comment", "# valeur \u00b5g\n" + text)):
            path.write_bytes(data.encode())
            find = self._peak_kb("-m", "maxseg", "find", "--input", str(path), "--format", "tsv",
                                 "--L", "100", "--U", "1100")
            per_row = (find - base) * 1024 / n
            assert per_row <= 14, f"{name}: {per_row:.1f} B/row above the import baseline"

    @pytest.mark.parametrize("fmt", ["fasta", "tsv"])
    def test_find_on_stdin_peaks_as_on_the_file(self, tmp_path, fmt):
        # stdin redirected from a file is read where it lies, as the file
        # is, so its bytes are never held: 2e6 bases, or 2e5 rows, peak
        # within a small margin of the same file.
        rng = random.Random(13)
        path = tmp_path / f"in.{fmt}"
        if fmt == "fasta":
            bases = "".join(rng.choices("ACGT", k=2_000_000))
            path.write_text(">r\n" + "\n".join(bases[i:i + 60] for i in range(0, len(bases), 60)))
            bounds = ["--L", "100", "--U", "200"]
        else:
            path.write_text("".join(f"{rng.randint(-900, 900) / 100}\t{rng.randint(10, 30) / 10}\n"
                                    for _ in range(200_000)))
            bounds = ["--L", "100", "--U", "1100"]
        argv = ["-m", "maxseg", "find", "--format", fmt] + bounds
        from_file = self._peak_kb(*argv, "--input", str(path))
        with open(path, "rb") as fh:
            from_stdin = self._peak_kb(*argv, "--input", "-", stdin=fh)
        assert path.stat().st_size > 1_500_000
        assert from_stdin <= from_file + 500, (from_stdin, from_file)


class TestProcessExit:
    # `python -m maxseg` and the `maxseg` script freeze the garbage collector
    # once main returns, so interpreter exit skips a full collection; the
    # output and exit codes are main's, and an in-process main freezes nothing.

    @staticmethod
    def _cases(tmp_path):
        rng = random.Random(7)
        fasta = tmp_path / "in.fa"
        fasta.write_text("".join(
            f">r{k}\n" + "".join(rng.choice("ACGT") for _ in range(5000)) + "\n"
            for k in range(2)))
        tsv = tmp_path / "in.tsv"
        tsv.write_text("".join(f"{rng.randint(-99, 99) / 10}\t{rng.randint(10, 30) / 10}\n"
                               for _ in range(5000)))
        bad = tmp_path / "bad.tsv"
        bad.write_text("1\t2\t3\n")
        return [
            (["find", "--input", str(fasta), "--format", "fasta", "--L", "100", "--U", "200"], 0),
            (["find", "--input", str(tsv), "--format", "tsv", "--L", "10", "--U", "50.5"], 0),
            (["find", "--input", str(fasta), "--format", "fasta", "--L", "6000"], 2),
            (["find", "--input", str(bad), "--format", "tsv", "--L", "1"], 1),
        ]

    def test_module_entry_matches_in_process_main(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        for argv, code in self._cases(tmp_path):
            proc = subprocess.run([sys.executable, "-m", "maxseg"] + argv, capture_output=True,
                                  text=True, env=env, timeout=120)
            assert proc.returncode == code, proc.stderr
            assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(argv)

    def test_in_process_main_freezes_nothing(self, tmp_path):
        argv, _ = self._cases(tmp_path)[0]
        assert run_cli(argv)[0] == 0
        assert gc.get_freeze_count() == 0

    def test_both_process_entries_freeze(self, tmp_path):
        with open(os.path.join(os.path.dirname(SRC), "pyproject.toml")) as fh:
            module, func = re.search(r'^maxseg = "([\w.]+):(\w+)"$', fh.read(), re.M).groups()
        argv, _ = self._cases(tmp_path)[0]
        want = run_cli(argv)[1]
        for call in (f"from {module} import {func}\ncode = {func}()\n",
                     "import runpy\n"
                     "try:\n"
                     "    runpy.run_module('maxseg', run_name='__main__')\n"
                     "except SystemExit as exc:\n"
                     "    code = exc.code\n"):
            proc = run_python(
                f"import gc, sys\nsys.argv = ['maxseg'] + {argv!r}\n{call}"
                "assert gc.get_freeze_count() > 0, 'nothing frozen'\n"
                "sys.exit(code)\n")
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == want


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

    @pytest.mark.parametrize("argv, msg", [
        (["--max-n", "0"], "--max-n: expected at least 1, got 0"),
        (["--max-n", "-5"], "--max-n: expected at least 1, got -5"),
        (["--seeds", "0"], "--seeds: expected at least 1, got 0"),
        (["--seeds", "-2"], "--seeds: expected at least 1, got -2"),
    ], ids=["max-n-0", "max-n-neg", "seeds-0", "seeds-neg"])
    def test_counts_below_one_refused_before_output(self, argv, msg):
        assert run_cli(["verify"] + argv) == (1, "", f"error: ValueError: {msg}\n")

    def test_mutant_comparator_caught(self, monkeypatch):
        # a broken solver must produce a counterexample seed and exit nonzero
        def mutant(req, **kw):
            return Segment(1, 1, DensityValue(req.seq.prefix_value[1] - 1, 1))

        monkeypatch.setattr(dev, "solve", mutant)
        code, out, _ = run_cli(["verify", "--seeds", "10", "--max-n", "20"])
        assert code == 1
        assert "first counterexample: seed=" in out

    def test_tie_rule_checked(self, monkeypatch):
        # an equal-density answer with a later start breaks the tie rule
        real_solve = dev.solve

        def later_tie(req, **kw):
            seg, seq = real_solve(req, **kw), req.seq
            for i in range(seg.start + 1, seq.n + 1):
                for j in range(i, seq.n + 1):
                    if (req.L <= seq.width(i, j) <= req.U
                            and density(seq, i, j) == seg.density):
                        return make_segment(seq, i, j)
            return seg

        monkeypatch.setattr(dev, "solve", later_tie)
        code, out, _ = run_cli(["verify", "--seeds", "30", "--max-n", "12",
                                "--L-U", "fixed:1,1"])
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
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        row = proc.stdout.splitlines()[1].split(",")
        assert row[:2] == ["uniform-lu", "5000"]
        assert int(row[5]) > 0

    def test_degenerate_size(self):
        code, out, _ = run_cli(["bench", "--sizes", "1", "--algo", "uniform-lu"])
        assert code == 0
        assert out.splitlines()[1].startswith("uniform-lu,1,")

    @pytest.mark.parametrize("argv, flag", [
        (["--sizes", "1e400"], "--sizes"),
        (["--sizes", "2.5"], "--sizes"),
        (["--sizes", "1e3,0"], "--sizes"),
        (["--sizes", "abc"], "--sizes"),
        (["--sizes", "1e3,"], "--sizes"),
        (["--sizes", "10", "--repeat", "0"], "--repeat"),
        (["--sizes", "100", "--L", "0"], "--L"),
        (["--sizes", "100", "--algo", "general-lu", "--L", "-3"], "--L"),
        (["--sizes", "100", "--algo", "uniform-lu", "--L", "5", "--U", "2"], "--U"),
        (["--sizes", "100", "--algo", "general-lu", "--U", "0"], "--U"),
        (["--sizes", "50,1000", "--algo", "uniform-lu", "--U", "5"], "--U"),  # L defaults to 10
        (["--sizes", "100", "--algo", "general-lu", "--L", "500"], "--L"),  # total width 201
        (["--sizes", "100", "--L", "500"], "--L"),
        (["--sizes", "100,1000", "--algo", "uniform-lu", "--L", "500", "--U", "600"], "--L"),
    ])
    def test_bad_sizes_and_repeat_refused_before_output(self, argv, flag):
        code, out, err = run_cli(["bench", "--algo", "l-only", *argv])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: ValueError: {flag}: ")

    def test_general_lu_counters_and_retired_baseline_refused(self):
        code, out, _ = run_cli(
            ["bench", "--sizes", "500", "--algo", "general-lu", "--L", "8", "--U", "39"]
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        beta = (39 - 8 + 1).bit_length() - 1
        assert int(row[5]) <= 4 * 500 * (beta + 1)
        # the O(n log L) baseline is retired; argparse refuses the choice
        with pytest.raises(SystemExit) as exc:
            run_cli(["bench", "--sizes", "400", "--algo", "baseline-logl"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["bench", "--algo", "l-only", "--sizes", "١٠٠"],
    ["bench", "--algo", "l-only", "--sizes", "1_00"],
    ["bench", "--algo", "l-only", "--sizes", " 100"],
    ["bench", "--algo", "l-only", "--sizes", "100", "--L", "٣"],
    ["bench", "--algo", "l-only", "--sizes", "100", "--repeat", "1_0"],
    ["bench", "--algo", "l-only", "--sizes", "100", "--seed", " 1"],
    ["bench", "--algo", "uniform-lu", "--sizes", "100", "--U", "+20"],
    ["verify", "--seeds", "٣"],
    ["verify", "--seeds", "3", "--max-n", "2_0"],
    ["verify", "--seeds", "3", "--seed", "+1"],
    ["verify", "--seeds", "3", "--L-U", "fixed:١,٢"],
    ["verify", "--seeds", "3", "--L-U", "fixed:1, 2"],
], ids=["sizes-arabic-indic", "sizes-underscore", "sizes-blank", "L-arabic-indic",
        "repeat-underscore", "seed-blank", "U-plus", "seeds-arabic-indic",
        "max-n-underscore", "seed-plus", "fixed-arabic-indic", "fixed-blank"])
def test_integer_flags_take_ascii_digits_only(argv):
    # verify and bench read their counts, seeds and bounds as decimal_units
    # reads find's decimals: ASCII digits, an optional minus, nothing else.
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: ValueError: --[A-Za-z-]+: [^\n]*\n", err), err
