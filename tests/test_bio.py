import io
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from maxseg import (
    InfeasibleWidthWindow,
    MalformedFasta,
    MalformedTsv,
    MappingSpec,
    MaxsegError,
    SolveRequest,
    UnknownSymbol,
    WeightedSequence,
    brute_force_best,
    build_sequence,
    compress_runs,
    density,
    map_to_sequence,
    parse_fasta,
    parse_tsv,
    solve,
)
from maxseg import bio, fastpath, solvers
from maxseg.core import MAX_INTEGER_DIGITS
from maxseg.errors import MisencodedFasta
from maxseg.bio import DnaRecord


def stored(seq):
    """A sequence's prefix lists, scales and weight profile, all it stores."""
    return (seq.prefix_value, seq.prefix_weight, seq.value_scale, seq.weight_scale,
            seq.min_weight, seq.max_weight, seq.is_uniform)


class TestParseFasta:
    def test_minimal(self):
        recs = parse_fasta(">s1\nACGT\n")
        assert recs == [DnaRecord("s1", "ACGT")]

    def test_multi_line_multi_record(self):
        recs = parse_fasta(">a\nAC\nGT\n>b\nTT\n")
        assert [(r.id, r.bases) for r in recs] == [("a", "ACGT"), ("b", "TT")]

    def test_data_before_header(self):
        with pytest.raises(MalformedFasta) as exc:
            parse_fasta("ACGT\n")
        assert exc.value.line == 1

    def test_empty_record(self):
        with pytest.raises(MalformedFasta) as exc:
            parse_fasta(">a\n>b\nACGT\n")
        assert exc.value.line == 1

    def test_trailing_empty_record(self):
        with pytest.raises(MalformedFasta):
            parse_fasta(">a\nAC\n>b\n")

    def test_case_and_blank_lines(self):
        recs = parse_fasta(">x\n\nacG T\n\nn\n")
        assert recs[0].bases == "acGTn"

    def test_round_trip(self, rng):
        recs = [
            DnaRecord(f"r{k}", "".join(rng.choice("ACGTUNacgt") for _ in range(rng.randint(1, 200))))
            for k in range(5)
        ]
        text = "".join(f">{rec.id}\n" + "".join(rec.bases[i:i + 17] + "\n"
                                                  for i in range(0, len(rec.bases), 17))
                       for rec in recs)
        assert parse_fasta(text) == recs


class TestMapping:
    def test_gc01(self):
        seq = map_to_sequence(DnaRecord("s", "ACGT"), MappingSpec.gc01())
        assert [seq.value(i) for i in range(1, 5)] == [0, 1, 1, 0]
        assert [seq.weight(i) for i in range(1, 5)] == [1, 1, 1, 1]

    def test_huang_half(self):
        seq = map_to_sequence(DnaRecord("s", "GC"), MappingSpec.huang("0.5"))
        # scores are 1-p per GC base, scaled exactly: 0.5 at scale 10
        assert seq.value_scale == 10
        assert [seq.value(i) for i in range(1, 3)] == [5, 5]

    def test_huang_scores_at_and_gc(self):
        seq = map_to_sequence(DnaRecord("s", "GATC"), MappingSpec.huang("0.35"))
        assert seq.value_scale == 100
        assert [seq.value(i) for i in range(1, 5)] == [65, -35, -35, 65]
        assert MappingSpec.huang("0.35") == MappingSpec(65, -35, 100)
        assert MappingSpec.gc01() == MappingSpec(1, 0, 1)

    def test_ambiguity_codes_score_as_non_gc(self):
        seq = map_to_sequence(DnaRecord("s", "AN"), MappingSpec.gc01())
        assert [seq.value(1), seq.value(2)] == [0, 0]
        seq = map_to_sequence(DnaRecord("s", "NU"), MappingSpec.huang("0.2"))
        assert [seq.value(1), seq.value(2)] == [-2, -2]

    def test_lowercase_gc_counts(self):
        seq = map_to_sequence(DnaRecord("s", "gcat"), MappingSpec.gc01())
        assert [seq.value(i) for i in range(1, 5)] == [1, 1, 0, 0]

    def test_strict_rejects_unknown(self):
        with pytest.raises(UnknownSymbol) as exc:
            map_to_sequence(DnaRecord("s", "ART"), MappingSpec.gc01(), strict=True)
        assert exc.value.position == 2
        # lenient default scores it as non-GC
        seq = map_to_sequence(DnaRecord("s", "ART"), MappingSpec.gc01())
        assert seq.value(2) == 0

    def test_items_stream_into_the_sequence(self, rng):
        # Only the int32 prefix values stay, 4 bytes per base (unit weights
        # keep no weight column): no per-base Python object and no n-long
        # scratch array or encoded copy of the record is built.
        # numpy's one-off import is not a per-base cost.
        import numpy  # noqa: F401

        n = 200_000
        rec = DnaRecord("s", "".join(rng.choice("ACGT") for _ in range(n)))
        tracemalloc.start()
        try:
            seq = map_to_sequence(rec, MappingSpec.gc01())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq.n == n and seq.prefix_arrays()[1] is None
        assert peak / n <= 12, f"{peak / n:.1f} B/base"

    def test_prefix_array_is_the_narrowest_exact_dtype(self):
        # int32 while n * max |score| < 2**31, int64 from there; one array
        # of exactly n + 1 entries either way.
        n = fastpath.MIN_FAST_N  # 2**12
        edge = (1 << 31) // n
        for spec, dtype in ((MappingSpec.gc01(), "int32"),
                            (MappingSpec.huang("0.45"), "int32"),
                            (MappingSpec(edge - 1, 1 - edge, 1), "int32"),
                            (MappingSpec(edge, 0, 1), "int64"),
                            (MappingSpec(3, -edge, 1), "int64")):
            for bases in ("G" * n, "A" * n):
                seq = map_to_sequence(DnaRecord("s", bases), spec)
                V, W = seq.prefix_arrays()
                assert (V.dtype.name, V.base, V.shape, W) == (dtype, None, (n + 1,), None)
                score = spec.gc_score if bases[0] == "G" else spec.other_score
                assert seq.prefix_value[-1] == n * score

    def test_backend_answer_leaves_the_list_views_unbuilt(self, rng):
        import numpy  # noqa: F401

        n = 200_000
        rec = DnaRecord("s", "".join(rng.choice("ACGT") for _ in range(n)))
        tracemalloc.start()
        try:
            seq = map_to_sequence(rec, MappingSpec.huang("0.45"))
            seg = solve(SolveRequest(seq, 100, 200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the backend's rounds hold no n-long key array; lists cost over 70
        assert peak / n <= 16, f"{peak / n:.1f} B/base"
        assert type(seg.sum) is int and type(seg.width) is int
        assert (seg.sum, seg.width) == (sum(seq.value(i) for i in range(seg.start, seg.end + 1)),
                                        seg.end - seg.start + 1)

    # Every symbol class: GC, AT, N/U, lowercase, unknown ASCII; a quarter
    # of the records also hold one non-ASCII symbol, up to the astral planes.
    ALPHABET = "ACGTacgtNnUuRyX-*\x0b\x00"
    NON_ASCII = "\u00e9\u03a9\U0001f9ec"

    @pytest.mark.parametrize("spec", [MappingSpec.gc01(), MappingSpec.huang("0.45")])
    def test_array_and_list_paths_agree(self, rng, monkeypatch, spec):
        for _ in range(40):
            n = rng.randint(1, 300)
            bases = [rng.choice(self.ALPHABET) for _ in range(n)]
            if rng.random() < 0.25:
                bases[rng.randrange(n)] = rng.choice(self.NON_ASCII)
            rec = DnaRecord("r", "".join(bases))
            # the record arrives FASTA_BLOCK bases at a time
            monkeypatch.setattr(bio, "FASTA_BLOCK", rng.choice((1, 7, 64, 16384)))
            paths = []
            for min_fast_n in (1, n + 1):  # the array path, then the list path
                monkeypatch.setattr(fastpath, "MIN_FAST_N", min_fast_n)
                outcome = []
                for strict in (False, True):
                    try:
                        seq = map_to_sequence(rec, spec, strict=strict)
                    except UnknownSymbol as exc:
                        outcome.append((exc.symbol, exc.position))
                        continue
                    assert (seq._pv is None) == (min_fast_n == 1)
                    assert all(type(x) is int for x in seq.prefix_value + seq.prefix_weight)
                    outcome.append((seq.prefix_value, seq.prefix_weight, seq.value_scale,
                                    seq.is_uniform, seq.min_weight, seq.max_weight))
                paths.append(outcome)
            assert paths[0] == paths[1]

    def test_non_ascii_symbol_is_refused(self, monkeypatch):
        # No FASTA base is non-ASCII: lenient or strict, on either path, the
        # first non-ASCII symbol is refused by name and position.
        for min_fast_n in (1, 100):
            monkeypatch.setattr(fastpath, "MIN_FAST_N", min_fast_n)
            for strict in (False, True):
                with pytest.raises(UnknownSymbol) as exc:
                    map_to_sequence(DnaRecord("s", "GA\U0001f9ec\u00e9C"), MappingSpec.gc01(),
                                    strict=strict)
                assert (exc.value.symbol, exc.value.position) == ("\U0001f9ec", 3)

    def test_scores_beyond_int64_keep_the_list_path(self, monkeypatch):
        monkeypatch.setattr(fastpath, "MIN_FAST_N", 1)
        seq = map_to_sequence(DnaRecord("s", "GGGG"), MappingSpec(1 << 62, 0, 1))
        assert seq.prefix_value == [0, 1 << 62, 1 << 63, 3 << 62, 1 << 64]
        assert seq.prefix_arrays() is None

    def test_huang_p_validated(self):
        with pytest.raises(ValueError):
            MappingSpec.huang("1.5")
        for bad in ("0.1234567891", "nan", "abc"):  # too fine, not finite, not a number
            with pytest.raises(ValueError):
                MappingSpec.huang(bad)
        # p is read by the TSV fields' decimal syntax
        for bad in ("4.5e-1", "+.45", "\u0660.\u0664\u0665", "0.4_5", 1e-05):
            with pytest.raises(ValueError, match="not a decimal number"):
                MappingSpec.huang(bad)
        assert MappingSpec.huang("0.123456789").scale == 10**9


def _scan(data):
    """bio.scan_fasta over data, and the records bio.fasta_bases reads back."""
    def read(at, size):
        assert size <= bio.FASTA_BLOCK
        return data[at:at + size]

    index = bio.scan_fasta(read)
    assert [n for *_, n in index] == [end - start - sum(data.count(c, start, end) for c in
                                                       (b" ", b"\t", b"\r", b"\n"))
                                      for _, start, end, _ in index]
    return [(rid, b"".join(bio.fasta_bases(read, start, end))) for rid, start, end, _ in index]


class TestScanFasta:
    # bio.scan_fasta indexes FASTA bytes without holding them, and
    # bio.fasta_bases reads a record's bases back, at every block size; a
    # refusal names the line of the first fault, lines ending at LF, CRLF
    # or a lone CR.
    BLOCKS = (1, 2, 7, 64, bio.FASTA_BLOCK)

    def test_records_match_parse_fasta(self, monkeypatch):
        data = (b"\n \t>a x \r\nAC G\r\n\r\n\tT>g\n>b\rgg\rNN \n"
                b" >c\n" + b"ACGTN" * 30 + b"\n")
        want = [("a x", b"ACGT>g"), ("b", b"ggNN"), ("c", b"ACGTN" * 30)]
        for block in self.BLOCKS:
            monkeypatch.setattr(bio, "FASTA_BLOCK", block)
            assert _scan(data) == want
            assert [(rec.id, rec.bases.encode()) for rec in parse_fasta(data.decode())] == want

    REFUSED = {
        b"": (MalformedFasta, "line 1: no records found"),
        b"\n \n": (MalformedFasta, "line 1: no records found"),
        b"AC\n>a\nGG\n": (MalformedFasta, "line 1: sequence data before any '>' header"),
        b">a\n>b\nGG\n": (MalformedFasta, "line 1: record 'a' has no bases"),
        b">a\nGG\n>b": (MalformedFasta, "line 3: record 'b' has no bases"),
        b">a\nGG\n>b\n \n": (MalformedFasta, "line 3: record 'b' has no bases"),
        b">a\nG\xffG\n": (MisencodedFasta, "line 2: non-ASCII byte 0xff in a sequence line"),
    }

    @pytest.mark.parametrize("data", list(REFUSED))
    def test_inputs_parse_fasta_must_read_are_refused(self, monkeypatch, data):
        self._check_refused(monkeypatch, data, *self.REFUSED[data])

    @pytest.mark.parametrize("data, error, message", [
        (b"\r\n\r \n\t x\n>a\nG\n", MalformedFasta, "line 4: sequence data before any '>' header"),
        (b"\n\xff>a\nG\n", MalformedFasta, "line 2: sequence data before any '>' header"),
        (b">a\rGG\r\nGA\r\rA\xc3\xa9\n", MisencodedFasta,
         "line 5: non-ASCII byte 0xc3 in a sequence line"),
        (b">a\r\n\r\nG\r\n>b\r\n\r\n>c\r\nC", MalformedFasta, "line 4: record 'b' has no bases"),
        (b">a\nGG\n> \xe9t\xe9\nGG\n", MisencodedFasta, "line 3: header is not UTF-8"),
        (b">a\n>\xff\nGG\n", MalformedFasta, "line 1: record 'a' has no bases"),
        (b">a\nGG\n>\xff", MisencodedFasta, "line 3: header is not UTF-8"),
        (b">a\nGG\nAC>\xc3\xa9\n", MisencodedFasta,
         "line 3: non-ASCII byte 0xc3 in a sequence line"),
    ], ids=["data after blank lines", "non-ascii before the first header", "non-ascii base",
            "empty record after crlf", "latin-1 header", "empty record before a bad header",
            "bad last header", "'>' inside a line"])
    def test_refusals_name_the_first_faulty_line(self, monkeypatch, data, error, message):
        self._check_refused(monkeypatch, data, error, message)

    def _check_refused(self, monkeypatch, data, error, message):
        for block in self.BLOCKS:
            monkeypatch.setattr(bio, "FASTA_BLOCK", block)
            with pytest.raises(MalformedFasta) as exc:
                _scan(data)
            assert (type(exc.value), str(exc.value)) == (error, message)
            assert exc.value.line == int(message.split(":")[0].split()[1])

    @pytest.mark.parametrize("data, want", [
        (b">a\nG\x0bG\n", [("a", b"G\x0bG")]),
        (b">a\nG\x0cG\n", [("a", b"G\x0cG")]),
        (b">a\nG\x1cG\n", [("a", b"G\x1cG")]),
        (b">a\nG\x1fG\n", [("a", b"G\x1fG")]),
        (">a \u00e9\nGG\n".encode(), [("a \u00e9", b"GG")]),
        (b">\x0ba\xc2\xa0 \t\nG\n", [("\x0ba\u00a0", b"G")]),
    ], ids=["vertical tab", "form feed", "separator 0x1c", "separator 0x1f", "utf-8 header",
            "header stripped of blanks only"])
    def test_other_controls_are_bases_and_headers_utf8(self, monkeypatch, data, want):
        for block in self.BLOCKS:
            monkeypatch.setattr(bio, "FASTA_BLOCK", block)
            assert _scan(data) == want


class TestCompressRuns:
    def test_merges_equal_density_runs(self):
        seq = build_sequence([(1, 1), (1, 1), (1, 1), (0, 1), (0, 1)])
        comp = compress_runs(seq)
        assert comp.items == [(3, 3), (0, 2)]

    def test_distinct_densities_unchanged(self):
        seq = build_sequence([(1, 1), (2, 1), (3, 1)])
        assert compress_runs(seq).items == seq.items

    def test_single_item_unchanged(self):
        seq = build_sequence([(5, 2)])
        assert compress_runs(seq).items == [(5, 2)]

    def test_merges_across_weights_by_density(self):
        # (2,1) and (4,2) share density 2 and merge
        seq = build_sequence([(2, 1), (4, 2), (1, 1)])
        assert compress_runs(seq).items == [(6, 3), (1, 1)]

    def test_boundary_aligned_densities_preserved(self, rng):
        for _ in range(50):
            n = rng.randint(1, 60)
            seq = build_sequence([(rng.randint(0, 2), 1) for _ in range(n)])
            comp = compress_runs(seq)
            # map each compressed boundary back to original indices
            ends = []
            pos = 0
            for _, w in comp.items:
                pos += w
                ends.append(pos)
            starts = [1] + [e + 1 for e in ends[:-1]]
            for bi in range(len(ends)):
                for bj in range(bi, len(ends)):
                    assert density(comp, bi + 1, bj + 1) == density(seq, starts[bi], ends[bj])

    def test_solve_differential_on_01_sequences(self, rng):
        # compressed optimum never beats the original; equality when the
        # original optimum aligns with run boundaries
        for _ in range(60):
            n = rng.randint(2, 50)
            seq = build_sequence([(rng.randint(0, 1), 1) for _ in range(n)])
            comp = compress_runs(seq)
            L = rng.randint(1, n)
            U = rng.randint(L, n)
            orig = brute_force_best(seq, L, U)
            try:
                comp_seg = solve(SolveRequest(comp, L, U))
            except InfeasibleWidthWindow:
                continue
            assert comp_seg.density <= orig.density
            boundaries = set()
            pos = 0
            starts = {1}
            for _, w in comp.items:
                pos += w
                boundaries.add(pos)
                starts.add(pos + 1)
            if orig.start in starts and orig.end in boundaries:
                assert comp_seg.density == orig.density

    def test_array_and_list_stores_agree(self, rng, monkeypatch):
        # Long records are compressed over their int64 arrays, short ones over
        # their lists; both give the same runs, scales and weight profile.
        # Unit-weight arrays hold prefix values alone: built by hand below,
        # and as map_to_sequence makes them.
        import numpy as np

        for _ in range(40):
            n = rng.randint(1, 120)
            items = [(rng.choice((-2, 0, 1, 3)) * w, w)
                     for w in (rng.choice((1, 1, 2, 3)) for _ in range(n))]
            listed = build_sequence(items, value_scale=10, weight_scale=100)
            pv, pw = (np.array(col, dtype=np.int64) for col in (listed.prefix_value,
                                                                listed.prefix_weight))
            arrayed = WeightedSequence(pv, pw, value_scale=10, weight_scale=100)
            monkeypatch.setattr(fastpath, "MIN_FAST_N", 1)
            comp = compress_runs(arrayed)
            assert arrayed._pv is None and comp._pv is None  # no list was filled
            monkeypatch.setattr(fastpath, "MIN_FAST_N", n + 1)
            assert stored(comp) == stored(compress_runs(listed))
        for spec in (MappingSpec.gc01(), MappingSpec.huang("0.45")):
            for _ in range(30):
                n = rng.randint(1, 120)
                symbols = rng.choice(("ACGTN", "GC", "AT", "GA"))
                rec = DnaRecord("r", "".join(rng.choice(symbols) for _ in range(n)))
                monkeypatch.setattr(fastpath, "MIN_FAST_N", 1)
                arrayed = map_to_sequence(rec, spec)
                comp = compress_runs(arrayed)
                assert arrayed._pv is None and comp._pv is None
                assert arrayed.prefix_arrays()[1] is None
                assert (comp.prefix_arrays()[1] is None) == comp.is_uniform
                monkeypatch.setattr(fastpath, "MIN_FAST_N", n + 1)
                listed = map_to_sequence(rec, spec)
                assert stored(arrayed) == stored(listed)
                assert stored(comp) == stored(compress_runs(listed))

    def test_integral_runs_of_fraction_items_reach_the_backend(self, rng, monkeypatch):
        # Every run of two half-width items merges into an integral item, so
        # the compressed sequence holds ints and the numpy backend solves it.
        n = fastpath.MIN_FAST_N
        values = [rng.randint(-3, 3)]
        while len(values) < n:
            values.append(rng.choice([v for v in range(-3, 4) if v != values[-1]]))
        seq = build_sequence([(Fraction(v, 2), Fraction(1, 2)) for v in values for _ in range(2)])
        assert seq.prefix_arrays() is None
        comp = compress_runs(seq)
        assert comp.n == n and comp.is_uniform and fastpath.eligible(comp)
        with monkeypatch.context() as m:
            m.setattr(fastpath, "MIN_FAST_N", n + 1)
            want = solve(SolveRequest(comp, 5, 40))

        def no_sweep(*a, **kw):
            raise AssertionError("a pure sweep ran")

        for name in ("max_density_min_width", "max_density_uniform", "max_density_general"):
            monkeypatch.setattr(solvers, name, no_sweep)
        got = solve(SolveRequest(comp, 5, 40))
        assert (got.start, got.end, got.sum, got.width) == (
            want.start, want.end, want.sum, want.width)
        assert type(got.sum) is int

    def test_products_beyond_int64_use_exact_ints(self, monkeypatch):
        # Every prefix fits int64, but 2**60 * 16 wraps to 0 there, which
        # would merge all four items; the runs are found over the lists.
        monkeypatch.setattr(fastpath, "MIN_FAST_N", 1)
        big = 1 << 60
        seq = build_sequence([(big, 16), (big, 16), (-big, 16), (-big, 16)])
        assert seq.prefix_arrays() is not None and not fastpath.eligible(seq)
        assert compress_runs(seq).items == [(2 * big, 32), (-2 * big, 32)]


class TestParseTsv:
    def test_basic(self):
        seq = parse_tsv("5\t1\n")
        assert seq.items == [(5, 1)]
        assert (seq.value_scale, seq.weight_scale) == (1, 1)

    def test_decimals_and_comments(self):
        seq = parse_tsv("# header\n1.5\t2\n-0.25\t0.5\n")
        assert seq.value_scale == 100
        assert seq.weight_scale == 10
        assert seq.items == [(150, 20), (-25, 5)]

    def test_big_and_exponent_integers_exact(self):
        # Integers of up to MAX_INTEGER_DIGITS digits stay exact; exponents
        # are outside the grammar.
        big = "9" * MAX_INTEGER_DIGITS
        seq = parse_tsv(f"{'9' * 30}\t1\n-000{big}.000\t1.50\n")
        assert seq.items == [(int("9" * 30), 10), (-int(big), 15)]
        assert (seq.value_scale, seq.weight_scale) == (1, 10)
        with pytest.raises(MalformedTsv, match=f"line 2: {big}9 has more than "):
            parse_tsv(f"1\t1\n{big}9\t1\n")
        for row in ("1\t1e40", "-2.5e3\t1"):
            with pytest.raises(MalformedTsv, match="line 2: not a decimal number: '[-.0-9e]+'$"):
                parse_tsv(f"1\t1\n{row}\n")

    @pytest.mark.parametrize("row, why", [
        ("Infinity\t1", "not a decimal number"),
        ("1\tnan", "not a decimal number"),
        ("1e999999999\t1", "not a decimal number"),
        ("1\t1e-999999999", "not a decimal number"),
        ("1\t1.0000000004", "more than 9 decimal places"),
        ("0.0000000001\t1", "more than 9 decimal places"),
        ("1\t0", "weight must be > 0"),
        ("1\t-0.0", "weight must be > 0"),
        ("1\t-2.5", "weight must be > 0"),
    ])
    def test_refuses_what_it_cannot_scale_exactly(self, row, why):
        with pytest.raises(MalformedTsv, match=f"line 3: .*{why}") as exc:
            parse_tsv(f"# v\tw\n1\t1\n{row}\n")
        assert exc.value.line == 3

    def test_malformed(self):
        with pytest.raises(MalformedTsv) as exc:
            parse_tsv("1\t2\t3\n")
        assert exc.value.line == 1
        with pytest.raises(MalformedTsv):
            parse_tsv("a\tb\n")
        with pytest.raises(MalformedTsv):
            parse_tsv("# only comments\n")

    @pytest.mark.parametrize("c", ["\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\v", "\f"],
                             ids=["FS", "GS", "RS", "NEL", "LS", "PS", "VT", "FF"])
    def test_only_lf_crlf_and_cr_end_lines(self, c):
        # str.splitlines ends a line at each of these; the grammar does not.
        for text, want in ((f"1\t2{c}3\t4\nx\ty\n", "line 1: expected 2 fields, got 3"),
                           (f"# a{c}1\t1\n1\t1\nx\ty\n", "line 3: not a decimal number: 'x'")):
            for data in (text, text.encode()):
                with pytest.raises(MalformedTsv) as exc:
                    parse_tsv(data)
                assert str(exc.value) == want

    def test_numbers_are_python_ints_and_lists_stay_unbuilt(self, rng):
        n = fastpath.MIN_FAST_N
        rows = [(rng.randint(-999, 999), rng.randint(10, 30)) for _ in range(n)]
        text = "# value\tweight\n" + "".join(f"{a / 100:.2f}\t{w / 10:.1f}\n" for a, w in rows)
        seq = parse_tsv(text)
        seg = solve(SolveRequest(seq, 100, 200))
        assert seq._pv is None  # read from the arrays, solved by the backend
        assert type(seg.sum) is int and type(seg.width) is int
        assert (seq.value_scale, seq.weight_scale) == (100, 10)
        assert (seg.sum, seg.width) == tuple(
            sum(col) for col in zip(*rows[seg.start - 1:seg.end]))

    @staticmethod
    def _long_text(rows):
        # Both columns' absolute sums stay below 2**31 up to 4e5 rows.
        return "# value\tweight\n" + "".join(
            f"{(k * 37) % 199 - 99}.{k % 10}\t{1 + k % 3}.{k % 10}\n" for k in range(rows))

    @staticmethod
    def _traced_parse(source):
        """parse_tsv(source()) and the traced memory (kept, peak) of the call."""
        import numpy  # noqa: F401  (its import is not the parse's memory)

        tracemalloc.start()
        try:
            seq = parse_tsv(source())
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return seq, kept, peak

    def _check_int32_columns(self, seq, rows, kept, peak):
        # The sequence keeps two int32 columns, and the parse needs only a
        # few chunks' scratch beyond them, however long the input.
        assert seq._pv is None and seq.n == rows
        assert [col.dtype.name for col in seq.prefix_arrays()] == ["int32", "int32"]
        assert kept >= 8 * rows
        assert peak - kept <= 12 * bio.TSV_CHUNK, (peak - kept) / bio.TSV_CHUNK

    def test_array_path_peak_stays_near_the_sequence(self):
        # Text is encoded a chunk at a time: no encoded copy is held.
        for rows in (100_000, 400_000):
            text = self._long_text(rows)
            seq, kept, peak = self._traced_parse(lambda: text)
            self._check_int32_columns(seq, rows, kept, peak)

    def test_array_path_on_bytes_peaks_near_text_and_sequence(self):
        # Bytes are read a chunk at a time: no decoded copy of the text.
        for rows in (100_000, 400_000):
            text = self._long_text(rows)
            data = text.encode()
            seq, kept, peak = self._traced_parse(lambda: data)
            self._check_int32_columns(seq, rows, kept, peak)
            assert len(data) > 12 * bio.TSV_CHUNK
            assert stored(seq) == stored(parse_tsv(text))

    def test_array_path_on_a_file_never_holds_its_bytes(self, tmp_path):
        path = tmp_path / "long.tsv"
        for rows in (100_000, 400_000):
            path.write_text(self._long_text(rows))
            assert path.stat().st_size > 12 * bio.TSV_CHUNK
            with open(path, "rb") as fh:
                seq, kept, peak = self._traced_parse(lambda: fh)
            self._check_int32_columns(seq, rows, kept, peak)
            assert stored(seq) == stored(parse_tsv(path.read_text()))

    def test_unit_weights_keep_one_column_of_exact_size(self):
        # Blank and comment lines leave no slack, and a unit-weight
        # sequence keeps no weight column, not even as the base of V.
        n = fastpath.MIN_FAST_N + 7
        text = "# value\tweight\n\n" + "".join(f"{k % 19 - 9}\t1\n# note\n" for k in range(n))
        for data in (text, text.encode()):
            seq = parse_tsv(data)
            V, W = seq.prefix_arrays()
            assert seq._pv is None and seq.n == n and W is None
            assert (V if V.base is None else V.base).nbytes <= (n + 1) * 8
        seq = parse_tsv(text.replace("\t1\n", "\t2\n"))
        for col in seq.prefix_arrays():
            assert (col if col.base is None else col.base).nbytes <= (n + 1) * 8

    @staticmethod
    def parse_on(text, min_fast_n, chunk=bio.TSV_CHUNK):
        """What parse_tsv(text) stores, or its error's type, line and message,
        with the array path's size gate and chunk set; and whether the array
        path gave the answer."""
        with mock.patch.object(fastpath, "MIN_FAST_N", min_fast_n), \
                mock.patch.object(bio, "TSV_CHUNK", chunk):
            try:
                seq = parse_tsv(text)
            except MaxsegError as exc:
                return (type(exc), getattr(exc, "line", None), str(exc)), False
            arrays_answered = seq._pv is None
            return stored(seq), arrays_answered

    def both_paths(self, text):
        """parse_tsv(text) on the array path and on the pure reader alone
        (the exact path), and whether the array path gave the answer; the
        text's UTF-8 bytes, as bytes and as a binary file, give the same on
        both paths."""
        arrays, arrays_answered = self.parse_on(text, 1)
        assert self.parse_on(text, 1, chunk=4) == (arrays, arrays_answered)  # many chunks
        data = text.encode()
        for source in (lambda: data, lambda: io.BytesIO(data)):
            assert self.parse_on(source(), 1) == (arrays, arrays_answered)
            assert self.parse_on(source(), 1, chunk=4) == (arrays, arrays_answered)
            assert self.parse_on(source(), 1 << 62)[0] == self.parse_on(text, 1 << 62)[0]
        if arrays_answered:
            assert all(type(x) is int for x in arrays[0] + arrays[1])
        return arrays, self.parse_on(text, 1 << 62)[0], arrays_answered

    IN_GRAMMAR = [
        "1\t2\r\n3\t4\r\n",  # CRLF
        "1\t2\t\n3 \t4\t \n",  # trailing tabs and spaces
        "1\t2\n# mid-file comment: 1.5 \t x\n  \t# indented\n3\t4\n",
        "-0\t1\n5\t1\n",
        "-0.00\t1\n1\t1\n",
        "007.50\t001.0\n-000\t1.000000000\n",  # leading and trailing zeros
        "1.50\t2.50\n",
        "123456789012345678\t1\n-999999999999999999\t1\n",  # 18 digits
        "0.123456789\t0.000000001\n",  # 9 places
        "999999999999999999\t1\n" * 4,  # absolute sum just under 2**62
        "1\t1\n\n \t \n2\t3\n",  # blank lines
        "1\t2\n3\t4",  # no final line feed
        "5\t1\n#1\t1\n",
        "1\t1\n2.5\t1\n3.25\t1.0\n",  # later chunks need a finer grid
        "1.20\t1.0\n3.25\t2.00\n4.10\t1\n",  # trailing zeros in some chunks only
        "2000000000\t1\n-2000000000\t1\n5\t1\n",  # an absolute sum past 2**31 widens
        "2000000000\t1\n2000000000\t1\n0.5\t1\n",  # a finer grid after widening
        "1\t2\n# " + "a long comment, " * 8 + "\n3\t4\n",  # blocks with no line feed
        "1\t123456789012345678\n-5\t1\n",  # 18-digit weights beside int32 values
        "1\t2\n3\t1.5\n",  # the least and greatest weight move to a finer grid
        "1\t2\r3\t4\n",  # a lone CR
        "1\t2\n# caf\u00e9\n",  # UTF-8 in a comment
        "# a\vb c\n1\t1\n",  # a control byte in a comment
        "-123456789.123456789\t1\n",  # 20 bytes: a sign, 18 digits and a dot
        "1\t1\n" * 8 + "2\t2000.000000001\n" + "3\t1\n" * 8,  # one long weight
        "1\t2 \n 3 \t 4\n",  # gaps of three bytes, with and without a line end
    ]
    OUTSIDE_GRAMMAR = [
        "1.\t1\n", ".5\t1\n", "+1\t1\n", "1e3\t1\n", "1_0\t1\n", "-\t1\n", "-.5\t1\n",
        "1-2\t1\n", "--1\t1\n", "1..2\t1\n", "1.2.3\t1\n", "1\t#1\n",
        "1234567890123456789\t1\n",  # 19 digits
        "0.1234567891\t1\n", "1.0000000000\t1\n",  # 10 places
        "999999999999999999\t1\n" * 10, "1\t999999999999999999\n" * 10,  # sums past 2**63
        "999999999999999999\t1\n" * 5,  # a sum inside int64 but past the 2**62 margin
        "999999999999999999\t1\n0.5\t1\n",  # an item past int64 once scaled
        "1\t0\n", "1\t-2\n", "1\t-0\n", "2\t1\n1\t0.0\n",  # weights not positive
        "1\t2\v\n", "1\v2\n", "1\t2\f\n", "1\x00\t2\n", "1\t2\x7f\n",
        "1\t\uff12\n",  # non-ASCII outside a comment
        "1\r\t2\n", "# a\rb\n1\t1\n",  # a lone CR ends a line
        "1\n", "1\t2\t3\n", "1\t2\n3\n", "1\t2\t3\t4\n",  # 1, 3 and 4 fields
        "# only\n# comments\n", "\n \n", "a\tb\n",
        "1234567890.123456789\t1\n",  # 19 digits and a dot
        "1#\t2\n", "1\t2#\n", "1\t1\n-.5\t1\n", ".\t1\n", "1\t.\n",
    ]

    def test_each_column_widens_once_its_sum_leaves_int32(self):
        text = "1000000000\t1\n" * 2 + "1000000000\t1.5\n"
        for chunk in (4, bio.TSV_CHUNK):
            with mock.patch.object(fastpath, "MIN_FAST_N", 1), \
                    mock.patch.object(bio, "TSV_CHUNK", chunk):
                V, W = parse_tsv(text).prefix_arrays()
            assert (V.dtype.name, W.dtype.name) == ("int64", "int32")
            assert (V.tolist(), W.tolist()) == ([0, 10**9, 2 * 10**9, 3 * 10**9], [0, 10, 20, 35])

    @pytest.mark.parametrize("text", IN_GRAMMAR + OUTSIDE_GRAMMAR)
    def test_array_and_exact_paths_agree(self, text):
        arrays, exact, arrays_answered = self.both_paths(text)
        assert arrays == exact
        assert arrays_answered == (text in self.IN_GRAMMAR)

    # Rows in the array path's grammar, about ten to a 64-byte chunk.
    LONG_ROWS = [f"{k % 7 - 3}.{k % 10}\t{1 + k % 3}\n" for k in range(60)]

    @pytest.mark.parametrize("at", [0, 30, 60], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", ["1_000\t1\n", "1\t0\n", "1\t2\t3\n", "# \udcff\n",
                                     "1\t-.5\n"])
    def test_a_fault_is_read_from_the_chunk_the_array_path_stopped_at(self, at, bad):
        # The array path accepts every chunk before the faulty one, so the
        # line reader starts there, and never reads the rows before it.
        text = "".join(self.LONG_ROWS[:at]) + bad + "".join(self.LONG_ROWS[at:])
        data = text.encode(errors="surrogateescape")
        line_reader = self.parse_on(data, 1 << 62)[0]
        assert line_reader[0] is MalformedTsv and line_reader[1] == at + 1
        with mock.patch.object(bio, "decimal_units", wraps=bio.decimal_units) as read:
            assert self.parse_on(data, 1, chunk=64)[0] == line_reader
        assert read.call_count <= 2 * 16  # two fields a row, at most 16 rows

    @pytest.mark.parametrize("past", ["999999999999999999\t1\n" * 10,
                                      "1234567890123456789\t1\n"],
                             ids=["sum past int64", "19 digits"])
    def test_a_chunk_only_past_the_array_path_then_a_fault(self, past):
        # The rows from the chunk the array path stopped at hold no fault
        # until a later line: that fault is raised.  With no fault at all,
        # the input is read again from its start.
        rows = self.LONG_ROWS
        for tail, want in (("1_000\t1\n", MalformedTsv), ("", None)):
            text = "".join(rows[:20]) + past + "".join(rows[20:]) + tail
            line_reader = self.parse_on(text, 1 << 62)
            got = self.parse_on(text, 1, chunk=64)
            assert got == line_reader
            if want:
                assert got[0][:2] == (want, text.count("\n"))
            else:
                assert got[1] is False  # answered by the line reader, in Python ints

    # Mostly rows in the array path's grammar, so both paths answer often;
    # the rest are fields, gaps and lines that leave it, drawn from an edge
    # alphabet of signs, dots, underscores, exponents, odd blanks and breaks.
    EDGE = ["+", "-", ".", "_", "e", "E", "\u00a0", "\u0661", "\x1c", "\u2028", "\v", "\r"]
    ODD_FIELDS = st.one_of(
        st.from_regex(r"-?[0-9]{1,20}(\.[0-9]{1,11})?", fullmatch=True),
        st.sampled_from(["-0", "1.50", "1.", ".5", "+1", "1e3", "#", "x", "-", "1..2", "1_000",
                         "+.5", "5.", "Infinity", "nan", "\u0661\u0662"]),
        st.text(st.sampled_from(EDGE + list("0123456789")), min_size=1, max_size=5),
    )
    VALUES = st.from_regex(r"-?[0-9]{1,6}(\.[0-9]{1,9})?", fullmatch=True)
    WEIGHTS = st.from_regex(r"[0-9]{0,5}[1-9](\.[0-9]{1,9})?", fullmatch=True)
    ROWS = st.tuples(VALUES, st.sampled_from(["\t", " ", " \t "]), WEIGHTS,
                     st.sampled_from(["", "\t", " "])).map("".join)
    ODD_ROWS = st.tuples(st.one_of(VALUES, ODD_FIELDS),
                         st.sampled_from(["\t", "\r", "\v", "\u00a0", "\x1c", "\u2028", "\f"]),
                         st.one_of(WEIGHTS, ODD_FIELDS),
                         st.sampled_from(["", "\r", "\v", "\u00a0", "\u2028"])).map("".join)
    LINES = st.one_of(ROWS, ODD_ROWS, st.sampled_from(
        ["", "# note 1\t2", "  #x", "1", "1\t2\t3", "1 2 3 4", "\t", "0\t0"]))

    @given(st.lists(st.one_of(ROWS, ROWS, ROWS, LINES), min_size=1, max_size=8),
           st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=300, deadline=None)
    def test_array_and_exact_paths_agree_on_random_text(self, lines, end):
        arrays, exact, _ = self.both_paths(end.join(lines) + end)
        assert arrays == exact

    @given(st.lists(st.one_of(ROWS, ROWS, LINES), min_size=1, max_size=8),
           st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=60, deadline=None)
    def test_one_grammar_below_and_above_the_size_gate(self, lines, end):
        # The same lines, repeated below and above the array path's size
        # gate, give the same items or the same first faulty line.
        copy = end.join(lines) + end
        results = []
        for copies in (10, fastpath.MIN_FAST_N + 10):
            try:
                seq = parse_tsv(copy * copies)
            except MalformedTsv as exc:
                results.append(str(exc))
            else:
                n = seq.n // copies
                assert seq.items == seq.items[:n] * copies
                results.append((seq.items[:n], seq.value_scale, seq.weight_scale))
        assert results[0] == results[1]

    @given(st.lists(st.tuples(st.integers(-99, 99), st.integers(1, 99)), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_integers(self, items):
        text = "".join(f"{a}\t{w}\n" for a, w in items)
        seq = parse_tsv(text)
        assert seq.items == items
