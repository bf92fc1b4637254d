import io
import tracemalloc
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
    write_fasta,
)
from maxseg import bio, fastpath
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
        buf = io.StringIO()
        write_fasta(recs, buf, line_width=17)
        again = parse_fasta(buf.getvalue())
        assert [(r.id, r.bases) for r in again] == [(r.id, r.bases) for r in recs]


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
        # Only the int64 prefix arrays stay: no per-base Python object is
        # built.  numpy's one-off import is not a per-base cost.
        import numpy  # noqa: F401

        n = 200_000
        rec = DnaRecord("s", "".join(rng.choice("ACGT") for _ in range(n)))
        tracemalloc.start()
        try:
            seq = map_to_sequence(rec, MappingSpec.gc01())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq.n == n
        assert peak / n <= 40, f"{peak / n:.0f} B/base"

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
        assert peak / n <= 40, f"{peak / n:.0f} B/base"  # lists cost over 70
        assert type(seg.sum) is int and type(seg.width) is int
        assert (seg.sum, seg.width) == (sum(seq.value(i) for i in range(seg.start, seg.end + 1)),
                                        seg.end - seg.start + 1)

    # Every symbol class: GC, AT, N/U, lowercase, unknown ASCII, and
    # non-ASCII up to the astral planes.
    ALPHABET = "ACGTacgtNnUuRyX-*" + "\u00e9\u03a9\U0001f9ec"

    @pytest.mark.parametrize("spec", [MappingSpec.gc01(), MappingSpec.huang("0.45")])
    def test_array_and_list_paths_agree(self, rng, monkeypatch, spec):
        for _ in range(40):
            n = rng.randint(1, 300)
            rec = DnaRecord("r", "".join(rng.choice(self.ALPHABET) for _ in range(n)))
            paths = []
            for min_fast_n in (1, n + 1):  # the array path, then the list path
                monkeypatch.setattr(fastpath, "MIN_FAST_N", min_fast_n)
                seq = map_to_sequence(rec, spec)
                assert (seq._pv is None) == (min_fast_n == 1)
                try:
                    map_to_sequence(rec, spec, strict=True)
                    refused = None
                except UnknownSymbol as exc:
                    refused = (exc.symbol, exc.position)
                paths.append((seq.prefix_value, seq.prefix_weight, seq.value_scale,
                              seq.is_uniform, seq.min_weight, seq.max_weight, refused))
            assert paths[0] == paths[1]
            assert all(type(x) is int for x in paths[0][0] + paths[0][1])

    def test_non_ascii_symbol_is_one_non_gc_item(self, monkeypatch):
        monkeypatch.setattr(fastpath, "MIN_FAST_N", 1)
        seq = map_to_sequence(DnaRecord("s", "G\u00e9\U0001f9ecC"), MappingSpec.gc01())
        assert [seq.value(i) for i in range(1, seq.n + 1)] == [1, 0, 0, 1]
        with pytest.raises(UnknownSymbol) as exc:
            map_to_sequence(DnaRecord("s", "GA\U0001f9ecC"), MappingSpec.gc01(), strict=True)
        assert (exc.value.symbol, exc.value.position) == ("\U0001f9ec", 3)

    def test_scores_beyond_int64_keep_the_list_path(self, monkeypatch):
        monkeypatch.setattr(fastpath, "MIN_FAST_N", 1)
        seq = map_to_sequence(DnaRecord("s", "GGGG"), MappingSpec(1 << 62, 0, 1))
        assert seq.prefix_value == [0, 1 << 62, 1 << 63, 3 << 62, 1 << 64]
        assert seq.int64_prefixes() is None

    def test_huang_p_validated(self):
        with pytest.raises(ValueError):
            MappingSpec.huang("1.5")
        for bad in ("0.1234567891", "nan", "abc"):  # too fine, not finite, not a number
            with pytest.raises(ValueError):
                MappingSpec.huang(bad)
        assert MappingSpec.huang("0.123456789").scale == 10**9


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
        import numpy as np

        for _ in range(40):
            n = rng.randint(1, 120)
            items = [(rng.choice((-2, 0, 1, 3)) * w, w)
                     for w in (rng.choice((1, 1, 2, 3)) for _ in range(n))]
            listed = build_sequence(items, value_scale=10, weight_scale=100)
            pv, pw = (np.array(col, dtype=np.int64) for col in (listed.prefix_value,
                                                                listed.prefix_weight))
            arrayed = WeightedSequence(pv, pw, value_scale=10, weight_scale=100,
                                       is_uniform=listed.is_uniform, min_weight=listed.min_weight,
                                       max_weight=listed.max_weight)
            monkeypatch.setattr(fastpath, "MIN_FAST_N", 1)
            comp = compress_runs(arrayed)
            assert arrayed._pv is None and comp._pv is None  # no list was filled
            monkeypatch.setattr(fastpath, "MIN_FAST_N", n + 1)
            assert stored(comp) == stored(compress_runs(listed))

    def test_products_beyond_int64_use_exact_ints(self, monkeypatch):
        # Every prefix fits int64, but 2**60 * 16 wraps to 0 there, which
        # would merge all four items; the runs are found over the lists.
        monkeypatch.setattr(fastpath, "MIN_FAST_N", 1)
        big = 1 << 60
        seq = build_sequence([(big, 16), (big, 16), (-big, 16), (-big, 16)])
        assert seq.int64_prefixes() is not None and not fastpath.eligible(seq)
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
        seq = parse_tsv(f"{'9' * 30}\t1e40\n-2.5e3\t1.50\n")
        assert seq.items == [(int("9" * 30), 10**41), (-2500, 15)]
        assert (seq.value_scale, seq.weight_scale) == (1, 10)

    @pytest.mark.parametrize("row, why", [
        ("Infinity\t1", "not a finite number"),
        ("1\tnan", "not a finite number"),
        ("1e999999999\t1", "integer digits"),
        ("1\t1e-999999999", "more than 9 decimal places"),
        ("1\t1.0000000004", "more than 9 decimal places"),
        ("0.0000000001\t1", "more than 9 decimal places"),
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
        """parse_tsv(text) on the array path and on the exact path, and
        whether the array path gave the answer."""
        arrays, arrays_answered = self.parse_on(text, 1)
        assert self.parse_on(text, 1, chunk=4) == (arrays, arrays_answered)  # many chunks
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
        "1\t2\v\n", "1\v2\n", "# a\vb c\n1\t1\n", "1\t2\f\n", "1\x00\t2\n", "1\t2\x7f\n",
        "1\t2\n# caf\u00e9\n", "1\t\uff12\n",  # non-ASCII
        "1\r\t2\n", "1\t2\r3\t4\n", "# a\rb\n1\t1\n",  # CR not before LF
        "1\n", "1\t2\t3\n", "1\t2\n3\n", "1\t2\t3\t4\n",  # 1, 3 and 4 fields
        "# only\n# comments\n", "\n \n", "a\tb\n",
    ]

    @pytest.mark.parametrize("text", IN_GRAMMAR + OUTSIDE_GRAMMAR)
    def test_array_and_exact_paths_agree(self, text):
        arrays, exact, arrays_answered = self.both_paths(text)
        assert arrays == exact
        assert arrays_answered == (text in self.IN_GRAMMAR)

    # Mostly rows in the array path's grammar, so both paths answer often;
    # the rest are fields, gaps and lines that leave it.
    ODD_FIELDS = st.one_of(
        st.from_regex(r"-?[0-9]{1,20}(\.[0-9]{1,11})?", fullmatch=True),
        st.sampled_from(["-0", "1.50", "1.", ".5", "+1", "1e3", "#", "x", "-", "1..2"]),
    )
    VALUES = st.from_regex(r"-?[0-9]{1,6}(\.[0-9]{1,9})?", fullmatch=True)
    WEIGHTS = st.from_regex(r"[0-9]{0,5}[1-9](\.[0-9]{1,9})?", fullmatch=True)
    ROWS = st.tuples(VALUES, st.sampled_from(["\t", " ", " \t "]), WEIGHTS,
                     st.sampled_from(["", "\t", " "])).map("".join)
    ODD_ROWS = st.tuples(st.one_of(VALUES, ODD_FIELDS), st.sampled_from(["\t", "\r", "\v"]),
                         st.one_of(WEIGHTS, ODD_FIELDS), st.sampled_from(["", "\r"])).map("".join)
    LINES = st.one_of(ROWS, ODD_ROWS, st.sampled_from(
        ["", "# note 1\t2", "  #x", "1", "1\t2\t3", "1 2 3 4", "\t", "0\t0"]))

    @given(st.lists(st.one_of(ROWS, ROWS, ROWS, LINES), min_size=1, max_size=8),
           st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=300, deadline=None)
    def test_array_and_exact_paths_agree_on_random_text(self, lines, end):
        arrays, exact, _ = self.both_paths(end.join(lines) + end)
        assert arrays == exact

    @given(st.lists(st.tuples(st.integers(-99, 99), st.integers(1, 99)), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_integers(self, items):
        text = "".join(f"{a}\t{w}\n" for a, w in items)
        seq = parse_tsv(text)
        assert seq.items == items
