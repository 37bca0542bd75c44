"""The column-major VLAD and ADC scans, the posting-list BoW scan, the GPS
scan and the integer Hamming ranking against the frozen row-major scans
(scan_reference.py) and the stable float sort: identical score floats and
orders, on small drawn indexes and on one of the benchmark's 5000 rows; and
the BoW readers on the narrow index types against the same rows stored wide."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scan_reference as ref
from index_columns import NARROW_CASES, bow_matrix, histogram_of, narrow_case, widened
from dehash.aggregate import RANK_NORMALIZATION, BowMatrix, normalize_vlad
from dehash.hashing import BinaryCode
from dehash.reconstruct import (
    CandidateVWs, _stored_words, candidates_from_binary, candidates_from_category, pseudo_bow
)
from dehash.retrieval import (
    DatabaseIndex, PQCodebooks, attach_pq, rank_adc, rank_bow, rank_gps, rank_hamming, rank_vlad
)
from pair_reference import encode_pq, haversine_m

from test_retrieval import small_index  # noqa: F401  (a fixture)

# (N, D) shapes whose N*D is below 8, leaves a remainder after the groups of
# 8, fills exactly one 128-term block, or splits above 128 (136 and 264).
VLAD_SHAPES = [(1, 4), (2, 2), (3, 4), (2, 6), (8, 16), (16, 8), (1, 128), (8, 17), (17, 8), (8, 33), (24, 11)]


# The number of images ``perfbench``'s scan-5k workload indexes: rankings
# this long are sorted at the size the benchmark times.
BENCH_ROWS = 5000


def ids_of(n):
    return [f"im{i:04d}" for i in range(n)]


def assert_ranked_as(ranking, ids, want):
    """``ranking`` is the stable order of ``want`` with exactly its floats."""
    order = np.argsort(want, kind="stable")
    assert ranking.ids() == [ids[r] for r in order]
    assert ranking._scores.tobytes() == want[order].tobytes()


class TestVladScan:
    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from(VLAD_SHAPES),
        n=st.integers(1, 40),
        query_row=st.one_of(st.none(), st.integers(0, 39)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scores_equal_row_major_scan(self, shape, n, query_row, seed):
        rng = np.random.default_rng(seed)
        stack = rng.standard_normal((n, *shape)) * 10.0 ** rng.integers(-3, 4, size=(n, *shape))
        stack[rng.random((n, shape[0])) < 0.2] = 0  # zero sub-vectors
        stack[rng.random(n) < 0.3] = stack[0]  # repeated rows: tied distances
        query = rng.standard_normal(shape) if query_row is None else stack[query_row % n]
        ids = ids_of(n)
        index = DatabaseIndex(None, ids, vlads=stack)
        matrix = np.array([normalize_vlad(row, RANK_NORMALIZATION).flattened() for row in stack])
        assert index.ranking_vlad_matrix().tobytes() == matrix.tobytes()
        assert index.ranking_vlad_matrix().flags.c_contiguous
        q = normalize_vlad(query, RANK_NORMALIZATION).flattened()
        assert_ranked_as(rank_vlad(index, query), ids, ref.vlad_distances(matrix, q))

    def test_benchmark_sized_index(self):
        rng = np.random.default_rng(5000)
        stack = rng.standard_normal((BENCH_ROWS, 8, 16))
        stack[rng.random(BENCH_ROWS) < 0.1] = stack[7]  # one long run of tied distances
        ids = ids_of(BENCH_ROWS)
        index = DatabaseIndex(None, ids, vlads=stack)
        matrix = np.array([normalize_vlad(row, RANK_NORMALIZATION).flattened() for row in stack])
        for query in (rng.standard_normal((8, 16)), stack[7]):
            q = normalize_vlad(query, RANK_NORMALIZATION).flattened()
            assert_ranked_as(rank_vlad(index, query), ids, ref.vlad_distances(matrix, q))


def bow_index(rows, vocab_size):
    ids = ids_of(len(rows))
    histograms = [histogram_of(row, vocab_size) for row in rows]
    tree = SimpleNamespace(num_leaves=vocab_size)
    return DatabaseIndex(tree, ids, bow=bow_matrix(histograms, vocab_size)), ids


COUNT = st.one_of(
    st.integers(1, 6).map(float),
    st.floats(1e-6, 50.0),  # reconstructed histograms hold fractional counts
)


class TestBowScan:
    @settings(max_examples=150, deadline=None)
    @given(
        vocab_size=st.sampled_from([1, 4, 9, 64]),
        rows=st.lists(st.dictionaries(st.integers(0, 63), COUNT, min_size=1, max_size=6), min_size=1, max_size=30),
        query=st.dictionaries(st.integers(0, 63), COUNT, min_size=1, max_size=10),
        one_word_rows=st.booleans(),
    )
    def test_scores_equal_dense_gather(self, vocab_size, rows, query, one_word_rows):
        # Stored words fold into the lower half of the vocabulary, so query
        # words in the upper half are held by no row.
        held = max(1, vocab_size // 2)
        rows = [{w % held: c for w, c in row.items()} for row in rows]
        if one_word_rows:
            rows = [dict([next(iter(row.items()))]) for row in rows]
        index, ids = bow_index(rows, vocab_size)
        histogram = histogram_of({w % vocab_size: c for w, c in query.items()}, vocab_size)
        assert_ranked_as(rank_bow(index, histogram), ids, ref.bow_scores(index.bow, histogram))

    def test_query_words_no_row_holds(self):
        index, ids = bow_index([{0: 2.0, 1: 1.0}, {1: 3.0}, {0: 1.0}], 6)
        histogram = histogram_of({4: 1.0, 5: 2.5}, 6)
        ranking = rank_bow(index, histogram)
        assert ranking.entries == tuple((i, 2.0) for i in ids)
        assert_ranked_as(ranking, ids, ref.bow_scores(index.bow, histogram))

    def test_integer_counts_on_a_built_index(self, small_index):
        rng = np.random.default_rng(229)
        m = small_index.tree.num_leaves
        for _ in range(30):
            words = rng.choice(m, size=int(rng.integers(1, 8)), replace=False)
            counts = rng.integers(1, 9, size=len(words)).astype(float)
            if rng.random() < 0.5:
                counts *= rng.uniform(0.01, 3.0, size=len(words))  # fractional
            histogram = histogram_of(dict(zip(words.tolist(), counts.tolist())), m)
            want = ref.bow_scores(small_index.bow, histogram)
            assert_ranked_as(rank_bow(small_index, histogram), list(small_index.ids), want)

    def test_benchmark_sized_index(self):
        # Integer counts over 64 words: most rows hold none of a query's
        # words and tie at 2.0, and the rest tie in long runs below it.
        rng = np.random.default_rng(5001)

        def counts(size, top):
            words = rng.choice(64, size=size, replace=False)
            return dict(zip(words.tolist(), rng.integers(1, top, size=size).astype(float).tolist()))

        index, ids = bow_index([counts(int(rng.integers(1, 5)), 4) for _ in range(BENCH_ROWS)], 64)
        for size in (1, 3, 8):
            histogram = histogram_of(counts(size, 6), 64)
            want = ref.bow_scores(index.bow, histogram)
            assert np.sum(want == 2.0) > 1000 and len(np.unique(want)) < BENCH_ROWS // 10
            assert_ranked_as(rank_bow(index, histogram), ids, want)


class TestNarrowBowColumns:
    """The narrow BowMatrix types read back as the same rows stored wide
    (int32 words and posting rows, float64 counts): the same rankings,
    pseudo-histograms and candidate words, byte for byte."""

    @pytest.mark.parametrize("rows, vocab_size, top", NARROW_CASES)
    def test_readers_equal_the_wide_rows(self, rows, vocab_size, top):
        indptr, words, counts = narrow_case(rows, vocab_size, top, seed=rows + vocab_size)
        ids = [f"im{i:06d}" for i in range(rows)]
        tree = SimpleNamespace(num_leaves=vocab_size, num_vlad_centers=1)
        categories = {image_id: r % 3 for r, image_id in enumerate(ids)}
        bow = BowMatrix(indptr, words, counts, vocab_size)
        narrow = DatabaseIndex(tree, ids, bow=bow, categories=categories)
        wide = DatabaseIndex(tree, ids, bow=widened(narrow.bow), categories=categories)
        assert np.array_equal(wide.bow.words, words) and np.array_equal(wide.bow.counts, counts)
        last = vocab_size - 1
        queries = (
            histogram_of({0: 2.0, 3: 1.0, last: 5.0}, vocab_size),
            histogram_of({1: 0.37, 4: 1.0, last: 2.9}, vocab_size),  # fractional
        )
        for query in queries:
            got, want = rank_bow(narrow, query), rank_bow(wide, query)
            assert got._order.tobytes() == want._order.tobytes()
            assert got._scores.tobytes() == want._scores.tobytes()
            assert_ranked_as(got, ids, ref.bow_scores(wide.bow, query))
            got_h, want_h = pseudo_bow(narrow, got, 5), pseudo_bow(wide, want, 5)
            assert got_h.words.tobytes() == want_h.words.tobytes()
            assert got_h.values.tobytes() == want_h.values.tobytes()
            top_ids = got.top_ids(5)
            assert np.array_equal(_stored_words(narrow, top_ids), _stored_words(wide, top_ids))
            got_c, want_c = candidates_from_binary(narrow, got, 5), candidates_from_binary(wide, want, 5)
            assert got_c.mask.tobytes() == want_c.mask.tobytes()
        for category in range(3):
            got_c = candidates_from_category(narrow, category)
            assert got_c.mask.tobytes() == candidates_from_category(wide, category).mask.tobytes()
            members = [i for i in ids if categories[i] == category]  # the former per-member loop
            want_c = CandidateVWs.from_leaf_ids(tree, _stored_words(wide, members))
            assert got_c.mask.tobytes() == want_c.mask.tobytes()


# Sub-vector widths below 8, at 8, between 9 and 16 and above 128 (the
# halving branch of the pairwise sum), and sub-vector counts on either side
# of one group of 8 rows.
ADC_WIDTHS = [1, 3, 7, 8, 9, 12, 16, 136]
ADC_SUBVECTORS = [4, 8, 16, 17]


class TestAdcScan:
    @settings(max_examples=120, deadline=None)
    @given(
        width=st.sampled_from(ADC_WIDTHS),
        m=st.sampled_from(ADC_SUBVECTORS),
        bits=st.sampled_from([1, 2, 4, 8, 9]),
        n=st.integers(1, 60),
        query_row=st.one_of(st.none(), st.integers(0, 59)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scores_equal_row_major_scan(self, width, m, bits, n, query_row, seed):
        rng = np.random.default_rng(seed)
        stack = rng.standard_normal((n, m, width)) * 10.0 ** rng.integers(-3, 4, size=(n, m, 1))
        stack[rng.random(n) < 0.3] = stack[0]  # repeated rows: tied scores
        ids = ids_of(n)
        index = DatabaseIndex(None, ids, vlads=stack)
        matrix = index.ranking_vlad_matrix()
        # Codebooks drawn from the rows themselves, so codes repeat and tie.
        k = 2**bits
        books = matrix.reshape(n, m, width)[rng.integers(0, n, size=k)].transpose(1, 0, 2).copy()
        books += rng.standard_normal(books.shape) * (rng.random((m, k, 1)) < 0.5) * 0.1
        attach_pq(index, PQCodebooks(books))
        raw = np.stack([index.pq_codes[i] for i in ids])
        assert raw.dtype == (np.uint8 if bits <= 8 else np.uint16)
        for row, code in zip(matrix, raw):
            assert np.array_equal(code, encode_pq(index.pq, row))
        query = rng.standard_normal((m, width)) if query_row is None else stack[query_row % n]
        q = normalize_vlad(query, RANK_NORMALIZATION).flattened()
        assert_ranked_as(rank_adc(index, query), ids, ref.adc_scores(books, raw, q))

    def test_benchmark_sized_index(self):
        # scan-5k's product quantizer: 16 sub-vectors of 8 dimensions, 8 bits.
        rng = np.random.default_rng(5002)
        m, width, bits = 16, 8, 8
        stack = rng.standard_normal((BENCH_ROWS, m, width))
        stack[rng.random(BENCH_ROWS) < 0.1] = stack[3]  # repeated rows: tied scores
        ids = ids_of(BENCH_ROWS)
        index = DatabaseIndex(None, ids, vlads=stack)
        rows = index.ranking_vlad_matrix().reshape(BENCH_ROWS, m, width)
        books = rows[rng.integers(0, BENCH_ROWS, size=2**bits)].transpose(1, 0, 2).copy()
        attach_pq(index, PQCodebooks(books))
        raw = np.stack([index.pq_codes[i] for i in ids])
        for query in (rng.standard_normal((m, width)), stack[3]):
            q = normalize_vlad(query, RANK_NORMALIZATION).flattened()
            assert_ranked_as(rank_adc(index, query), ids, ref.adc_scores(books, raw, q))

    @pytest.mark.parametrize(
        "m, bits, stored", [(1, 8, np.uint8), (4, 6, np.uint8), (16, 8, np.uint16), (17, 12, np.uint32)]
    )
    def test_stored_offsets_and_raw_codes(self, m, bits, stored):
        # The (m, n) offset codes fit the smallest unsigned type holding m*k - 1.
        rng = np.random.default_rng(m)
        n, width = 50, 2
        index = DatabaseIndex(None, ids_of(n), vlads=rng.standard_normal((n, m, width)))
        books = rng.standard_normal((m, 2**bits, width))
        attach_pq(index, PQCodebooks(books))
        raw = np.stack([index.pq_codes[i] for i in index.ids])
        assert index._pq_codes.dtype == stored and index._pq_codes.shape == (m, n)
        assert np.array_equal(index._pq_codes, raw.T + (np.arange(m) * 2**bits)[:, None])
        q = rng.standard_normal((m, width))
        qn = normalize_vlad(q, RANK_NORMALIZATION).flattened()
        assert_ranked_as(rank_adc(index, q), list(index.ids), ref.adc_scores(books, raw, qn))


class TestHammingRanking:
    @settings(max_examples=120, deadline=None)
    @given(
        nbits=st.integers(1, 40),
        n=st.one_of(st.integers(1, 50), st.integers(2000, 2600)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_order_is_the_stable_float_sort(self, nbits, n, seed):
        rng = np.random.default_rng(seed)
        bits = rng.random((n, nbits)) < rng.uniform(0.05, 0.95)
        bits[rng.random(n) < 0.2] = bits[0]  # repeated codes
        codes = np.packbits(bits, axis=1, bitorder="little")
        ids = ids_of(n)
        index = DatabaseIndex(None, ids, codes=codes, nbits=nbits)
        query = np.packbits(rng.random(nbits) < 0.5, bitorder="little")
        want = np.unpackbits(codes ^ query, axis=1).sum(axis=1).astype(np.float64)
        assert_ranked_as(rank_hamming(index, BinaryCode(query, nbits)), ids, want)

    def test_strided_codes(self):
        # Codes given as a column slice of a wider array still count right.
        rng = np.random.default_rng(5)
        wide = rng.integers(0, 256, size=(40, 9), dtype=np.uint8)
        codes = wide[:, 1:5]
        index = DatabaseIndex(None, ids_of(40), codes=codes, nbits=32)
        query = wide[7, 3:7]
        want = np.unpackbits(codes ^ query, axis=1).sum(axis=1).astype(np.float64)
        assert_ranked_as(rank_hamming(index, BinaryCode(query, 32)), ids_of(40), want)


class TestGpsScan:
    def test_benchmark_sized_index(self):
        # Fixes on a grid of 0.01 degrees, so images share places and tie.
        rng = np.random.default_rng(5003)
        lat_lon = np.column_stack(
            [40.0 + 0.01 * rng.integers(0, 30, BENCH_ROWS), -74.0 + 0.01 * rng.integers(0, 30, BENCH_ROWS)]
        )
        ids = ids_of(BENCH_ROWS)
        index = DatabaseIndex(None, ids, gps={i: (lat, lon) for i, (lat, lon) in zip(ids, lat_lon.tolist())})
        for query in ((40.123, -73.911), tuple(lat_lon[11].tolist())):
            want = ref.haversine_scan(lat_lon, query)
            assert len(np.unique(want)) < 1000
            assert_ranked_as(rank_gps(index, query), ids, want)
            for r in range(0, BENCH_ROWS, 97):
                assert want[r] == pytest.approx(haversine_m(query, tuple(lat_lon[r])), rel=1e-12, abs=1e-6)
