"""The column-major VLAD scan and the posting-list BoW scan against the frozen
row-major scans (scan_reference.py): identical score floats and orders."""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import scan_reference as ref
from index_columns import bow_matrix, histogram_of
from dehash.aggregate import RANK_NORMALIZATION, normalize_vlad
from dehash.retrieval import DatabaseIndex, rank_bow, rank_vlad

from test_retrieval import small_index  # noqa: F401  (a fixture)

# (N, D) shapes whose N*D is below 8, leaves a remainder after the groups of
# 8, fills exactly one 128-term block, or splits above 128 (136 and 264).
VLAD_SHAPES = [(1, 4), (2, 2), (3, 4), (2, 6), (8, 16), (16, 8), (1, 128), (8, 17), (17, 8), (8, 33), (24, 11)]


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
