from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dehash import aggregate
from dehash.aggregate import (
    RANK_NORMALIZATION,
    BowHistogram,
    BowMatrix,
    aggregate_images,
    compute_bow,
    compute_vlad,
    normalize_vlad,
    normalize_vlads,
)
from dehash.formats import load_descriptors, save_descriptors
from dehash.reconstruct import build_dictionary
from dehash.vocab import train_vocabulary

from index_columns import NARROW_CASES, histogram_of, narrow_case
from pair_reference import l1_normalized
from test_vocab import gaussian_mixture


@pytest.fixture(scope="module")
def tree():
    X = gaussian_mixture(1500, 4, 6, seed=41)
    return train_vocabulary(X, branch=4, levels=2, vlad_level=1, seed=41)


class TestBowHistogram:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            histogram_of({0: 0.0}, 10)
        with pytest.raises(ValueError):
            histogram_of({10: 1.0}, 10)

    @pytest.mark.parametrize(
        "words, values",
        [
            ([-1, 2], [1.0, 1.0]),  # word outside the vocabulary
            ([2, 10], [1.0, 1.0]),
            ([1, 2], [1.0, 0.0]),  # zero, negative or NaN value
            ([1, 2], [-1.0, 1.0]),
            ([1, 2], [1.0, float("nan")]),
            ([3, 1], [1.0, 1.0]),  # unsorted or repeated words
            ([2, 2], [1.0, 1.0]),
            ([1, 2], [1.0]),  # one value per word
            ([[1, 2]], [[1.0, 1.0]]),
        ],
    )
    def test_constructor_rejects(self, words, values):
        with pytest.raises(ValueError):
            BowHistogram(words, values, 10)

    def test_arrays_ascend_and_are_read_only(self):
        h = histogram_of({5: 6.0, 1: 2.0, 3: 0.5}, 8)
        assert h.words.dtype == np.int64 and h.values.dtype == np.float64
        assert h.words.tolist() == [1, 3, 5] and h.values.tolist() == [2.0, 0.5, 6.0]
        assert list(h.counts.items()) == [(1, 2.0), (3, 0.5), (5, 6.0)]
        assert h.num_words == 3 and h.total() == 8.5
        with pytest.raises(ValueError):
            h.values[0] = 1.0
        empty = BowHistogram([], [], 8)
        assert empty.counts == {} and empty.total() == 0.0 and l1_normalized(empty).num_words == 0

    def test_normalization_and_dense(self):
        h = histogram_of({1: 2.0, 5: 6.0}, 8)
        hn = l1_normalized(h)
        assert hn.counts == {1: 0.25, 5: 0.75}
        dense = h.to_dense()
        assert dense.tolist() == [0, 2.0, 0, 0, 0, 6.0, 0, 0]
        support = np.flatnonzero(dense)
        assert dict(zip(support.tolist(), dense[support].tolist())) == h.counts


class TestComputeBow:
    def test_repeated_center(self, tree):
        X = np.tile(tree.leaf_centers[5], (3, 1))
        assert compute_bow(tree, X).counts == {5: 3.0}

    def test_one_descriptor_per_leaf(self, tree):
        X = np.asarray(tree.leaf_centers)[::2]
        h = compute_bow(tree, X)
        assert h.counts == {t: 1.0 for t in range(0, tree.num_leaves, 2)}

    def test_count_conservation(self, tree):
        rng = np.random.default_rng(43)
        X = rng.normal(size=(200, tree.dim)) * 3
        assert compute_bow(tree, X).total() == 200

    def test_empty_input(self, tree):
        with pytest.raises(ValueError):
            compute_bow(tree, np.empty((0, tree.dim)))


class TestAggregateImages:
    def test_vlads_only_equal_compute_vlad(self, tree):
        # The training-VLAD path: no histograms, images split over passes.
        rng = np.random.default_rng(43)
        sets = [rng.normal(size=(rows, tree.dim)) for rows in (4, 1, 6, 25, 3)]
        sets.append(np.asarray(tree.leaf_centers[:7], dtype=np.float32))
        with mock.patch.object(aggregate, "PASS_ROWS", 10):
            bow, vlads = aggregate_images(tree, sets, bow=False)
        assert bow is None
        assert vlads.shape == (len(sets), tree.num_vlad_centers, tree.dim)
        for X, v in zip(sets, vlads, strict=True):
            assert np.array_equal(v, compute_vlad(tree, X))

    def test_columns_equal_per_set_results(self, tree):
        rng = np.random.default_rng(47)
        sets = [rng.normal(size=(rows, tree.dim)) * 3 for rows in (4, 1, 6, 25, 3)]
        with mock.patch.object(aggregate, "PASS_ROWS", 10):
            bow, vlads = aggregate_images(tree, sets)
        assert bow.indptr.dtype == np.int64 and bow.words.dtype == np.uint16
        assert bow.counts.dtype == np.uint8 and bow.mass.dtype == np.float64
        for r, X in enumerate(sets):
            s = bow.span(r)
            assert bow.histogram(r).counts == compute_bow(tree, X).counts
            assert list(bow.words[s]) == sorted(bow.words[s])
            assert bow.mass[r] == len(X)
            assert np.array_equal(vlads[r], compute_vlad(tree, X))

    def test_no_sets(self, tree):
        bow, vlads = aggregate_images(tree, [])
        assert len(bow.indptr) == 1 and len(bow.words) == len(bow.counts) == len(bow.mass) == 0
        assert vlads.shape == (0, tree.num_vlad_centers, tree.dim)


class TestBowMatrix:
    def test_callers_arrays_stay_writeable(self):
        words, values = np.array([1, 4]), np.array([2.0, 6.0])
        indptr, counts = np.array([0, 2, 3]), np.array([2.0, 6.0, 1.0])
        histogram = BowHistogram(words, values, 5)
        bow = BowMatrix(indptr, [1, 4, 0], counts, 5)
        for given in (words, values, indptr, counts):
            assert given.flags.writeable
        for stored in (histogram.words, histogram.values, bow.indptr, bow.counts):
            assert not stored.flags.writeable
        assert np.shares_memory(histogram.words, words) and np.shares_memory(bow.counts, counts)

    def test_rows_read_back(self):
        bow = BowMatrix([0, 2, 3], [1, 4, 0], [2.0, 6.0, 1.0], 5)
        assert bow.histogram(0).counts == {1: 2.0, 4: 6.0}
        assert (bow.counts[bow.span(0)] / bow.mass[0]).tolist() == [0.25, 0.75]
        assert bow.mass.tolist() == [8.0, 1.0]
        # Word 0 is entry 2 (row 1), word 1 entry 0 and word 4 entry 1 (row 0).
        assert bow.posting_ptr.tolist() == [0, 1, 2, 2, 2, 3]
        assert bow.posting_entries.tolist() == [2, 0, 1] and bow.posting_rows.tolist() == [1, 0, 0]
        with pytest.raises(ValueError):
            bow.counts[0] = 1.0
        with pytest.raises(ValueError):
            bow.posting_rows[0] = 0

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 6), max_size=30),
        vocab_size=st.sampled_from([1, 7, 64, 2**16, 2**16 + 1, 70_000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_postings_list_each_words_entries(self, sizes, vocab_size, seed):
        # The uint16 radix-sort path up to 2**16 words and the int32 path above.
        rng = np.random.default_rng(seed)
        rows = [np.sort(rng.choice(vocab_size, size=min(k, vocab_size), replace=False)) for k in sizes]
        indptr = np.cumsum([0] + [len(r) for r in rows])
        words = np.concatenate([np.empty(0, dtype=np.int64), *rows])
        bow = BowMatrix(indptr, words, rng.uniform(0.5, 3.0, size=len(words)), vocab_size)
        assert bow.posting_entries.dtype == np.int32 and bow.posting_rows.dtype == np.uint16
        assert bow.words.dtype == (np.uint16 if vocab_size <= 2**16 else np.int32)
        assert len(bow.posting_ptr) == vocab_size + 1
        for w in np.unique(np.concatenate([words, [0, vocab_size - 1]])):
            s = slice(bow.posting_ptr[w], bow.posting_ptr[w + 1])
            want = np.flatnonzero(words == w)
            assert np.array_equal(bow.posting_entries[s], want)
            assert np.array_equal(bow.posting_rows[s], np.searchsorted(indptr, want, side="right") - 1)
        assert bow.posting_ptr[-1] == len(words)

    @pytest.mark.parametrize(
        "indptr, words, counts",
        [
            ([0, 2, 2], [1, 4], [2.0, 6.0]),  # an empty row
            ([1, 2], [1, 4], [2.0, 6.0]),  # not starting at 0
            ([0, 2], [1, 4, 0], [2.0, 6.0]),  # more words than the rows hold
            ([0, 2], [1, 4], [2.0]),  # a word without a count
            ([0, 2], [4, 1], [2.0, 6.0]),  # words descending within a row
            ([0, 2], [1, 1], [2.0, 6.0]),  # a repeated word
            ([0, 2], [1, 5], [2.0, 6.0]),  # outside the vocabulary
            ([0, 2], [-1, 4], [2.0, 6.0]),
            ([0, 2], [1, 4], [2.0, 0.0]),  # a zero count
            ([0, 2], [1, 4], [2, 0]),  # integer counts are checked before they narrow
            ([0, 2], [1, 4], [2, -1]),
        ],
    )
    def test_malformed_rows_rejected(self, indptr, words, counts):
        with pytest.raises(ValueError):
            BowMatrix(indptr, words, counts, 5)

    @pytest.mark.parametrize("rows, vocab_size, top", NARROW_CASES)
    def test_narrow_types_hold_the_rows_exactly(self, rows, vocab_size, top):
        indptr, words, counts = narrow_case(rows, vocab_size, top)
        bow = BowMatrix(indptr, words, counts, vocab_size)
        assert bow.words.dtype == (np.uint16 if vocab_size <= 2**16 else np.int32)
        narrowest = {9: np.uint8, 255: np.uint8, 256: np.uint16, 65535: np.uint16, 65536: np.uint32}
        assert bow.counts.dtype == narrowest.get(top, np.float64)
        assert bow.posting_entries.dtype == np.int32
        assert bow.posting_rows.dtype == (np.uint16 if rows <= 2**16 else np.int32)
        # The same rows with float64 counts: equal values, and the same mass
        # and posting lists.
        wide = BowMatrix(indptr, words, counts.astype(np.float64), vocab_size)
        assert np.array_equal(bow.words, words) and np.array_equal(bow.counts, counts)
        assert bow.mass.tobytes() == wide.mass.tobytes()
        assert bow.posting_entries.tobytes() == wide.posting_entries.tobytes()
        assert np.array_equal(bow.posting_rows, wide.posting_rows)
        for row in sorted({0, 1, rows // 2, rows - 1}):
            s = bow.span(row)
            got, want = bow.histogram(row), BowHistogram(words[s], counts[s].astype(np.float64), vocab_size)
            assert got.words.tobytes() == want.words.tobytes()
            assert got.values.tobytes() == want.values.tobytes()


class TestComputeVlad:
    def test_descriptor_on_center_gives_zero(self, tree):
        v = compute_vlad(tree, tree.vlad_centers[2][None, :])
        assert v.shape == (tree.num_vlad_centers, tree.dim) and v.dtype == np.float64
        assert np.all(v == 0)

    def test_symmetric_pair_cancels(self, tree):
        c = np.asarray(tree.vlad_centers[1], dtype=np.float64)
        s = c + 0.05  # close enough to stay assigned to center 1
        X = np.stack([s, 2 * c - s])
        v = compute_vlad(tree, X)
        np.testing.assert_allclose(v[1], 0.0, atol=1e-12)

    def test_matches_dictionary_model_on_leaf_centers(self, tree):
        # Descriptors sitting exactly on leaf centers make the linear model
        # exact: each sub-vector equals its dictionary times the counts.
        rng = np.random.default_rng(47)
        picks = rng.integers(0, tree.num_leaves, size=60)
        X = np.asarray(tree.leaf_centers, dtype=np.float64)[picks]
        v = compute_vlad(tree, X)
        h = compute_bow(tree, X)
        for center in range(tree.num_vlad_centers):
            d = build_dictionary(tree, center)
            counts = np.array([h.counts.get(int(t), 0.0) for t in d.column_ids])
            np.testing.assert_allclose(
                v[center], d.columns @ counts, rtol=1e-12, atol=1e-12
            )

    def test_permutation_invariance(self, tree):
        rng = np.random.default_rng(53)
        X = rng.normal(size=(120, tree.dim)) * 3
        v1 = compute_vlad(tree, X)
        v2 = compute_vlad(tree, rng.permutation(X))
        np.testing.assert_allclose(v1, v2, atol=1e-10)
        assert compute_bow(tree, X).counts == compute_bow(tree, rng.permutation(X)).counts


class TestNormalization:
    def test_zero_vector_unchanged(self):
        assert np.all(normalize_vlad(np.zeros((3, 4)), RANK_NORMALIZATION).subvectors == 0)

    def test_single_nonzero_subvector_intra(self):
        sub = np.zeros((3, 4))
        sub[1] = [3.0, 0, 0, 0]
        v = normalize_vlad(sub, "intra-then-global-l2")
        assert np.linalg.norm(v.subvectors[1]) == pytest.approx(1.0)
        assert np.linalg.norm(v.flattened()) == pytest.approx(1.0)

    def test_rank_normalization_idempotent(self):
        rng = np.random.default_rng(59)
        once = normalize_vlad(rng.normal(size=(4, 5)), RANK_NORMALIZATION)
        twice = normalize_vlad(once.subvectors, RANK_NORMALIZATION)
        np.testing.assert_allclose(once.subvectors, twice.subvectors, atol=1e-12)

    def test_unknown_mode(self):
        # The ranking normalization is the only one; the others are gone.
        for mode in ("none", "global-l2", "l3"):
            with pytest.raises(ValueError, match="unknown normalization"):
                normalize_vlad(np.ones((2, 2)), mode)
        for shape in ((4,), (1, 2, 2)):
            with pytest.raises(ValueError, match=r"\(N, D\)"):
                normalize_vlad(np.ones(shape), RANK_NORMALIZATION)

    @pytest.mark.parametrize("mode", [RANK_NORMALIZATION])
    @pytest.mark.parametrize("shape", [(40, 8, 16), (9, 3, 5), (3, 64, 300), (0, 8, 16)])
    def test_stack_equals_per_row_loop(self, mode, shape):
        rng = np.random.default_rng(61)
        stack = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e4], size=(shape[0], 1, 1))
        stack[rng.random(shape[:2]) < 0.2] = 0  # zero sub-vectors
        stack[::7] = 0  # zero rows
        got = normalize_vlads(stack)
        want = np.array([_normalize_row(row) for row in stack]).reshape(shape)
        assert got.shape == stack.shape and got.tobytes() == want.tobytes()
        rows = [normalize_vlad(row, mode).subvectors for row in stack]
        assert np.array(rows).reshape(shape).tobytes() == want.tobytes()
        assert np.array_equal(stack[::7], np.zeros_like(stack[::7]))  # the input is not written


def _normalize_row(sub):
    """One VLAD's ranking normalization as a per-row loop computes it: the reference."""
    sub = sub.copy()
    norms = np.sqrt(np.sum(sub * sub, axis=1))
    nonzero = norms > 0
    sub[nonzero] /= norms[nonzero, None]
    whole = float(np.sqrt(np.sum(sub * sub)))
    if whole > 0:
        sub /= whole
    return sub


class TestDescriptorFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(61)
        X = rng.normal(size=(37, 5)).astype(np.float32)
        path = tmp_path / "img.desc"
        save_descriptors(path, X)
        Y = load_descriptors(path)
        assert np.array_equal(X, Y)
        save_descriptors(tmp_path / "again.desc", Y)
        assert path.read_bytes() == (tmp_path / "again.desc").read_bytes()

    def test_bad_magic_and_truncation(self, tmp_path):
        path = tmp_path / "bad.desc"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 8)
        with pytest.raises(ValueError, match="magic"):
            load_descriptors(path)
        good = tmp_path / "good.desc"
        save_descriptors(good, np.ones((4, 3), dtype=np.float32))
        truncated = good.read_bytes()[:-5]
        (tmp_path / "trunc.desc").write_bytes(truncated)
        with pytest.raises(ValueError, match="byte"):
            load_descriptors(tmp_path / "trunc.desc")
