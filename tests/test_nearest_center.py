"""The matrix-product nearest-center kernel against the frozen difference scan."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dehash import retrieval, vocab
from dehash.retrieval import train_pq
from dehash.vocab import cluster_sums, lloyd, nearest_center, train_vocabulary

from nearest_center_reference import lloyd_reference, nearest_center_reference
from test_vocab import gaussian_mixture


def force_product(on: bool):
    """Route every call through the matrix product (``on``) or keep the default
    size cut-off, under which small calls take the difference scan."""
    return mock.patch.object(vocab, "_SCAN_MAX_ELEMENTS", 0 if on else vocab._SCAN_MAX_ELEMENTS)


@st.composite
def quantizer_inputs(draw):
    """Points and centers built to hit the hard cases: values on a coarse grid
    (exact ties), duplicate centers, points on centers and on midpoints of two
    centers, scales from 1e-165 (squares underflow to subnormals) to 1e100,
    dims 1-128, one center, no points."""
    d = draw(st.integers(1, 128))
    k = draw(st.integers(1, 12))
    n = draw(st.integers(0, 16))
    scale = 10.0 ** draw(st.integers(-165, 100))
    grid = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(rows):
        if grid:
            return rng.integers(-2, 3, size=(rows, d)) * 0.5
        return rng.standard_normal((rows, d))

    centers = values(k)
    for dst, src in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=3)):
        centers[dst] = centers[src]
    points = values(n)
    kinds = draw(st.lists(st.sampled_from(["free", "center", "midpoint"]), min_size=n, max_size=n))
    for i, kind in enumerate(kinds):
        a, b = rng.integers(0, k, size=2)
        if kind == "center":
            points[i] = centers[a]
        elif kind == "midpoint":
            points[i] = (centers[a] + centers[b]) / 2
    return points * scale, centers * scale


class TestParity:
    @pytest.mark.parametrize("product", [True, False])
    @settings(max_examples=300, deadline=None)
    @given(data=quantizer_inputs())
    def test_equals_frozen_scan(self, product, data):
        points, centers = data
        with force_product(product):
            got = nearest_center(points, centers)
        want = nearest_center_reference(points, centers)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("product", [True, False])
    def test_non_finite_rows_match_scan(self, product):
        points = np.array([[np.nan, 0.0], [np.inf, 1.0], [1.0, -np.inf], [3.0, 3.0], [1e200, 1e200]])
        for centers in ([[5.0, 5.0], [0.0, 0.0]], [[5.0, 5.0], [0.0, 0.0], [np.inf, 0.0]], [[1.0, np.nan], [2.0, 2.0]]):
            centers = np.array(centers)
            with np.errstate(invalid="ignore", over="ignore"), force_product(product):
                got = nearest_center(points, centers)
            with np.errstate(invalid="ignore", over="ignore"):
                want = nearest_center_reference(points, centers)
            assert np.array_equal(got, want)

    def test_large_blocks_match_scan(self):
        # More rows than one score block, with exact ties on a grid.
        rng = np.random.default_rng(5)
        centers = rng.integers(-3, 4, size=(300, 4)) * 0.5
        points = rng.integers(-6, 7, size=(2000, 4)) * 0.25
        assert np.array_equal(nearest_center(points, centers), nearest_center_reference(points, centers))


class TestTrainingParity:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 60),
        d=st.integers(1, 6),
        k=st.integers(1, 8),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lloyd_equals_frozen(self, n, d, k, grid, seed):
        rng = np.random.default_rng(seed)
        points = rng.integers(-2, 3, size=(n, d)) * 0.5 if grid else rng.standard_normal((n, d))
        init = points[rng.integers(0, n, size=k)]
        with force_product(True):
            got_centers, got_assign = lloyd(points, init)
        want_centers, want_assign = lloyd_reference(points, init)
        assert np.array_equal(got_centers, want_centers)
        assert np.array_equal(got_assign, want_assign)

    @pytest.mark.parametrize("n", [6, 200])  # fewer and more samples than centers
    def test_train_pq_equals_frozen(self, n):
        vectors = gaussian_mixture(n, 12, 5, seed=n)
        with force_product(True):
            got = train_pq(vectors, num_subvectors=3, bits=4, seed=7)
        with mock.patch.object(retrieval, "lloyd", lloyd_reference):
            want = train_pq(vectors, num_subvectors=3, bits=4, seed=7)
        assert np.array_equal(got.codebooks, want.codebooks)

    def test_train_vocabulary_equals_frozen(self):
        X = gaussian_mixture(800, 4, 6, seed=41)
        with force_product(True):
            got = train_vocabulary(X, branch=3, levels=3, vlad_level=1, seed=41)
        with mock.patch.object(vocab, "lloyd", lloyd_reference):
            want = train_vocabulary(X, branch=3, levels=3, vlad_level=1, seed=41)
        assert np.array_equal(got.vlad_centers, want.vlad_centers)
        assert np.array_equal(got.leaf_centers, want.leaf_centers)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 40), d=st.integers(1, 5), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_cluster_sums_equal_add_at(self, n, d, k, seed):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-5, 6, size=(n, 1))
        assign = rng.integers(0, k, size=n)
        want = np.zeros((k, d))
        np.add.at(want, assign, rows)
        assert np.array_equal(cluster_sums(assign, rows, k), want)
