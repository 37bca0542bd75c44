"""The matrix-product nearest-center kernel, the one-product leaf search,
the grouped k-means (its column-major k-means++ seeder and its Lloyd
iteration), the level-synchronous vocabulary trainer and the product
quantizer against their frozen references."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dehash import vocab
from dehash.dataset import training_blob
from dehash.retrieval import train_pq
from dehash.vocab import (
    VocabularyTree,
    _weighted_pick,
    assign_descriptors,
    cluster_sums,
    column_sq_distances,
    kmeans,
    nearest_center,
    train_vocabulary,
)

import nearest_center_reference as nearest_center_reference_module
from nearest_center_reference import kmeans_pp_init_reference, lloyd_reference, nearest_center_reference
from pq_reference import train_pq_reference
from vocabulary_reference import train_vocabulary_reference
import test_sparse
from test_sparse import coherent_tree
from test_vocab import gaussian_mixture


def one_group(points):
    """``points`` as the one group of a ``vocab._seed_level`` or
    ``vocab._lloyd_level`` call, as ``kmeans`` passes a product-quantizer
    sub-vector."""
    return vocab._NodeRows.of(np.array([len(points)]))


def quantizer(product: bool):
    """``nearest_center``, the product and its certification (``product``),
    or the difference scan it falls back to for rows the certification
    cannot decide."""
    return nearest_center if product else vocab._difference_scan


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
        got = quantizer(product)(points, centers)
        want = nearest_center_reference(points, centers)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("product", [True, False])
    def test_non_finite_rows_match_scan(self, product):
        points = np.array([[np.nan, 0.0], [np.inf, 1.0], [1.0, -np.inf], [3.0, 3.0], [1e200, 1e200]])
        for centers in ([[5.0, 5.0], [0.0, 0.0]], [[5.0, 5.0], [0.0, 0.0], [np.inf, 0.0]], [[1.0, np.nan], [2.0, 2.0]]):
            centers = np.array(centers)
            with np.errstate(invalid="ignore", over="ignore"):
                got = quantizer(product)(points, centers)
            with np.errstate(invalid="ignore", over="ignore"):
                want = nearest_center_reference(points, centers)
            assert np.array_equal(got, want)

    def test_large_blocks_match_scan(self):
        # More rows than one score block, with exact ties on a grid.
        rng = np.random.default_rng(5)
        centers = rng.integers(-3, 4, size=(300, 4)) * 0.5
        points = rng.integers(-6, 7, size=(2000, 4)) * 0.25
        assert np.array_equal(nearest_center(points, centers), nearest_center_reference(points, centers))


def force_leaf_route(product: bool):
    """Send every leaf search of ``assign_descriptors`` through the one
    product over all leaves (``product``) or one call per pool."""
    return mock.patch.object(vocab, "_LEAF_PRODUCT_MAX_SCORES", 2**62 if product else -1)


def leaves_reference(tree, descriptors):
    """Each row's coarse center and leaf, one frozen scan per row: the leaf
    is the first minimum over the leaves whose parent is the row's center."""
    X = np.atleast_2d(np.asarray(descriptors, dtype=np.float64))
    vlad_ids = nearest_center_reference(X, tree.vlad_centers)
    leaves = np.asarray(tree.leaf_centers, dtype=np.float64)
    leaf_ids = np.empty(len(X), dtype=np.int64)
    for i, (x, v) in enumerate(zip(X, vlad_ids)):
        pool = np.flatnonzero(tree.parent_of_leaf == v)
        leaf_ids[i] = pool[nearest_center_reference(x[None], leaves[pool])[0]]
    return vlad_ids, leaf_ids


def assert_leaves_as_reference(tree, descriptors):
    want_vlad, want = leaves_reference(tree, descriptors)
    for product in (True, False):
        with force_leaf_route(product):
            _, vlad_ids, got = assign_descriptors(tree, descriptors)
        assert np.array_equal(vlad_ids, want_vlad)
        assert got.dtype == np.int64 and np.array_equal(got, want), product


@st.composite
def hand_built_trees(draw):
    """Trees of 1-6 coarse centers with equal pools of 1-8 leaves, leaves on
    a coarse grid (exact ties) or Gaussian, repeated leaves (also across
    pools), float32 scales 1e-30 to 1e30, and rows on leaves, on midpoints
    of two leaves and free, as float64 or float32."""
    d = draw(st.integers(1, 20))
    n = draw(st.integers(1, 6))
    m = n * draw(st.integers(1, 8))
    scale = 10.0 ** draw(st.integers(-30, 30))
    grid = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(rows):
        if grid:
            return rng.integers(-2, 3, size=(rows, d)) * 0.5
        return rng.standard_normal((rows, d))

    leaves = values(m)
    for dst, src in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=4)):
        leaves[dst] = leaves[src]
    tree = VocabularyTree(
        dim=d,
        branch=2,
        levels=2,
        vlad_level=1,
        vlad_centers=(values(n) * scale).astype(np.float32),
        leaf_centers=(leaves * scale).astype(np.float32),
    )
    rows = values(draw(st.integers(1, 40)))
    kinds = draw(st.lists(st.sampled_from(["free", "leaf", "midpoint"]), min_size=len(rows), max_size=len(rows)))
    for i, kind in enumerate(kinds):
        a, b = rng.integers(0, m, size=2)
        if kind == "leaf":
            rows[i] = leaves[a]
        elif kind == "midpoint":
            rows[i] = (leaves[a] + leaves[b]) / 2
    rows = rows * scale
    return tree, rows.astype(np.float32) if draw(st.booleans()) else rows


class TestLeafRoutes:
    """Both leaf searches of ``assign_descriptors`` against a frozen scan of
    each row's pool, whichever route the row count picks."""

    @settings(max_examples=200, deadline=None)
    @given(data=hand_built_trees())
    def test_hand_built_pools(self, data):
        tree, rows = data
        assert_leaves_as_reference(tree, rows)

    def test_default_tree_coinciding_leaves(self):
        # Leaves 312, 318 and 319 of the default tree are one point: rows on
        # it tie exactly, and the lowest id wins on both routes.
        tree = coherent_tree()
        leaves = np.asarray(tree.leaf_centers, dtype=np.float64)
        repeated = list(test_sparse.TestRepeatedLeaves.REPEATED)
        assert np.array_equal(leaves[repeated], leaves[repeated[:1]].repeat(3, axis=0))
        rng = np.random.default_rng(3)
        rows = [
            leaves,  # every leaf exactly
            leaves[repeated] + rng.normal(0, 1e-9, size=(3, tree.dim)),
            (leaves[rng.integers(0, 512, 100)] + leaves[rng.integers(0, 512, 100)]) / 2,
            training_blob(16, 200, 8, 1),
        ]
        for X in rows:
            assert_leaves_as_reference(tree, X)
            assert_leaves_as_reference(tree, X.astype(np.float32))
        for x in (leaves[312], leaves[318], leaves[7] * 0.5, rows[3][0]):
            assert_leaves_as_reference(tree, x)  # a single row
        _, _, got = assign_descriptors(tree, leaves[repeated])
        assert got.tolist() == [312, 312, 312]

    def test_near_ties_need_the_whole_band(self):
        # Leaves of one norm (the sign patterns of one vector) far from rows
        # near the origin: product scores differ from the difference form by
        # an ulp or so in either direction, so the answer is found only
        # when the band is as wide as the leaves' norms make it.
        rng = np.random.default_rng(2)
        signs = np.array(list(itertools.product([1.0, -1.0], repeat=6)))
        leaves = (signs * rng.uniform(0.5, 1.5, size=6) * 1e3).astype(np.float32)
        tree = VocabularyTree(
            dim=6,
            branch=2,
            levels=2,
            vlad_level=1,
            vlad_centers=np.zeros((1, 6), dtype=np.float32),
            leaf_centers=leaves,
        )
        for exponent in range(-14, -8):
            X = rng.normal(size=(200, 6)) * 10.0**exponent
            assert_leaves_as_reference(tree, X)
            assert np.array_equal(nearest_center(X, leaves), nearest_center_reference(X, leaves))

    def test_exact_ties_on_a_grid(self):
        # Leaves on the unit square's corners and a point equidistant from
        # all four: every score ties, in the product form and the
        # difference form alike.
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        tree = VocabularyTree(
            dim=2,
            branch=4,
            levels=2,
            vlad_level=1,
            vlad_centers=np.array([[0.5, 0.5], [9.0, 9.0]], dtype=np.float32),
            leaf_centers=np.concatenate([corners[::-1], corners + 9.0]).astype(np.float32),
        )
        for x in ([0.5, 0.5], [0.5, 0.0], [1.0, 0.5], [0.0, 0.0]):
            assert_leaves_as_reference(tree, np.array(x))
        assert assign_descriptors(tree, np.array([0.5, 0.5]))[2].tolist() == [0]

    def test_overflowing_rows_fall_back_to_the_pool_scan(self):
        # 4 R^2 overflows, so the product cannot certify: the row is scanned.
        tree = coherent_tree()
        X = np.asarray(tree.leaf_centers[:4], dtype=np.float64)
        X[1] *= 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            assert_leaves_as_reference(tree, X)

    def test_size_routes(self):
        # One image's rows take the product, a 16k-row pass the pool calls.
        tree = coherent_tree()
        X = training_blob(16, 1024, 8, 2)
        calls = []
        for rows in (1, 180, 512, 513, 1024):
            with mock.patch.object(vocab, "_leaves_by_product", wraps=vocab._leaves_by_product) as spy:
                assign_descriptors(tree, X[:rows])
            calls.append(spy.call_count)
        assert calls == [1, 1, 1, 0, 0]


@st.composite
def lloyd_inputs(draw):
    """Points and initial centers for Lloyd, up to 3000 x 16 with k up to 256
    (at most 2^20 point-center-dim entries, so the frozen scan stays fast):
    values on a coarse grid (exact ties between centers), duplicated points,
    scales 1e-150 to 1e150, initial centers drawn with repeats (so clusters
    empty and get re-seeded), and sweep caps of 1-3 besides the default.
    Half the draws take ``k > 3 d + 1``, where the moved-center step can run."""
    d = draw(st.integers(1, 16))
    k = draw(st.integers(1, 256) | st.integers(3 * d + 2, 256))
    n = draw(st.integers(1, max(1, min(3000, 2**20 // (k * d)))))
    scale = 10.0 ** draw(st.integers(-150, 150))
    grid = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.integers(-2, 3, size=(n, d)) * 0.5 if grid else rng.standard_normal((n, d))
    copies = draw(st.integers(0, n // 2))
    points[rng.integers(0, n, size=copies)] = points[rng.integers(0, n, size=copies)]
    init = points[rng.integers(0, n, size=k)]
    return points * scale, init * scale, draw(st.sampled_from([1, 2, 3, vocab.KMEANS_MAX_ITER]))


class TestTrainingParity:
    @settings(max_examples=60, deadline=None)
    @given(data=lloyd_inputs())
    def test_lloyd_equals_frozen(self, data):
        points, init, max_iter = data
        with mock.patch.object(vocab, "KMEANS_MAX_ITER", max_iter):
            got_centers, got_assign = vocab._lloyd_level(points, one_group(points), init)
        want_centers, want_assign = lloyd_reference(points, init, max_iter=max_iter)
        assert np.array_equal(got_centers, want_centers)
        assert np.array_equal(got_assign, want_assign)

    def test_late_sweeps_score_only_moved_centers(self):
        # Entries nearest_center scores for the first assignment (sweeps[0])
        # and after each sweep's update; cluster_sums marks each sweep.
        sweeps = [0]

        def spy(X, centers):
            sweeps[-1] += len(X) * len(centers)
            return nearest_center(X, centers)

        def mark(*args):
            sweeps.append(0)
            return cluster_sums(*args)

        points = gaussian_mixture(2000, 8, 40, seed=11)
        with mock.patch.object(vocab, "nearest_center", spy), mock.patch.object(vocab, "cluster_sums", mark):
            centers, assign = kmeans(points, [2000], 64, [np.random.default_rng(11)])
        init = kmeans_pp_init_reference(points, 64, np.random.default_rng(11))
        want_centers, want_assign = lloyd_reference(points, init)
        assert np.array_equal(centers, want_centers)
        assert np.array_equal(assign, want_assign)
        full = 2000 * 64
        late = sweeps[len(sweeps) // 2 :]
        assert sweeps[0] == full and len(sweeps) > 6, sweeps
        assert all(s < full for s in late), sweeps
        assert sum(late) < full * len(late) / 2, sweeps

    @pytest.mark.parametrize("n", [6, 200])  # fewer and more samples than centers
    def test_train_pq_equals_frozen(self, n):
        vectors = gaussian_mixture(n, 12, 5, seed=n)
        got = train_pq(vectors, subvectors=3, bits=4, seed=7)
        assert np.array_equal(got.codebooks, train_pq_reference(vectors, subvectors=3, bits=4, seed=7))

    def test_scan_5k_shaped_train_pq_equals_frozen(self):
        # 5000 ranking-normalized rows, 8-dim sub-vectors, 256 centers each,
        # as the 5k-image benchmark trains them; two sub-vectors of the 16.
        vectors = gaussian_mixture(5000, 16, 60, seed=5).reshape(5000, 2, 8)
        vectors /= np.linalg.norm(vectors, axis=2, keepdims=True) * np.sqrt(2)
        got = train_pq(vectors.reshape(5000, 16), subvectors=2, bits=8, seed=3)
        want = train_pq_reference(vectors.reshape(5000, 16), subvectors=2, bits=8, seed=3)
        assert np.array_equal(got.codebooks, want)

    def test_groups_above_3d_equal_frozen(self):
        # Several groups of k > 3 d centers, so each is assigned on its own,
        # by nearest_center and then by re-scoring its moved centers; the
        # groups stop at different sweeps, and the 10-row group has fewer
        # rows than centers, so its clusters empty and are re-seeded.  Each
        # group equals the frozen k-means of its rows alone.
        sizes = [300, 40, 900, 10, 500]
        points = np.concatenate([gaussian_mixture(n, 2, 5 + v, seed=v) for v, n in enumerate(sizes)])
        widths = []

        def spy(X, centers):
            widths.append(len(centers))
            return nearest_center(X, centers)

        with mock.patch.object(vocab, "nearest_center", spy):
            got_centers, got_assign = kmeans(points, sizes, 16, [np.random.default_rng([7, v]) for v in range(5)])
        assert min(widths) < 16, widths  # some sweep scored only the moved centers
        sweeps = []

        def counted(X, centers, *args):
            sweeps[-1] += 1
            return nearest_center_reference(X, centers, *args)

        starts = np.cumsum(sizes) - sizes
        with mock.patch.object(nearest_center_reference_module, "nearest_center_reference", counted):
            for v, (a, n) in enumerate(zip(starts, sizes)):
                pts = points[a : a + n]
                sweeps.append(0)
                init = kmeans_pp_init_reference(pts, 16, np.random.default_rng([7, v]))
                centers, assign = lloyd_reference(pts, init)
                assert np.array_equal(got_centers[v * 16 : (v + 1) * 16], centers), v
                assert np.array_equal(got_assign[a : a + n], assign), v
        assert len(set(sweeps)) > 1, sweeps

    def test_train_vocabulary_equals_frozen(self):
        X = gaussian_mixture(800, 4, 6, seed=41)
        assert_tree_equals_frozen(X, branch=3, levels=3, vlad_level=1, seed=41)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 40), d=st.integers(1, 5), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_cluster_sums_equal_add_at(self, n, d, k, seed):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-5, 6, size=(n, 1))
        assign = rng.integers(0, k, size=n)
        want = np.zeros((k, d))
        np.add.at(want, assign, rows)
        assert np.array_equal(cluster_sums(assign, rows, k), want)


@st.composite
def seeding_inputs(draw):
    """Points for every branch of the pairwise sum (d < 8, 8 <= d <= 128 and
    the halving above 128), scales 1e-150 to 1e150, values on a coarse grid
    (ties in the draw), duplicated rows and all-equal point sets (the
    ``total == 0`` branch, with k above the number of distinct points)."""
    d = draw(st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 300)))
    n = draw(st.integers(1, 600))
    k = draw(st.integers(1, 24))
    scale = 10.0 ** draw(st.integers(-150, 150))
    kind = draw(st.sampled_from(["normal", "grid", "few-distinct", "all-equal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        points = rng.standard_normal((n, d))
    elif kind == "grid":
        points = rng.integers(-2, 3, size=(n, d)) * 0.5
    elif kind == "few-distinct":
        distinct = rng.standard_normal((draw(st.integers(1, 3)), d))
        points = distinct[rng.integers(0, len(distinct), size=n)]
    else:
        points = np.repeat(rng.standard_normal((1, d)), n, axis=0)
    return points * scale, k, draw(st.integers(0, 2**32 - 1))


class FixedDraws(np.random.Generator):
    """A generator whose ``random()`` returns the given values in turn, so a
    test can put the uniform draw exactly on a cumulative-weight boundary;
    ``rng.choice`` calls the override too."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self.values = list(values)

    def random(self, *args, **kwargs):
        return self.values.pop(0)


class TestSeedingParity:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        d=st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 300)),
        exponent=st.integers(-150, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_column_sums_equal_np_sum(self, n, d, exponent, seed):
        # Each branch of numpy's pairwise sum (below 8 terms, up to 128, the
        # halving above), on values whose sums round differently by order.
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-2, 3, size=(n, d))
        points *= 10.0**exponent
        center = points[0] * rng.uniform(0.5, 1.5, size=d)
        want = np.sum((points - center) ** 2, axis=1)
        assert np.array_equal(column_sq_distances(np.ascontiguousarray(points.T), center), want)

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.sampled_from([0.0, 1.0, 3.0, 0.1, 1e-300, 7e12]), min_size=1, max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pick_equals_choice(self, weights, seed):
        d2 = np.array(weights) * np.random.default_rng(seed).uniform(0.5, 2.0, size=len(weights))
        total = float(d2.sum())
        if not total > 0.0:
            want = int(np.random.default_rng(seed).integers(len(d2)))
            assert _weighted_pick(d2, np.random.default_rng(seed)) == want
            return
        # Draws on, just below and just above every cumulative boundary, both
        # as rng.choice renormalizes them and as they are before that.
        raw = (d2 / total).cumsum()
        draws = [0.0, float(np.random.default_rng(seed).random())]
        for edge in np.concatenate([raw, raw / raw[-1]]):
            if edge < 1.0:
                draws += [float(edge), float(np.nextafter(edge, 0.0)), float(np.nextafter(edge, 1.0))]
        for u in draws:
            want = int(FixedDraws([u]).choice(len(d2), p=d2 / total))
            assert _weighted_pick(d2, FixedDraws([u])) == want, u

    @settings(max_examples=300, deadline=None)
    @given(data=seeding_inputs())
    def test_equals_frozen_seeder(self, data):
        points, k, seed = data
        got = vocab._seed_level(points, one_group(points), k, [np.random.default_rng(seed)])
        want = kmeans_pp_init_reference(points, k, np.random.default_rng(seed))
        assert np.array_equal(got, want)

    def test_strided_column_slices(self):
        # train_pq trains on column slices of one matrix, as here; 32 centers
        # take both assignment routes (3 d < 32 and 3 d >= 32).
        vectors = np.random.default_rng(3).standard_normal((500, 48))
        for sub_dim in (3, 8, 16):
            sub = vectors[:, :sub_dim]
            got_centers, got_assign = kmeans(sub, [500], 32, [np.random.default_rng(sub_dim)])
            init = kmeans_pp_init_reference(sub, 32, np.random.default_rng(sub_dim))
            want_centers, want_assign = lloyd_reference(sub, init)
            assert np.array_equal(got_centers, want_centers)
            assert np.array_equal(got_assign, want_assign)

    def test_overflowing_distances_rejected(self):
        points = np.array([[0.0], [1e200]])
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            kmeans(points, [2], 2, [np.random.default_rng(0)])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            kmeans_pp_init_reference(points, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [6, 200])  # fewer and more samples than centers
    def test_train_pq_equals_frozen_training(self, n):
        # Each sub-vector's k-means++ seeds, before Lloyd moves them, are the
        # frozen seeder's from default_rng([seed, j]); fewer rows than
        # centers seed nothing.
        seeds, seed_level = [], vocab._seed_level

        def spy(points, groups, k, rngs):
            seeds.append(seed_level(points, groups, k, rngs))
            return seeds[-1]

        vectors = gaussian_mixture(n, 12, 5, seed=n)
        with mock.patch.object(vocab, "_seed_level", spy):
            got = train_pq(vectors, subvectors=3, bits=4, seed=7)
        want = [
            kmeans_pp_init_reference(vectors[:, 4 * j : 4 * j + 4], 16, np.random.default_rng([7, j]))
            for j in range(3)
        ]
        assert len(seeds) == (3 if n >= 16 else 0)
        for got_seeds, want_seeds in zip(seeds, want):
            assert np.array_equal(got_seeds, want_seeds)
        assert np.array_equal(got.codebooks, train_pq_reference(vectors, subvectors=3, bits=4, seed=7))

    def test_train_vocabulary_equals_frozen_training(self):
        # Grid values and repeated rows: nodes whose weights all vanish draw
        # uniformly, and many draws fall on equal cumulative weights.
        rng = np.random.default_rng(41)
        X = rng.integers(-2, 3, size=(400, 3)) * 0.5
        X[rng.integers(0, 400, size=150)] = X[rng.integers(0, 400, size=150)]
        assert_tree_equals_frozen(X, branch=4, levels=3, vlad_level=2, seed=41)


def assert_tree_equals_frozen(X, branch, levels, vlad_level, seed):
    tree = train_vocabulary(X, branch=branch, levels=levels, vlad_level=vlad_level, seed=seed)
    want_vlad, want_leaves = train_vocabulary_reference(X, branch, levels, vlad_level, seed)
    assert np.array_equal(tree.vlad_centers, want_vlad)
    assert np.array_equal(tree.leaf_centers, want_leaves)
    return tree


@st.composite
def vocabulary_inputs(draw):
    """Training sets and tree shapes for the level trainer: values on a
    coarse grid (tied distances and equal cumulative weights), few distinct
    rows (nodes whose weights all vanish, clusters that empty, nodes with
    fewer rows than children or none), and scales from 1e-150 to 1e30 (a
    tree stores float32 centers; ``test_nearest_in_node_equals_frozen_scan``
    takes the scales where ``4 R^2`` overflows)."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 120))
    branch = draw(st.integers(2, 5))
    levels = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["normal", "grid", "few-distinct"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        X = rng.standard_normal((n, d)) * 10.0 ** draw(st.integers(-150, 30))
    elif kind == "grid":
        X = rng.integers(-2, 3, size=(n, d)) * 0.5
    else:
        distinct = rng.standard_normal((draw(st.integers(1, 4)), d))
        X = distinct[rng.integers(0, len(distinct), size=n)]
    return X, branch, levels, draw(st.integers(1, levels - 1)), draw(st.integers(0, 2**32 - 1))


@st.composite
def node_inputs(draw):
    """Rows grouped by node (1-6 nodes of 1-200 rows, so some share a
    product and some have one alone) and each node's own centers: grid
    values (exact ties), points on centers, duplicate centers, scales from
    1e-165 to 1e160, where ``4 R^2`` overflows and rows are scanned by
    differences."""
    d = draw(st.integers(1, 16))
    k = draw(st.integers(1, 8))
    sizes = np.array(draw(st.lists(st.integers(1, 200), min_size=1, max_size=6)))
    scale = 10.0 ** draw(st.integers(-165, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        points = rng.integers(-2, 3, size=(sizes.sum(), d)) * 0.5
        centers = rng.integers(-2, 3, size=(len(sizes) * k, d)) * 0.5
    else:
        points = rng.standard_normal((sizes.sum(), d))
        centers = rng.standard_normal((len(sizes) * k, d))
    centers[rng.integers(0, len(centers), size=2)] = centers[rng.integers(0, len(centers), size=2)]
    hits = rng.integers(0, len(points), size=len(points) // 4)
    points[hits] = centers[rng.integers(0, len(centers), size=len(hits))]
    return points * scale, sizes, centers * scale


class TestVocabularyParity:
    """The level-synchronous ``train_vocabulary`` against the frozen
    per-node trainer of ``vocabulary_reference``: every tree bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_tree(self, seed):
        tree = assert_tree_equals_frozen(training_blob(16, 4000, 8, seed), branch=8, levels=3, vlad_level=1, seed=seed)
        if seed == 0:
            # Level-2 node 39 receives 6 points for its 8 children, so three
            # leaves coincide.
            leaves = tree.leaf_centers
            assert np.array_equal(leaves[312], leaves[318]) and np.array_equal(leaves[312], leaves[319])

    def test_four_levels(self):
        assert_tree_equals_frozen(training_blob(16, 32000, 8, 0), branch=8, levels=4, vlad_level=1, seed=0)

    def test_nodes_without_rows(self):
        # 4 points cannot reach the 8 nodes of level 3: the empty ones pass
        # their centers down to their children.
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [5.0, 5.0]])
        tree = assert_tree_equals_frozen(X, branch=2, levels=4, vlad_level=2, seed=3)
        assert len(np.unique(tree.leaf_centers, axis=0)) == 4

    def test_cluster_empties_mid_lloyd(self):
        # Sweep of each re-seed within its level, and the node's first row.
        state = {"sweep": 0}
        reseeds = []

        def level(*args):
            state["sweep"] = 0
            return lloyd_level(*args)

        def sums(*args):
            state["sweep"] += 1
            return cluster_sums(*args)

        def reseed(points, assign, counts, centers):
            reseeds.append((state["sweep"], points[0].tobytes()))
            return reseed_empties(points, assign, counts, centers)

        lloyd_level, reseed_empties = vocab._lloyd_level, vocab._reseed_empties
        with (
            mock.patch.object(vocab, "_lloyd_level", level),
            mock.patch.object(vocab, "cluster_sums", sums),
            mock.patch.object(vocab, "_reseed_empties", reseed),
        ):
            assert_tree_equals_frozen(training_blob(8, 1000, 4, 39), branch=8, levels=2, vlad_level=1, seed=39)
        # A node whose seeds held every cluster at the first sweep loses one later.
        first = {node for sweep, node in reseeds if sweep == 1}
        assert any(sweep >= 2 and node not in first for sweep, node in reseeds), reseeds

    def test_batches_bound_the_rows(self):
        # Skewed node sizes: each batch holds at most the bound's rows, or
        # is one node, no batch could take the next node too, and the
        # batches tile the nodes in order.
        sizes = np.random.default_rng(0).integers(1, 300, size=200)
        sizes[::37] = 5000
        batches = list(vocab._passes(sizes.tolist(), 2000))
        assert [run.start for run in batches] == [0] + [run.stop for run in batches[:-1]]
        assert batches[-1].stop == 200
        for run, following in zip(batches, batches[1:] + [None]):
            rows = sizes[run].sum()
            assert run.stop - run.start == 1 or rows <= 2000
            assert following is None or rows + sizes[following.start] > 2000
        runs = [(run.start, run.stop) for run in vocab._passes([1000, 1000, 1, 2000, 2001, 3], 2000)]
        assert runs == [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6)]  # a full run holds the bound exactly
        # Batches of a few nodes each train the same tree.
        with (
            mock.patch.object(vocab, "PASS_ROWS", 300),
            mock.patch.object(vocab, "kmeans", wraps=vocab.kmeans) as spy,
        ):
            assert_tree_equals_frozen(training_blob(16, 4000, 8, 1), branch=8, levels=3, vlad_level=1, seed=1)
        assert spy.call_count > 3  # not one batch per level

    def test_converged_nodes_leave_the_batch(self):
        # Rows scored against centers: each node's rows once for its first
        # assignment and once per sweep it runs, as many as the per-node
        # trainer scores, so no node is scored past its last sweep.
        X = training_blob(16, 4000, 8, 0)
        scored = []

        def frozen_scan(points, centers, *args):
            scored.append(len(points))
            return nearest_center_reference(points, centers, *args)

        with mock.patch.object(nearest_center_reference_module, "nearest_center_reference", frozen_scan):
            train_vocabulary_reference(X, 8, 3, 1, 0)
        want, scored = sum(scored), []

        def nearest_in_node(points, *args):
            scored.append(len(points))
            return batched(points, *args)

        batched = vocab._nearest_in_node
        with mock.patch.object(vocab, "_nearest_in_node", nearest_in_node):
            train_vocabulary(X, branch=8, levels=3, vlad_level=1, seed=0)
        assert sum(scored) == want

    def test_draws_on_cumulative_weight_boundaries(self):
        # One weighted draw per node (k = 2), put on, just below and just
        # above every boundary of each node's cumulative weights, both as
        # rng.choice renormalizes them and before; nodes of one and two
        # equal rows draw uniformly.  Every node's seeds equal the frozen
        # seeder's.
        rng = np.random.default_rng(5)
        sizes = np.array([1, 2, 7, 8, 9, 40, 130])
        points = rng.standard_normal((sizes.sum(), 3)) * 10.0 ** rng.integers(-2, 3, size=(sizes.sum(), 3))
        points[1:3] = points[1]
        starts = np.cumsum(sizes) - sizes
        nodes = [points[a : a + size] for a, size in zip(starts, sizes)]
        draws = []
        for pts in nodes:
            d2 = np.sum((pts - pts[FixedDraws([]).integers(len(pts))]) ** 2, axis=1)
            raw = (d2 / d2.sum()).cumsum() if d2.sum() > 0 else np.array([])
            edges = [e for e in np.concatenate([raw, raw / raw[-1] if len(raw) else raw]) if e < 1.0]
            near = [float(u) for e in edges for u in (e, np.nextafter(e, 0.0), np.nextafter(e, 1.0))]
            draws.append([0.0] + [u for u in near if u < 1.0])
        for t in range(max(map(len, draws))):
            pick = [d[t % len(d)] for d in draws]
            got = vocab._seed_level(points, vocab._NodeRows.of(sizes), 2, [FixedDraws([u]) for u in pick])
            want = [kmeans_pp_init_reference(pts, 2, FixedDraws([u])) for pts, u in zip(nodes, pick)]
            assert np.array_equal(got, np.concatenate(want)), (t, pick)

    def test_overflowing_distances_rejected(self):
        X = np.array([[0.0], [1e200], [2e200]])
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            train_vocabulary(X, branch=2, levels=2, vlad_level=1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            train_vocabulary_reference(X, 2, 2, 1)

    @settings(max_examples=80, deadline=None)
    @given(data=vocabulary_inputs())
    def test_equals_frozen_trainer(self, data):
        assert_tree_equals_frozen(*data)

    @settings(max_examples=100, deadline=None)
    @given(data=node_inputs())
    def test_nearest_in_node_equals_frozen_scan(self, data):
        points, sizes, centers = data
        k = len(centers) // len(sizes)
        starts = np.cumsum(sizes) - sizes
        want = np.concatenate(
            [
                nearest_center_reference(points[a : a + size], centers[v * k : (v + 1) * k])
                for v, (a, size) in enumerate(zip(starts, sizes))
            ]
        )
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            got = vocab._nearest_in_node(points, vocab._NodeRows.of(sizes), centers)
        assert np.array_equal(got, want)
