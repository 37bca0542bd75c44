import dataclasses

import numpy as np
import pytest

from dehash.formats import load_tree, save_tree
from dehash.vocab import (
    VocabularyTree,
    assign_descriptors,
    subtree_leaves,
    train_vocabulary,
    tree_shape,
)


def gaussian_mixture(n, dim, k, seed, spread=4.0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-spread, spread, size=(k, dim))
    return centers[rng.integers(0, k, size=n)] + rng.standard_normal((n, dim))


# ---------------------------------------------------------------------------
# Independent flat k-means oracle: plain-loop k-means++ and Lloyd with the
# same seeding/update rules, used to cross-check per-node training.
# ---------------------------------------------------------------------------


def oracle_kmeans(points, k, rng, max_iter=50, tol=1e-6):
    n = len(points)
    centers = np.zeros((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = np.array([np.sum((p - centers[0]) ** 2) for p in points])
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))
        centers[j] = points[pick]
        for i, p in enumerate(points):
            d2[i] = min(d2[i], np.sum((p - centers[j]) ** 2))

    for _ in range(max_iter):
        assign = np.array(
            [int(np.argmin([np.sum((p - c) ** 2) for c in centers])) for p in points]
        )
        new_centers = centers.copy()
        counts = np.bincount(assign, minlength=k)
        for j in range(k):
            if counts[j] > 0:
                new_centers[j] = points[assign == j].mean(axis=0)
        empties = [j for j in range(k) if counts[j] == 0]
        if empties:
            big = int(np.argmax(counts))
            members = np.flatnonzero(assign == big)
            order = np.argsort(
                -np.array([np.sum((points[i] - new_centers[big]) ** 2) for i in members]),
                kind="stable",
            )
            for rank, j in enumerate(empties):
                new_centers[j] = points[members[order[rank % len(members)]]]
        shift = max(np.sqrt(np.sum((new_centers[j] - centers[j]) ** 2)) for j in range(k))
        centers = new_centers
        if shift < tol:
            break
    assign = np.array(
        [int(np.argmin([np.sum((p - c) ** 2) for c in centers])) for p in points]
    )
    return centers, assign


def sse(points, centers, assign):
    return float(sum(np.sum((p - centers[a]) ** 2) for p, a in zip(points, assign)))


class TestTraining:
    def test_tree_shape(self):
        X = gaussian_mixture(600, 4, 6, seed=1)
        tree = train_vocabulary(X, branch=3, levels=3, vlad_level=1, seed=5)
        assert tree.num_vlad_centers == 3
        assert tree.num_leaves == 27 and tree.pool_size == 9
        assert tree.parent_of_leaf.tolist() == [i // 9 for i in range(27)]
        assert tree.parent_of_leaf.dtype == np.uint32 and not tree.parent_of_leaf.flags.writeable
        # Pools must be equal to be built, and the shape the tree's fields make to validate.
        with pytest.raises(ValueError, match="equal pools"):
            dataclasses.replace(tree, leaf_centers=tree.leaf_centers[:-1])
        with pytest.raises(ValueError, match=r"\(N, M\) = \(3, 27\), but .* make \(3, 9\)"):
            dataclasses.replace(tree, levels=2).validate()

    def test_one_point_per_leaf_is_fixed_point(self):
        # With exactly branch**levels well-separated points, every leaf center
        # lands on one input point.
        rng = np.random.default_rng(3)
        X = rng.permutation(np.array([[10.0 * i, 10.0 * j] for i in range(4) for j in range(4)]))
        tree = train_vocabulary(X, branch=4, levels=2, vlad_level=1, seed=2)
        leaves = sorted(map(tuple, np.asarray(tree.leaf_centers, dtype=np.float64)))
        assert leaves == sorted(map(tuple, X))

    def test_per_node_sse_matches_flat_kmeans_oracle(self):
        X = gaussian_mixture(1000, 3, 4, seed=7)
        branch, levels = 4, 2
        tree = train_vocabulary(X, branch=branch, levels=levels, vlad_level=1, seed=7)

        # Level 1: one k-means over everything.
        oracle_centers, oracle_assign = oracle_kmeans(
            X, branch, np.random.default_rng([7, 1, 0])
        )
        got_assign = assign_descriptors(tree, X, leaves=False)[1]
        got = sse(X, np.asarray(tree.vlad_centers, dtype=np.float64), got_assign)
        want = sse(X, oracle_centers, oracle_assign)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

        # Level 2: per-node k-means over each node's points.
        for node in range(branch):
            pts = X[oracle_assign == node]
            c2, a2 = oracle_kmeans(pts, branch, np.random.default_rng([7, 2, node]))
            leaf_ids = assign_descriptors(tree, pts)[2]
            got = sse(pts, np.asarray(tree.leaf_centers, dtype=np.float64), leaf_ids)
            want = sse(pts, c2, a2)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_determinism(self, tmp_path):
        X = gaussian_mixture(400, 3, 5, seed=11)
        t1 = train_vocabulary(X, 3, 2, 1, seed=9)
        t2 = train_vocabulary(X, 3, 2, 1, seed=9)
        save_tree(t1, tmp_path / "a.bin")
        save_tree(t2, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_errors(self):
        X = gaussian_mixture(50, 3, 2, seed=0)
        with pytest.raises(ValueError):
            train_vocabulary(np.empty((0, 3)), 2, 2, 1)
        with pytest.raises(ValueError):
            train_vocabulary(X, 1, 2, 1)
        with pytest.raises(ValueError):
            train_vocabulary(X, 2, 2, 2)  # vlad_level must sit above the leaves

    @pytest.mark.parametrize("branch, levels, vlad_level", [(2, 2, 1), (3, 3, 1), (4, 3, 2)])
    def test_shape_rule_gives_the_trained_shape(self, branch, levels, vlad_level):
        X = gaussian_mixture(200, 3, 4, seed=branch)
        tree = train_vocabulary(X, branch, levels, vlad_level, seed=1)
        assert tree_shape(branch, levels, vlad_level) == (tree.num_vlad_centers, tree.num_leaves)

    @pytest.mark.parametrize(
        "branch, levels, vlad_level, match",
        [(1, 3, 1, "branch"), (0, 3, 1, "branch"), (2, 3, 3, "vlad_level"), (2, 3, 0, "vlad_level"), (2, 1, 1, "vlad_level")],
    )
    def test_shape_rule_rejects(self, branch, levels, vlad_level, match):
        with pytest.raises(ValueError, match=match):
            tree_shape(branch, levels, vlad_level)
        with pytest.raises(ValueError, match=match):
            train_vocabulary(gaussian_mixture(50, 3, 2, seed=0), branch, levels, vlad_level)


@pytest.fixture(scope="module")
def tree():
    X = gaussian_mixture(2000, 4, 8, seed=13)
    return train_vocabulary(X, branch=4, levels=3, vlad_level=1, seed=13)


class TestQuantization:
    def test_exact_center_hit(self, tree):
        assert assign_descriptors(tree, tree.vlad_centers[3], leaves=False)[1].tolist() == [3]

    def test_tie_breaks_to_lowest_id(self):
        tree = VocabularyTree(
            dim=1,
            branch=3,
            levels=1,
            vlad_level=1,
            vlad_centers=np.array([[0.0], [2.0], [4.0]], dtype=np.float32),
            leaf_centers=np.array([[0.0], [2.0], [4.0]], dtype=np.float32),
        )
        assert assign_descriptors(tree, np.array([3.0]), leaves=False)[1].tolist() == [1]  # equidistant to 1 and 2

    def test_matches_linear_scan(self, tree):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(300, tree.dim)) * 3
        centers = np.asarray(tree.vlad_centers, dtype=np.float64)
        for x in X:
            want = int(np.argmin([np.sum((x - c) ** 2) for c in centers]))
            assert assign_descriptors(tree, x, leaves=False)[1].tolist() == [want]

    def test_leaf_exact_hit(self, tree):
        for t in [0, 5, tree.num_leaves - 1]:
            assert assign_descriptors(tree, tree.leaf_centers[t])[2].tolist() == [t]

    def test_exhaustive_equals_subtree_brute_force(self, tree):
        rng = np.random.default_rng(23)
        Q = rng.normal(size=(500, tree.dim)) * 3
        Q[:20] = tree.leaf_centers[rng.integers(0, tree.num_leaves, 20)]
        _, vlad_ids, got = assign_descriptors(tree, Q)
        leaves = np.asarray(tree.leaf_centers, dtype=np.float64)
        for q, v, leaf in zip(Q, vlad_ids, got):
            pool = subtree_leaves(tree, int(v))
            d2 = [float(np.sum((q - leaves[t]) ** 2)) for t in pool]
            assert leaf == pool[int(np.argmin(d2))]

    def test_leaf_ancestor_is_vlad_assignment(self, tree):
        rng = np.random.default_rng(29)
        Q = rng.normal(size=(200, tree.dim)) * 3
        _, vlad_ids, leaves = assign_descriptors(tree, Q)
        assert np.array_equal(tree.parent_of_leaf[leaves].astype(np.int64), vlad_ids)
        assert np.array_equal(assign_descriptors(tree, Q, leaves=False)[1], vlad_ids)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_descriptor_rejected(self, tree, bad):
        Q = np.zeros((3, tree.dim))
        Q[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            assign_descriptors(tree, Q, leaves=False)
        with pytest.raises(ValueError, match="finite"):
            assign_descriptors(tree, Q)

    def test_dimension_mismatch(self, tree):
        with pytest.raises(ValueError):
            assign_descriptors(tree, np.zeros(tree.dim + 1), leaves=False)
        with pytest.raises(ValueError):
            assign_descriptors(tree, np.zeros(tree.dim + 1))


class TestSubtrees:
    def test_partition(self, tree):
        seen = []
        for v in range(tree.num_vlad_centers):
            ids = subtree_leaves(tree, v)
            assert np.all(np.diff(ids) > 0)
            seen.extend(ids.tolist())
        assert sorted(seen) == list(range(tree.num_leaves))

    def test_counts(self, tree):
        assert len(subtree_leaves(tree, 0)) == tree.num_leaves // tree.num_vlad_centers

    def test_invalid_id(self, tree):
        with pytest.raises(ValueError):
            subtree_leaves(tree, tree.num_vlad_centers)


class TestSerialization:
    def test_round_trip_bit_exact(self, tree, tmp_path):
        path = tmp_path / "tree.bin"
        save_tree(tree, path)
        loaded = load_tree(path)
        save_tree(loaded, tmp_path / "again.bin")
        assert path.read_bytes() == (tmp_path / "again.bin").read_bytes()
        assert np.array_equal(loaded.vlad_centers, tree.vlad_centers)
        assert np.array_equal(loaded.leaf_centers, tree.leaf_centers)
        assert np.array_equal(loaded.parent_of_leaf, tree.parent_of_leaf)

    def test_loaded_tree_quantizes_identically(self, tree, tmp_path):
        save_tree(tree, tmp_path / "tree.bin")
        loaded = load_tree(tmp_path / "tree.bin")
        rng = np.random.default_rng(31)
        Q = rng.normal(size=(100, tree.dim)) * 3
        assert np.array_equal(assign_descriptors(loaded, Q)[2], assign_descriptors(tree, Q)[2])

    @pytest.mark.parametrize("field", ["vlad_centers", "leaf_centers"])
    def test_non_finite_center_rejected(self, tree, field, tmp_path):
        centers = getattr(tree, field).copy()
        centers[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(tree, **{field: centers}).validate()
        path = tmp_path / "tree.bin"
        save_tree(tree, path)
        data = bytearray(path.read_bytes())
        # Element [1, 0] of the field, after the magic and the six-word header.
        offset = len(b"DHTREE01") + 24 + tree.dim * 4
        if field == "leaf_centers":
            offset += tree.num_vlad_centers * tree.dim * 4
        data[offset : offset + 4] = np.array(np.inf, dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="finite"):
            load_tree(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOTATREE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_tree(path)
