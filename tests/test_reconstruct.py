import math
import sys
import threading

import numpy as np
import pytest

from dehash.aggregate import VladVector, compute_bow, compute_vlad
from dehash.hashing import train_hashing
from dehash.reconstruct import (
    CandidateVWs,
    build_dictionary,
    candidates_from_binary,
    candidates_from_category,
    candidates_from_gps,
    combine_candidates,
    pseudo_bow,
    reconstruct_bow,
    reconstruct_bow_with_prior,
)
from dehash.sparse import solve_nn_lasso
from dehash.retrieval import Ranking, build_index, rank_hamming
from dehash.vocab import subtree_leaves, train_vocabulary

from index_columns import histogram_of, index_of
from test_sparse import coherent_tree
from test_vocab import gaussian_mixture


@pytest.fixture(scope="module")
def tree():
    X = gaussian_mixture(3000, 6, 8, seed=101, spread=6.0)
    return train_vocabulary(X, branch=4, levels=2, vlad_level=1, seed=101)


@pytest.fixture(scope="module")
def index(tree):
    # Tiny labeled database: two categories with disjoint word pools, two
    # images per "place", descriptors sitting exactly on leaf centers.
    rng = np.random.default_rng(103)
    pools = {0: np.arange(0, tree.num_leaves // 2), 1: np.arange(tree.num_leaves // 2, tree.num_leaves)}
    locations = {0: (45.0, 7.0), 1: (45.3, 7.4)}
    leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
    descriptors, gps, categories = {}, {}, {}
    for i in range(8):
        category = i % 2
        support = rng.choice(pools[category], size=5, replace=False)
        picks = rng.choice(support, size=30, replace=True)
        descriptors[f"db_{i}"] = leafs[picks]
        lat, lon = locations[category]
        gps[f"db_{i}"] = (lat + 0.001 * i, lon)
        categories[f"db_{i}"] = category
    vlads = [compute_vlad(tree, X) for X in descriptors.values()]
    model = train_hashing(vlads, "shared", nbits=tree.num_vlad_centers * 4, seed=7)
    return build_index(tree, model, descriptors, gps=gps, categories=categories)


class TestBuildDictionary:
    def test_columns_are_center_differences(self, tree):
        d = build_dictionary(tree, 1)
        ids = subtree_leaves(tree, 1)
        assert np.array_equal(d.column_ids, ids)
        want = (
            np.asarray(tree.leaf_centers, dtype=np.float64)[ids]
            - np.asarray(tree.vlad_centers[1], dtype=np.float64)
        ).T
        np.testing.assert_array_equal(d.columns, want)

    def test_width_is_subtree_size(self, tree):
        for v in range(tree.num_vlad_centers):
            assert build_dictionary(tree, v).width == tree.num_leaves // tree.num_vlad_centers

    def test_zero_column_flagged_when_leaf_equals_center(self):
        tiny = train_vocabulary(np.array([[0.0], [0.0], [4.0], [4.0]]), 2, 2, 1, seed=1)
        masks = [~np.any(build_dictionary(tiny, v).columns != 0.0, axis=0) for v in range(2)]
        # Duplicated training points collapse leaves onto their parent center.
        assert any(m.any() for m in masks)

    def test_restriction_subset_and_order(self, tree):
        ids = subtree_leaves(tree, 0)
        d = build_dictionary(tree, 0, restrict=[int(ids[2]), int(ids[0])])
        assert d.column_ids.tolist() == sorted([int(ids[0]), int(ids[2])])
        with pytest.raises(ValueError, match="outside"):
            build_dictionary(tree, 0, restrict=[int(subtree_leaves(tree, 1)[0])])


class TestCandidates:
    def test_from_binary_top1(self, index):
        ranking = Ranking(tuple((i, 0.0) for i in index.ids))
        cand = candidates_from_binary(index, ranking, top_r=1)
        first = index.ids[0]
        assert cand.total_width() == len(index.bows[first].counts)

    def test_from_binary_full_database(self, index):
        ranking = Ranking(tuple((i, 0.0) for i in index.ids))
        cand = candidates_from_binary(index, ranking, top_r=len(index.ids))
        everything = set()
        for bow in index.bows.values():
            everything |= set(bow.counts)
        got = set()
        for center in cand.per_center:
            got |= set(cand.allowed(center))
        assert got == everything

    def test_from_gps_zero_distance_neighbor(self, index):
        cand = candidates_from_gps(index, index.gps["db_0"], top_r=1)
        assert set().union(*cand.per_center.values()) == set(index.bows["db_0"].counts)

    @pytest.mark.parametrize("top_r", [0, -1])
    def test_top_r_below_one_rejected(self, index, top_r):
        ranking = Ranking(tuple((i, 0.0) for i in index.ids))
        with pytest.raises(ValueError, match="top_r"):
            candidates_from_binary(index, ranking, top_r=top_r)
        with pytest.raises(ValueError, match="top_r"):
            candidates_from_gps(index, index.gps["db_0"], top_r=top_r)

    def test_from_category_disjoint_pools(self, index):
        c0 = candidates_from_category(index, 0)
        c1 = candidates_from_category(index, 1)
        words0 = set().union(*c0.per_center.values()) if c0.per_center else set()
        words1 = set().union(*c1.per_center.values()) if c1.per_center else set()
        assert words0 and words1
        assert not words0 & words1

    def test_unknown_category(self, index):
        with pytest.raises(ValueError, match="category"):
            candidates_from_category(index, 99)

    def test_combine_union_and_intersection(self, tree):
        a = CandidateVWs({0: frozenset({1, 2})}, tree.num_vlad_centers)
        b = CandidateVWs({0: frozenset({2, 3}), 1: frozenset({9})}, tree.num_vlad_centers)
        union = combine_candidates([a, b], "union")
        assert union.allowed(0) == {1, 2, 3} and union.allowed(1) == {9}
        inter = combine_candidates([a, b], "intersection")
        assert inter.allowed(0) == {2} and inter.allowed(1) == frozenset()
        assert combine_candidates([a, a], "union").allowed(0) == a.allowed(0)

    def test_combine_fallback(self, tree):
        a = CandidateVWs({0: frozenset({1})}, tree.num_vlad_centers)
        b = CandidateVWs({0: frozenset({2})}, tree.num_vlad_centers)
        merged = combine_candidates([a, b], "intersection-fallback-union")
        assert merged.allowed(0) == {1, 2}


def fresh_tree(seed=101):
    X = gaussian_mixture(3000, 6, 8, seed=seed, spread=6.0)
    return train_vocabulary(X, branch=4, levels=2, vlad_level=1, seed=seed)


def assert_same_dictionary(got, want):
    assert np.array_equal(got.columns, want.columns)
    assert np.array_equal(got.column_ids, want.column_ids)
    assert got.vlad_id == want.vlad_id


class TestReconstructionContext:
    def test_full_dictionary_and_gram_are_exact(self, tree):
        context = tree.reconstruction_context
        assert tree.reconstruction_context is context
        for center in range(tree.num_vlad_centers):
            dictionary, gram = context.full(center)
            assert_same_dictionary(dictionary, build_dictionary(tree, center))
            assert np.array_equal(gram, dictionary.columns.T @ dictionary.columns)
            assert context.full(center)[0] is dictionary
            assert not dictionary.columns.flags.writeable and not gram.flags.writeable

    def test_restricted_equals_build_dictionary(self, tree):
        rng = np.random.default_rng(139)
        for center in range(tree.num_vlad_centers):
            pool = subtree_leaves(tree, center)
            for size in (1, 2, pool.size - 1, pool.size):
                restrict = [int(t) for t in rng.choice(pool, size=size, replace=False)]
                got = tree.reconstruction_context.restricted(center, restrict)
                assert_same_dictionary(got, build_dictionary(tree, center, restrict))

    def test_restriction_outside_subtree_rejected(self, tree):
        with pytest.raises(ValueError, match="outside"):
            tree.reconstruction_context.restricted(0, [int(subtree_leaves(tree, 1)[0])])

    def test_trees_never_share_the_cache(self):
        # Trees made and dropped in turn may reuse one another's memory
        # address; each must still see its own dictionaries.
        seen = []
        for seed in (201, 202, 203):
            tree = fresh_tree(seed)
            dictionary, gram = tree.reconstruction_context.full(0)
            assert_same_dictionary(dictionary, build_dictionary(tree, 0))
            assert np.array_equal(gram, dictionary.columns.T @ dictionary.columns)
            seen.append(dictionary.columns.copy())
            del tree, dictionary, gram
        assert not np.array_equal(seen[0], seen[1])
        a, b = fresh_tree(204), fresh_tree(205)
        assert a.reconstruction_context is not b.reconstruction_context
        assert a.reconstruction_context.full(0)[0] is not b.reconstruction_context.full(0)[0]

    def test_reconstruction_equals_uncached_solves(self):
        # The cached dictionaries and Gram give the same bits as building each
        # dictionary afresh and letting the solver form its own Gram.  The
        # realistic tree matters: there, a restricted solve fed a slice of the
        # full Gram instead of its own differs in the last bits.
        tree = coherent_tree()
        rng = np.random.default_rng(149)
        leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
        for _ in range(3):
            X = leafs[rng.integers(0, tree.num_leaves, size=150)]
            v = compute_vlad(tree, X + rng.normal(0, 0.05, size=X.shape))
            allowed = set(int(t) for t in rng.choice(tree.num_leaves, size=120, replace=False))
            for cand in (None, CandidateVWs.from_leaf_ids(tree, allowed)):
                result = reconstruct_bow(v, tree, 0.02, cand)
                want = {}
                for report in result.reports:
                    if report.skipped:
                        continue
                    restrict = None if cand is None else cand.allowed(report.vlad_id)
                    d = build_dictionary(tree, report.vlad_id, restrict)
                    solved = solve_nn_lasso(d, v.subvectors[report.vlad_id], 0.02)
                    assert (solved.sweeps, solved.converged) == (report.sweeps, report.converged)
                    want.update(
                        (int(t), float(c)) for t, c in zip(d.column_ids, solved.coeffs) if c > 1e-6
                    )
                assert result.histogram.counts == want

    def test_threads_share_a_cold_cache(self):
        # More threads than cores, switching often, all filling one cold
        # cache: every result equals serial and every cached entry is exact.
        rng = np.random.default_rng(151)
        serial_tree, threaded_tree = fresh_tree(), fresh_tree()
        leafs = np.asarray(serial_tree.leaf_centers, dtype=np.float64)
        X = leafs[rng.integers(0, serial_tree.num_leaves, size=60)]
        v = compute_vlad(serial_tree, X)
        serial = reconstruct_bow(v, serial_tree, 0.01)
        results = [None] * 8

        def solve(slot):
            results[slot] = reconstruct_bow(v, threaded_tree, 0.01)

        threads = [threading.Thread(target=solve, args=(slot,)) for slot in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for threaded in results:
            assert threaded is not None
            assert threaded.histogram.counts == serial.histogram.counts
        context = threaded_tree.reconstruction_context
        for report in threaded.reports:
            assert_same_dictionary(
                context.full(report.vlad_id)[0], build_dictionary(threaded_tree, report.vlad_id)
            )


class TestReconstructBow:
    def test_exact_regime_round_trip(self, tree):
        # Sparse supports keep the per-center solves identifiable: a complete
        # k-means node's difference columns are linearly dependent (their
        # count-weighted mean is the parent center), so exact recovery needs
        # at least one unused word per center.  Any proper subset of a
        # center's columns is independent, so these images round-trip exactly.
        rng = np.random.default_rng(107)
        leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
        per_center = tree.num_leaves // tree.num_vlad_centers
        for _ in range(10):
            support = []
            for center in rng.choice(tree.num_vlad_centers, size=3, replace=False):
                pool = subtree_leaves(tree, int(center))
                support.extend(rng.choice(pool, size=per_center - 1, replace=False))
            picks = rng.choice(support, size=40, replace=True)
            X = leafs[picks]
            truth = compute_bow(tree, X)
            result = reconstruct_bow(compute_vlad(tree, X), tree, lam=1e-4)
            assert all(r.converged or r.skipped for r in result.reports)
            recovered = {t: round(c) for t, c in result.histogram.counts.items() if round(c) > 0}
            assert recovered == {t: int(c) for t, c in truth.counts.items()}

    def test_zero_vlad_gives_empty_histogram(self, tree):
        v = VladVector(np.zeros((tree.num_vlad_centers, tree.dim)))
        result = reconstruct_bow(v, tree, lam=0.01)
        assert result.histogram.counts == {}

    def test_restriction_safety(self, tree):
        # Restricting to a superset of the true support changes nothing in the
        # exact regime.
        rng = np.random.default_rng(109)
        leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
        support = rng.choice(tree.num_leaves, size=5, replace=False)
        picks = rng.choice(support, size=30, replace=True)
        X = leafs[picks]
        truth = compute_bow(tree, X)
        support = set(truth.counts)
        extra = set(int(x) for x in rng.integers(0, tree.num_leaves, size=10))
        cand = CandidateVWs.from_leaf_ids(tree, support | extra)
        unrestricted = reconstruct_bow(compute_vlad(tree, X), tree, 1e-4)
        restricted = reconstruct_bow(compute_vlad(tree, X), tree, 1e-4, cand)
        round_u = {t: round(c) for t, c in unrestricted.histogram.counts.items() if round(c)}
        round_r = {t: round(c) for t, c in restricted.histogram.counts.items() if round(c)}
        assert round_u == round_r

    def test_support_stays_within_candidates(self, tree):
        rng = np.random.default_rng(113)
        leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
        X = leafs[rng.integers(0, tree.num_leaves, size=30)]
        allowed = set(int(x) for x in rng.choice(tree.num_leaves, size=10, replace=False))
        cand = CandidateVWs.from_leaf_ids(tree, allowed)
        result = reconstruct_bow(compute_vlad(tree, X), tree, 0.01, cand)
        assert set(result.histogram.counts) <= allowed

    def test_restricted_solve_never_wider(self, tree):
        rng = np.random.default_rng(127)
        leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
        X = leafs[rng.integers(0, tree.num_leaves, size=30)]
        v = compute_vlad(tree, X)
        full = reconstruct_bow(v, tree, 0.01)
        sub = CandidateVWs.from_leaf_ids(tree, set(compute_bow(tree, X).counts))
        narrow = reconstruct_bow(v, tree, 0.01, sub)
        width_full = sum(r.columns for r in full.reports)
        width_narrow = sum(r.columns for r in narrow.reports)
        assert width_narrow <= width_full

    def test_lambda_monotonicity(self, tree):
        rng = np.random.default_rng(131)
        leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
        X = leafs[rng.integers(0, tree.num_leaves, size=50)] + rng.normal(
            0, 0.01, size=(50, tree.dim)
        )
        v = compute_vlad(tree, X)
        counts = [
            reconstruct_bow(v, tree, lam).histogram.num_words
            for lam in (0.001, 0.005, 0.01, 0.02, 0.05, 0.1)
        ]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_cads_shrinks_dictionary_width(self, index):
        # Context from the binary ranking alone cuts the solve width well
        # below the full per-center pool.
        qid = index.ids[0]
        ranking = rank_hamming(index, index.codes[qid])
        cand = candidates_from_binary(index, ranking, top_r=2)
        full_width = index.tree.num_leaves / index.tree.num_vlad_centers
        mean_width = cand.total_width() / cand.num_centers
        assert mean_width * 5 <= full_width * index.tree.num_vlad_centers


class TestPseudoBow:
    def test_top1_is_normalized_histogram(self, index):
        first = index.ids[0]
        ranking = Ranking(tuple((i, float(k)) for k, i in enumerate(index.ids)))
        h = pseudo_bow(index, ranking, top_r=1)
        assert h.counts == index.bows[first].l1_normalized().counts

    def test_identical_top_images(self, index):
        ranking = Ranking(tuple((index.ids[0], 0.0) for _ in range(3)))
        h1 = pseudo_bow(index, ranking, top_r=1)
        h3 = pseudo_bow(index, ranking, top_r=3)
        assert set(h1.counts) == set(h3.counts)
        for k in h1.counts:
            assert h1.counts[k] == pytest.approx(h3.counts[k])

    def test_mean_of_disjoint_one_hots(self, tree):
        bows = {
            "a": histogram_of({0: 4.0}, tree.num_leaves),
            "b": histogram_of({5: 2.0}, tree.num_leaves),
        }
        idx = index_of(tree=tree, ids=["a", "b"], bows=bows)
        h = pseudo_bow(idx, Ranking((("a", 0.0), ("b", 1.0))), top_r=2)
        assert h.counts == {0: 0.5, 5: 0.5}

    def test_empty_ranking(self, index):
        with pytest.raises(ValueError):
            pseudo_bow(index, Ranking(()), top_r=1)


class TestPriorReconstruction:
    def test_alpha_near_one_returns_truth(self, tree):
        rng = np.random.default_rng(139)
        leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
        X = leafs[rng.integers(0, tree.num_leaves, size=40)]
        truth = compute_bow(tree, X)
        v = compute_vlad(tree, X)
        result = reconstruct_bow_with_prior(
            v, tree, truth, alpha=1 - 1e-9, mass=truth.total()
        )
        assert result.histogram.counts == truth.counts

    def test_alpha_near_zero_returns_scaled_prior(self, tree):
        rng = np.random.default_rng(149)
        leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
        X = leafs[rng.integers(0, tree.num_leaves, size=40)]
        v = compute_vlad(tree, X)
        prior = compute_bow(tree, leafs[rng.integers(0, tree.num_leaves, size=40)])
        mass = prior.total()
        result = reconstruct_bow_with_prior(v, tree, prior, alpha=1e-9, mass=mass)
        # Prior dominates: every kept word comes from the prior's support, at
        # roughly its prior count.
        for t, c in result.histogram.counts.items():
            assert t in prior.counts
            assert abs(c - prior.counts[t]) <= 1.0

    def test_support_bounded_by_candidates_and_prior(self, tree):
        rng = np.random.default_rng(151)
        leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
        X = leafs[rng.integers(0, tree.num_leaves, size=40)]
        v = compute_vlad(tree, X)
        prior = histogram_of({3: 1.0}, tree.num_leaves)
        allowed = set(int(x) for x in rng.choice(tree.num_leaves, size=12, replace=False))
        cand = CandidateVWs.from_leaf_ids(tree, allowed)
        result = reconstruct_bow_with_prior(v, tree, prior, 0.5, cand, mass=40.0)
        assert set(result.histogram.counts) <= (allowed | {3})

    def test_rejects_empty_prior(self, tree):
        v = VladVector(np.ones((tree.num_vlad_centers, tree.dim)))
        with pytest.raises(ValueError):
            reconstruct_bow_with_prior(v, tree, histogram_of({}, tree.num_leaves), 0.5)

    def test_counts_are_integral(self, tree):
        rng = np.random.default_rng(157)
        leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
        X = leafs[rng.integers(0, tree.num_leaves, size=40)]
        v = compute_vlad(tree, X)
        prior = compute_bow(tree, X)
        result = reconstruct_bow_with_prior(v, tree, prior, 0.6, mass=40.0)
        for c in result.histogram.counts.values():
            assert c == math.floor(c) and c >= 1.0
