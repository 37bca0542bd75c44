import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from dehash.aggregate import compute_bow, compute_vlad
from dehash.hashing import train_hashing
from dehash.reconstruct import (
    COMBINE_MODES,
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
from dehash import reconstruct
from dehash.sparse import LassoResult, solve_nn_lasso_batch, solve_tikhonov_batch
from dehash.retrieval import Ranking, build_index, rank_hamming
from dehash.vocab import subtree_leaves, train_vocabulary

import candidates_reference
from index_columns import histogram_of, index_of
from pair_reference import l1_normalized
import test_sparse
from test_sparse import assert_same_walk, coherent_tree, solve_tikhonov_one
from test_vocab import gaussian_mixture
from solver_reference import admitted_leaves, build_dictionary as frozen_dictionary


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
        # Leaves given out of order, and another center's leaf, narrow the
        # center's dictionary to its own admitted leaves, ascending.
        ids = subtree_leaves(tree, 0)
        other = int(subtree_leaves(tree, 1)[0])
        candidates = CandidateVWs.from_leaf_ids(tree, [int(ids[2]), other, int(ids[0])])
        d = tree.reconstruction_context.restricted(0, candidates)
        assert d.column_ids.tolist() == sorted([int(ids[0]), int(ids[2])])


def words_of(cand):
    """Every admissible word of ``cand``, read center by center."""
    return set().union(*(admitted_leaves(cand, c).tolist() for c in range(cand.num_centers)))


class TestCandidates:
    def test_mask_of_another_shape_rejected(self, tree):
        for mask in (np.array([True]), np.ones(tree.num_leaves + 1, dtype=bool), np.ones((2, 3), dtype=bool)):
            with pytest.raises(ValueError, match="one entry per leaf"):
                CandidateVWs(mask, tree.num_vlad_centers)
        for num_centers in (0, tree.num_vlad_centers - 1):  # no split into equal pools
            with pytest.raises(ValueError, match="equal pools"):
                CandidateVWs(np.ones(tree.num_leaves, dtype=bool), num_centers)

    def test_from_binary_top1(self, index):
        ranking = Ranking(tuple((i, 0.0) for i in index.ids))
        cand = candidates_from_binary(index, ranking, top_r=1)
        first = index.ids[0]
        assert np.count_nonzero(cand.mask) == len(index.bows[first].counts)

    def test_from_binary_full_database(self, index):
        ranking = Ranking(tuple((i, 0.0) for i in index.ids))
        cand = candidates_from_binary(index, ranking, top_r=len(index.ids))
        everything = set()
        for bow in index.bows.values():
            everything |= set(bow.counts)
        assert words_of(cand) == everything
        assert set(np.flatnonzero(cand.mask).tolist()) == everything

    def test_from_gps_zero_distance_neighbor(self, index):
        cand = candidates_from_gps(index, index.gps["db_0"], top_r=1)
        assert words_of(cand) == set(index.bows["db_0"].counts)

    @pytest.mark.parametrize("top_r", [0, -1])
    def test_top_r_below_one_rejected(self, index, top_r):
        ranking = Ranking(tuple((i, 0.0) for i in index.ids))
        with pytest.raises(ValueError, match="top_r"):
            candidates_from_binary(index, ranking, top_r=top_r)
        with pytest.raises(ValueError, match="top_r"):
            candidates_from_gps(index, index.gps["db_0"], top_r=top_r)

    def test_from_category_disjoint_pools(self, index):
        words0 = words_of(candidates_from_category(index, 0))
        words1 = words_of(candidates_from_category(index, 1))
        assert words0 and words1
        assert not words0 & words1

    def test_unknown_category(self, index):
        with pytest.raises(ValueError, match="category"):
            candidates_from_category(index, 99)

    @pytest.mark.parametrize("which", ["small", "coherent"])
    def test_from_leaf_ids_groups_as_the_per_leaf_loop(self, tree, which):
        grouping_tree = tree if which == "small" else coherent_tree()

        def per_leaf(leaf_ids):
            grouped = {}
            for leaf in leaf_ids:
                grouped.setdefault(int(grouping_tree.parent_of_leaf[leaf]), set()).add(int(leaf))
            return grouped

        rng = np.random.default_rng(137)
        for size in (0, 1, 5, 40, 160, grouping_tree.num_leaves):
            ids = rng.integers(0, grouping_tree.num_leaves, size=size)  # with repeats
            want = per_leaf(ids)
            for form in (ids, ids.tolist(), set(ids.tolist()), np.unique(ids).astype(np.int32)):
                got = CandidateVWs.from_leaf_ids(grouping_tree, form)
                for center in range(grouping_tree.num_vlad_centers):
                    allowed = admitted_leaves(got, center)
                    assert allowed.dtype == np.int64 and np.all(np.diff(allowed) > 0)
                    assert set(allowed.tolist()) == want.get(center, set())
                assert not got.mask.flags.writeable

    @pytest.mark.parametrize("bad", [-1, "M"])
    def test_from_leaf_ids_rejects_ids_outside_the_leaves(self, tree, bad):
        bad = tree.num_leaves if bad == "M" else bad
        for form in ([0, bad], {bad}, np.array([bad, 1], dtype=np.int32)):
            with pytest.raises(ValueError, match=r"leaf ids must lie in \[0, %d\)" % tree.num_leaves):
                CandidateVWs.from_leaf_ids(tree, form)

    def test_combine_union_and_intersection(self, tree):
        l0, l1 = subtree_leaves(tree, 0).tolist(), subtree_leaves(tree, 1).tolist()
        a = CandidateVWs.from_leaf_ids(tree, [l0[1], l0[2]])
        b = CandidateVWs.from_leaf_ids(tree, [l0[2], l0[3], l1[0]])
        union = combine_candidates([a, b], "union")
        assert admitted_leaves(union, 0).tolist() == l0[1:4] and admitted_leaves(union, 1).tolist() == [l1[0]]
        inter = combine_candidates([a, b], "intersection")
        assert admitted_leaves(inter, 0).tolist() == [l0[2]] and admitted_leaves(inter, 1).size == 0
        assert admitted_leaves(combine_candidates([a, a], "union"), 0).tolist() == admitted_leaves(a, 0).tolist()

    def test_combine_fallback(self, tree):
        l0 = subtree_leaves(tree, 0).tolist()
        a = CandidateVWs.from_leaf_ids(tree, [l0[1]])
        b = CandidateVWs.from_leaf_ids(tree, [l0[2]])
        merged = combine_candidates([a, b], "intersection-fallback-union")
        assert admitted_leaves(merged, 0).tolist() == [l0[1], l0[2]]

    @pytest.mark.parametrize("which", ["small", "coherent"])
    def test_masks_admit_what_the_frozen_sets_admit(self, tree, which):
        # Random cue sets, merged under every mode, admit the same words per
        # center as the frozen dict-of-frozensets candidates.
        grouping_tree = tree if which == "small" else coherent_tree()
        m = grouping_tree.num_leaves
        rng = np.random.default_rng(163)
        empty = np.empty(0, dtype=np.int64)
        halves = np.array_split(rng.permutation(m), 2)
        cue_sets = [
            [empty],
            [empty, rng.integers(0, m, 5)],
            halves,  # disjoint cues
            [halves[0][: m // 8], halves[1][: m // 8], rng.integers(0, m, m // 4)],
        ]
        # One to three cues of up to 2M ids each, drawn with repeats.
        for _ in range(30):
            cue_sets.append([rng.integers(0, m, rng.integers(0, 2 * m)) for _ in range(rng.integers(1, 4))])
        forms = (list, set, lambda ids: np.asarray(ids, dtype=np.int32))
        for k, ids_of_cues in enumerate(cue_sets):
            # Each cue's ids as a list, a set or an int32 array, in turn.
            given = [forms[(k + j) % 3](ids.tolist()) for j, ids in enumerate(ids_of_cues)]
            cues = [CandidateVWs.from_leaf_ids(grouping_tree, ids) for ids in given]
            frozen = [candidates_reference.CandidateVWs.from_leaf_ids(grouping_tree, ids) for ids in given]
            for mode in COMBINE_MODES:
                got = combine_candidates(cues, mode)
                want = candidates_reference.combine_candidates(frozen, mode)
                for center in range(grouping_tree.num_vlad_centers):
                    assert admitted_leaves(got, center).tolist() == sorted(want.allowed(center))
                assert np.count_nonzero(got.mask) == want.total_width()


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
        # The masked slice of the cached dictionary is the dictionary built
        # afresh from the admitted leaves: values, layout and first copies.
        # On the default tree, masks that drop the first and then the second
        # of center 4's three equal leaves move its first copy.
        rng = np.random.default_rng(139)
        coherent = coherent_tree()
        repeated = list(test_sparse.TestRepeatedLeaves.REPEATED)
        cases = []
        for t in (tree, coherent):
            for center in range(t.num_vlad_centers):
                pool = subtree_leaves(t, center)
                for size in (0, 1, 2, pool.size - 1, pool.size):
                    cases.append((t, center, rng.choice(pool, size=size, replace=False)))
        pool = subtree_leaves(coherent, 4)
        for dropped in (repeated[:1], repeated[:2], repeated[1:2], repeated):
            cases.append((coherent, 4, np.setdiff1d(pool, dropped)))
        for t, center, ids in cases:
            # Leaves of other centers in the mask are not the center's columns.
            other = subtree_leaves(t, (center + 1) % t.num_vlad_centers)[:3]
            candidates = CandidateVWs.from_leaf_ids(t, np.concatenate([ids, other]).astype(np.int64))
            got = t.reconstruction_context.restricted(center, candidates)
            want = frozen_dictionary(t, center, ids.tolist())
            assert_same_dictionary(got, want)
            assert got.columns.strides == want.columns.strides
            assert np.array_equal(got.first_copies, want.first_copies)
        full = coherent.reconstruction_context.full(4)[0]
        for dropped, first in ((repeated[:1], 318), (repeated[:2], 319)):
            candidates = CandidateVWs.from_leaf_ids(coherent, np.setdiff1d(pool, dropped))
            got = coherent.reconstruction_context.restricted(4, candidates)
            assert got.column_ids[~got.first_copies].tolist() == [t for t in repeated if t > first]
            assert got.first_copies[np.searchsorted(got.column_ids, first)]
        assert np.count_nonzero(~full.first_copies) == 2

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
        # The cached dictionaries and Gram, walked together, take the same
        # path as each dictionary built afresh and walked alone with its own
        # Gram: the same kept words, event counts and flags, and coefficients
        # equal up to the rounding of the batched factorization.  The
        # realistic tree matters: its center 4 holds three equal leaves.
        tree = coherent_tree()
        rng = np.random.default_rng(149)
        leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
        for _ in range(3):
            X = leafs[rng.integers(0, tree.num_leaves, size=150)]
            v = compute_vlad(tree, X + rng.normal(0, 0.05, size=X.shape))
            allowed = set(int(t) for t in rng.choice(tree.num_leaves, size=120, replace=False))
            for cand in (None, CandidateVWs.from_leaf_ids(tree, allowed)):
                result = reconstruct_bow(v, tree, 0.02, cand)
                counts = result.histogram.counts
                seen = set()
                for report in result.reports:
                    if report.skipped:
                        continue
                    restrict = None if cand is None else admitted_leaves(cand, report.vlad_id)
                    d = frozen_dictionary(tree, report.vlad_id, restrict)
                    solved = solve_nn_lasso_batch([(d, v[report.vlad_id], None)], 0.02)[0]
                    kept = np.array([counts.get(int(t), 0.0) for t in d.column_ids])
                    got = LassoResult(kept, report.converged, report.sweeps, 0.0)
                    want = np.where(solved.coeffs > 1e-6, solved.coeffs, 0.0)
                    assert_same_walk(got, LassoResult(want, solved.converged, solved.sweeps, 0.0), d)
                    seen.update(d.column_ids.tolist())
                assert set(counts) <= seen

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
        v = np.zeros((tree.num_vlad_centers, tree.dim))
        result = reconstruct_bow(v, tree, lam=0.01)
        assert result.histogram.counts == {}

    def test_vlad_of_another_shape_rejected(self, tree):
        n, d = tree.num_vlad_centers, tree.dim
        prior = histogram_of({0: 1.0}, tree.num_leaves)
        for shape in ((d, n), (n * d,), (n + 1, d), (n, d - 1)):
            with pytest.raises(ValueError, match=r"expected \(%d, %d\)" % (n, d)):
                reconstruct_bow(np.ones(shape), tree, lam=0.01)
            with pytest.raises(ValueError, match=r"expected \(%d, %d\)" % (n, d)):
                reconstruct_bow_with_prior(np.ones(shape), tree, prior, 0.5)

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
        mean_width = np.count_nonzero(cand.mask) / cand.num_centers
        assert mean_width * 5 <= full_width * index.tree.num_vlad_centers


class TestPseudoBow:
    def test_top1_is_normalized_histogram(self, index):
        first = index.ids[0]
        ranking = Ranking(tuple((i, float(k)) for k, i in enumerate(index.ids)))
        h = pseudo_bow(index, ranking, top_r=1)
        assert h.counts == l1_normalized(index.bows[first]).counts

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
        v = np.ones((tree.num_vlad_centers, tree.dim))
        with pytest.raises(ValueError):
            reconstruct_bow_with_prior(v, tree, histogram_of({}, tree.num_leaves), 0.5)

    def test_stacked_solves_equal_per_center_solves(self):
        # One stacked LAPACK call gives each center the coefficient bytes of
        # its own solve_tikhonov over the dictionary built afresh.
        tree = coherent_tree()
        rng = np.random.default_rng(163)
        leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
        solved = []

        def record(*args, **kwargs):
            solved.append((args, kwargs, solve_tikhonov_batch(*args, **kwargs)))
            return solved[-1][2]

        for cand in (None, CandidateVWs.from_leaf_ids(tree, rng.choice(tree.num_leaves, 150, replace=False))):
            X = leafs[rng.integers(0, tree.num_leaves, size=120)] + rng.normal(0, 0.05, size=(120, tree.dim))
            v = compute_vlad(tree, X)
            prior = compute_bow(tree, leafs[rng.integers(0, tree.num_leaves, size=60)])
            with mock.patch.object(reconstruct, "solve_tikhonov_batch", side_effect=record):
                result = reconstruct_bow_with_prior(v, tree, prior, 0.8, cand, mass=100.0)
            (problems, alpha), kwargs, coeffs = solved.pop()
            assert [r.vlad_id for r in result.reports if not r.skipped] == [d.vlad_id for d, _, _ in problems]
            dense = np.zeros(tree.num_leaves)
            dense[prior.words] = prior.values * (100.0 / prior.total())
            admitted = set(prior.words.tolist()) | (set(range(tree.num_leaves)) if cand is None else set(np.flatnonzero(cand.mask).tolist()))
            for (d, sub, h0), got in zip(problems, coeffs):
                want_d = frozen_dictionary(tree, d.vlad_id, [t for t in subtree_leaves(tree, d.vlad_id) if t in admitted])
                assert np.array_equal(d.columns, want_d.columns) and np.array_equal(d.column_ids, want_d.column_ids)
                assert np.array_equal(h0, dense[d.column_ids]) and np.array_equal(sub, v[d.vlad_id])
                want = solve_tikhonov_one(want_d, v[d.vlad_id], dense[d.column_ids], alpha, kwargs["n1"], kwargs["n2"])
                assert np.array_equal(got, want)

    def test_counts_are_integral(self, tree):
        rng = np.random.default_rng(157)
        leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
        X = leafs[rng.integers(0, tree.num_leaves, size=40)]
        v = compute_vlad(tree, X)
        prior = compute_bow(tree, X)
        result = reconstruct_bow_with_prior(v, tree, prior, 0.6, mass=40.0)
        for c in result.histogram.counts.values():
            assert c == math.floor(c) and c >= 1.0
