"""The array-based histogram stages against the frozen dict-based ones
(histogram_reference.py), and reconstruction on a tree whose centers
interleave their leaves."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import histogram_reference as ref
import scan_reference
from dehash.aggregate import aggregate_images, compute_vlad
from dehash.dataset import SyntheticSpec, ingest_dataset
from dehash.hashing import approximate_vlad, encode
from dehash.pipeline import ReconParams, _query_candidates, run_pipeline
from dehash.reconstruct import pseudo_bow, reconstruct_bow, reconstruct_bow_with_prior
from dehash.retrieval import DatabaseIndex, Ranking, rank_bow, rank_hamming
from dehash.vocab import VocabularyTree, load_tree, save_tree

from index_columns import bow_matrix, histogram_of
from test_pipeline import tiny_config
from test_scans import assert_ranked_as, ids_of
from test_sparse import coherent_tree

COUNT = st.one_of(st.integers(1, 9).map(float), st.floats(1e-3, 50.0))


class TestPseudoBow:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.dictionaries(st.integers(0, 11), COUNT, min_size=1, max_size=8), min_size=1, max_size=25
        ),
        picks=st.lists(st.integers(0, 24), min_size=1, max_size=25),
        top_r=st.integers(1, 20),
    )
    def test_equals_dict_accumulation(self, rows, picks, top_r):
        # Twelve words over up to 25 rows: the chosen rows share words, and
        # a ranking may repeat an image, so each word sums several weights.
        ids = ids_of(len(rows))
        bow = bow_matrix([histogram_of(row, 12) for row in rows], 12)
        index = DatabaseIndex(SimpleNamespace(num_leaves=12), ids, bow=bow)
        ranking = Ranking([(ids[p % len(ids)], float(k)) for k, p in enumerate(picks)])
        got = pseudo_bow(index, ranking, top_r)
        want = ref.pseudo_bow(index, ranking, top_r)
        assert got.counts == want
        assert got.words.tolist() == sorted(want)


def brpk_chain(config, result, descriptors, entry):
    """The recon-brpk histogram of one query, from the array stages and from
    the frozen dict stages (rank_query's chain, spelled out)."""
    index, tree, recon, qid = result.index, result.tree, config.recon, entry.image_id
    code = encode(result.model, compute_vlad(tree, descriptors))
    approx = approximate_vlad(result.model, code)
    binary = rank_hamming(index, code).drop(qid)
    candidates = _query_candidates(config, index, binary, entry.gps, entry.category)
    cads = reconstruct_bow(approx, tree, recon.lam, candidates, tol=recon.tol, max_iter=recon.max_iter)
    initial = rank_bow(index, cads.histogram).drop(qid) if recon.prior_source == "recon" else binary
    prior = pseudo_bow(index, initial, recon.top_r_pseudo)
    got = reconstruct_bow_with_prior(
        approx, tree, prior, recon.alpha, candidates, cads.histogram.total() or prior.total()
    ).histogram
    # The CADS histogram came out of the dict stages in center order, which
    # on a trained tree is word order, so its total is the one summed then.
    old_prior = ref.pseudo_bow(index, initial, recon.top_r_pseudo)
    old_mass = cads.histogram.total() or float(sum(old_prior.values()))
    want = ref.reconstruct_bow_with_prior(approx, tree, old_prior, recon.alpha, candidates, old_mass)
    return got, want


class TestPriorReconstruction:
    @pytest.mark.parametrize(
        "recon, spec",
        [
            (ReconParams(), SyntheticSpec(num_images=160, group_size=4, noise_std=0.1, seed=11)),
            (
                ReconParams(cues=("category", "binary"), prior_source="binary", combine="union"),
                SyntheticSpec(num_images=160, group_size=4, noise_std=0.2, query_noise_std=0.2, seed=12),
            ),
        ],
    )
    def test_floored_histograms_equal_dict_stages(self, tmp_path, recon, spec):
        # The prior's total and ||h0||^2 are now summed in word order rather
        # than in the order pseudo_bow first saw each word, which can move
        # their last bits; the floored counts must not move.
        config = tiny_config(modes=("hamming", "recon-brpk"), recon=recon, synthetic=spec, num_queries=20)
        result = run_pipeline(config, out_dir=tmp_path)
        dataset = ingest_dataset(tmp_path / "data" / "manifest.tsv")
        entries = {e.image_id: e for e in dataset.entries}
        for qid in result.relevance:
            got, want = brpk_chain(config, result, dataset.descriptors[qid], entries[qid])
            assert got.counts == want
            assert list(got.counts) == sorted(want)


def interleaved(tree: VocabularyTree, path) -> tuple[VocabularyTree, np.ndarray]:
    """``tree`` with its leaves renumbered so that leaf ``j`` sits under
    center ``j % N`` (read back through ``load_tree``), and the map from old
    leaf ids to new ones; each center keeps its leaves in the same order."""
    n, parents = tree.num_vlad_centers, tree.parent_of_leaf.astype(np.int64)
    rank_in_center = np.zeros_like(parents)
    for c in range(n):
        rank_in_center[parents == c] = np.arange(np.count_nonzero(parents == c))
    new_id = rank_in_center * n + parents
    leaves = np.empty_like(tree.leaf_centers)
    leaves[new_id] = tree.leaf_centers
    save_tree(
        VocabularyTree(tree.dim, tree.branch, tree.levels, tree.vlad_level, tree.vlad_centers, leaves,
                       (np.arange(tree.num_leaves) % n).astype(np.uint32)),
        path,
    )
    return load_tree(path), new_id


class TestInterleavedTree:
    def test_words_ascend_and_rank_as_before(self, tmp_path):
        tree = coherent_tree()
        itree, new_id = interleaved(tree, tmp_path / "tree.bin")
        n = itree.num_vlad_centers
        rng = np.random.default_rng(163)
        leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
        sets = [leafs[rng.integers(0, tree.num_leaves, size=40)] + rng.normal(0, 0.05, (40, tree.dim))
                for _ in range(12)]
        bow, _ = aggregate_images(itree, sets)
        ids = ids_of(len(sets))
        index = DatabaseIndex(itree, ids, bow=bow)
        for X in sets[:4]:
            got = reconstruct_bow(compute_vlad(itree, X), itree, 0.02).histogram
            plain = reconstruct_bow(compute_vlad(tree, X), tree, 0.02).histogram
            assert got.words.tolist() == sorted(got.words.tolist())
            assert got.counts == {int(new_id[w]): c for w, c in plain.counts.items()}
            # The dict stages held the words center by center.
            by_center = dict(sorted(got.counts.items(), key=lambda wc: (wc[0] % n, wc[0])))
            assert list(by_center) != list(got.counts)
            old_query = SimpleNamespace(counts=by_center)
            assert_ranked_as(rank_bow(index, got), ids, scan_reference.bow_scores(index.bow, old_query))
