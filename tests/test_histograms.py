"""The array-based histogram stages against the frozen dict-based ones
(histogram_reference.py)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import histogram_reference as ref
from dehash.aggregate import compute_vlad
from dehash.dataset import SyntheticSpec
from dehash.hashing import approximate_vlad, encode
from dehash.pipeline import ReconParams, _query_candidates, run_pipeline
from dehash.reconstruct import pseudo_bow, reconstruct_bow, reconstruct_bow_with_prior
from dehash.retrieval import DatabaseIndex, Ranking, rank_bow, rank_hamming

from index_columns import bow_matrix, histogram_of
from test_pipeline import tiny_config
from test_scans import ids_of

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
    def test_floored_histograms_equal_dict_stages(self, recon, spec):
        # The prior's total and ||h0||^2 are now summed in word order rather
        # than in the order pseudo_bow first saw each word, which can move
        # their last bits; the floored counts must not move.
        config = tiny_config(modes=("hamming", "recon-brpk"), recon=recon, synthetic=spec, num_queries=20)
        result = run_pipeline(config)
        dataset = result.dataset
        entries = {e.image_id: e for e in dataset.entries}
        for qid in result.relevance:
            got, want = brpk_chain(config, result, dataset.descriptors[qid], entries[qid])
            assert got.counts == want
            assert list(got.counts) == sorted(want)

