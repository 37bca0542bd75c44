"""Array rankings against the frozen eager-tuple reference (ranking_reference.py)."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ranking_reference as ref
from index_columns import index_of
from dehash import retrieval
from dehash.retrieval import (
    Ranking,
    average_precision,
    mean_ndcg,
    recall_at,
)

POOL = [f"im{i}" for i in range(6)]
ABSENT = "zz"
# Scores drawn often from a few values, so rankings hold ties.
SCORES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(-1e3, 1e3))


def outcome(fn, *args):
    """``fn(*args)``, or the exception type it raised."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def assert_same(got: Ranking, want: ref.Ranking, relevant: set[str], reference: str) -> None:
    assert got.entries == want.entries
    assert got.ids() == want.ids()
    assert got.degenerate == want.degenerate
    assert len(got) == len(want.entries)
    for n in range(-1, len(want.entries) + 2):
        assert got.top_ids(n) == [i for i, _ in want.entries[:n]]
        if n < 1:  # recall@n is undefined there; the reference slices instead
            assert outcome(recall_at, {"q": got}, {"q": reference}, n) is ValueError
            continue
        assert recall_at({"q": got}, {"q": reference}, n) == ref.recall_at(
            {"q": want}, {"q": reference}, n
        )
    for image_id in (*POOL, ABSENT):
        assert outcome(got.position, image_id) == outcome(want.position, image_id)
    # Metrics compare exactly: the same float additions in the same order.
    assert average_precision(got, relevant) == ref.average_precision(want, relevant)
    assert outcome(mean_ndcg, {"q": got}, {"q": reference}) == outcome(
        ref.mean_ndcg, {"q": want}, {"q": reference}
    )


def check_against_reference(got: Ranking, want: ref.Ranking, data) -> None:
    relevant = data.draw(st.sets(st.sampled_from([*POOL, ABSENT]), min_size=1), "relevant")
    reference = data.draw(st.sampled_from([*POOL, ABSENT]), "reference")
    dropped = data.draw(st.sampled_from([*POOL, ABSENT]), "dropped")
    pairs = [
        (got, want),
        (got.drop(dropped), want.drop(dropped)),
        (got.drop(dropped).drop(dropped), want.drop(dropped).drop(dropped)),
        (Ranking(got.entries), ref.Ranking(want.entries)),
        (Ranking(got.entries, not got.degenerate), ref.Ranking(want.entries, not want.degenerate)),
    ]
    for g, w in pairs:
        assert_same(g, w, relevant, reference)
    for g1, w1 in pairs:
        for g2, w2 in pairs:
            assert (g1 == g2) == (w1 == w2)


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(
        ids=st.lists(st.sampled_from(POOL), unique=True, max_size=len(POOL)),
        degenerate=st.booleans(),
        data=st.data(),
    )
    def test_index_rankings(self, ids, degenerate, data):
        scores = np.array(
            data.draw(st.lists(SCORES, min_size=len(ids), max_size=len(ids)), "scores"),
            dtype=np.float64,
        )
        index = index_of(tree=None, ids=ids)
        got = index._ranking(scores, degenerate)
        want = ref.index_ranking(tuple(sorted(ids)), scores, degenerate)
        check_against_reference(got, want, data)

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(st.tuples(st.sampled_from(POOL), SCORES), max_size=8),
        data=st.data(),
    )
    def test_rankings_from_entries(self, entries, data):
        # Out of order and with repeated ids, as the benchmark self-test
        # builds deliberately broken rankings.
        entries = tuple(entries)
        got = Ranking(entries)
        assert got.entries is entries
        check_against_reference(got, ref.Ranking(entries), data)


def test_drop_keeps_the_shared_id_table():
    index = index_of(tree=None, ids=["b", "a", "c"])
    ranking = index._ranking(np.array([1.0, 0.0, 1.0]))
    assert ranking.entries == (("b", 0.0), ("a", 1.0), ("c", 1.0))
    dropped = ranking.drop("b")
    assert dropped.entries == (("a", 1.0), ("c", 1.0))
    assert dropped._ids is ranking._ids and dropped._rows is index._row
    assert ranking.entries == (("b", 0.0), ("a", 1.0), ("c", 1.0))


# Values the packed-key sort must order as the stable sort does: zeros of
# both signs (equal keys once ``+ 0.0`` folds them), infinities, NaNs of
# both signs and of another payload (equal to the stable sort, so they must
# stay in row order), negative scores, and integers, as Hamming distances
# and BoW scores over integer counts are.
NAN_PAYLOAD = np.array([0x7FF8000001000000], dtype=np.uint64).view(np.float64)[0]
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, NAN_PAYLOAD]
PALETTE = st.lists(
    st.one_of(st.sampled_from(SPECIAL), st.integers(0, 32).map(float), st.floats(-1e3, 1e3)),
    min_size=1,
    max_size=6,
)


def ranked(scores):
    return index_of(tree=None, ids=[f"im{i:04d}" for i in range(len(scores))])._ranking(scores)


def assert_stable(got, scores):
    want = np.argsort(scores, kind="stable")
    assert got._order.dtype == want.dtype == np.intp
    assert np.array_equal(got._order, want)
    assert got._scores.tobytes() == scores[want].tobytes()  # -0.0 and +0.0 where they were


class TestTieBreakOrder:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.one_of(st.integers(0, 2), st.integers(0, 6000)),
        palette=PALETTE,
        distinct=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
        magnitudes=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_order_is_the_stable_sort(self, n, palette, distinct, magnitudes, seed):
        # Scores drawn from a few values, a share of them replaced by
        # distinct ones, so rankings mix long tie runs with single scores.
        # ``magnitudes`` drops the signs (not of -0.0 or NaN), as distances
        # are, so the packed keys decide the order without a finishing sort.
        rng = np.random.default_rng(seed)
        scores = rng.choice(np.array(palette), size=n)
        spread = rng.random(n) < distinct
        scores[spread] = rng.standard_normal(int(spread.sum()))
        if magnitudes:
            scores = np.where(scores < 0, -scores, scores)
        assert_stable(ranked(scores), scores)

    def test_keys_decide_or_the_stable_sort_does(self):
        # 5000 rows keep 13 low key bits for the row, so 0.75 and the next
        # float share a key above them; held in reverse row order, they come
        # out of the key sort out of order, and a stable sort of the sorted
        # scores must put them right.  Without that pair the keys decide
        # alone, signed zeros included: they tie, so they must share a key.
        # So must NaNs of any sign and payload, which the stable sort keeps
        # in row order after every number.
        rng = np.random.default_rng(22)
        runs = rng.integers(0, 40, size=5000) / 8.0  # long tie runs
        spread = rng.random(5000) < 0.3
        runs[spread] = rng.random(int(spread.sum())) * 5.0
        close = runs.copy()
        close[[1234, 4321]] = np.nextafter(0.75, 1.0), 0.75
        zeros = np.where(rng.random(5000) < 0.5, 0.0, -0.0)
        nans = runs.copy()
        missing = rng.random(5000) < 0.2
        nans[missing] = rng.choice(np.array([np.nan, -np.nan, NAN_PAYLOAD]), size=int(missing.sum()))
        for scores, finished in ((runs, False), (zeros, False), (close, True), (nans, True)):
            with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
                got = ranked(scores)
            assert argsort.call_count == finished
            if finished:
                assert argsort.call_args.kwargs == {"kind": "stable"}
            assert_stable(got, scores)
        # Short of its vector loop np.fmax can return -0.0 for -0.0 and 0.0.
        assert retrieval._packed_argsort(np.array([-0.0, 0.0, -0.0])).tolist() == [0, 1, 2]
