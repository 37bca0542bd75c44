import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from dehash.aggregate import RANK_NORMALIZATION, compute_bow, compute_vlad, normalize_vlad
from dehash.dataset import simulate_gps
from dehash.hashing import BinaryCode, encode, train_hashing
from dehash.retrieval import (
    DatabaseIndex,
    Ranking,
    attach_pq,
    average_precision,
    build_index,
    mean_average_precision,
    mean_ndcg,
    ndcg,
    rank_adc,
    rank_bow,
    rank_gps,
    rank_hamming,
    rank_vlad,
    ranking_dump_lines,
    recall_at,
    train_pq,
)
from dehash import aggregate, vocab
from dehash.vocab import train_vocabulary

from index_columns import bow_matrix, histogram_of, index_of
from pair_reference import adc_distance, encode_pq, hamming_distance, haversine_m, l1_histogram_distance
from test_vocab import gaussian_mixture


@pytest.fixture(scope="module")
def small_index():
    tree = train_vocabulary(gaussian_mixture(1200, 5, 6, seed=211), 3, 2, 1, seed=211)
    rng = np.random.default_rng(213)
    leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
    descriptors = {}
    gps = {}
    for i in range(12):
        support = rng.choice(tree.num_leaves, size=3, replace=False)
        picks = rng.choice(support, size=25, replace=True)
        descriptors[f"im{i:02d}"] = leafs[picks]
        gps[f"im{i:02d}"] = (40.0 + 0.01 * i, -74.0 + 0.005 * i)
    vlads = [compute_vlad(tree, X) for X in descriptors.values()]
    model = train_hashing(vlads, "shared", nbits=tree.num_vlad_centers * 4, seed=3)
    return build_index(tree, model, descriptors, gps=gps)


class TestRankBow:
    def test_self_match_first_with_zero_distance(self, small_index):
        qid = small_index.ids[4]
        ranking = rank_bow(small_index, small_index.bows[qid])
        assert ranking.entries[0] == (qid, 0.0)

    def test_disjoint_supports_distance_two(self, small_index):
        m = small_index.tree.num_leaves
        a = histogram_of({0: 3.0}, m)
        b = histogram_of({1: 5.0, 2: 1.0}, m)
        assert l1_histogram_distance(a, b) == pytest.approx(2.0)

    def test_matches_dense_l1_oracle(self, small_index):
        rng = np.random.default_rng(217)
        m = small_index.tree.num_leaves
        for _ in range(50):
            keys = rng.choice(m, size=4, replace=False)
            query = histogram_of({int(k): float(rng.integers(1, 6)) for k in keys}, m)
            ranking = rank_bow(small_index, query)
            qd = query.to_dense()
            qd = qd / qd.sum()
            for image_id, score in ranking.entries:
                dd = small_index.bows[image_id].to_dense()
                dd = dd / dd.sum()
                assert score == pytest.approx(float(np.abs(qd - dd).sum()), abs=1e-12)
            scores = [s for _, s in ranking.entries]
            assert scores == sorted(scores)

    def test_equal_distances_tie_exactly(self, small_index):
        # Both rows lie at L1 distance exactly 10/13 from the query.  Scored
        # as 2 - 2 * sum(min) over L1-normalized float weights they come out
        # at 0.7692307692307692 and 0.7692307692307694, so only an exact
        # score ties them and leaves them in id order.
        m = small_index.tree.num_leaves
        bows = {
            "img-b": histogram_of({1: 2.0, 2: 8.0}, m),
            "img-a": histogram_of({0: 3.0, 2: 2.0, 3: 1.0}, m),
            "img-c": histogram_of({4: 1.0}, m),
        }
        idx = index_of(tree=small_index.tree, ids=list(bows), bows=bows)
        query = histogram_of({0: 3.0, 1: 5.0, 2: 11.0, 3: 7.0}, m)
        ranking = rank_bow(idx, query)
        assert ranking.entries == (("img-a", 10 / 13), ("img-b", 10 / 13), ("img-c", 2.0))

    def test_empty_query_flagged(self, small_index):
        ranking = rank_bow(small_index, histogram_of({}, small_index.tree.num_leaves))
        assert ranking.degenerate
        assert ranking.ids() == sorted(small_index.ids)


class TestRankVlad:
    def test_self_match(self, small_index):
        qid = small_index.ids[2]
        ranking = rank_vlad(small_index, small_index.vlads[qid])
        assert ranking.entries[0][0] == qid
        assert ranking.entries[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_orthonormal_pair_distance(self):
        # Two unit vectors on different axes sit sqrt(2) apart.
        tree = train_vocabulary(gaussian_mixture(400, 3, 4, seed=219), 2, 2, 1, seed=219)
        a = np.array([[1.0, 0, 0], [0, 0, 0]])
        b = np.array([[0, 1.0, 0], [0, 0, 0]])
        idx = index_of(tree=tree, ids=["a"], vlads={"a": a})
        ranking = rank_vlad(idx, b)
        assert ranking.entries[0][1] == pytest.approx(math.sqrt(2.0))

    def test_matches_brute_force(self, small_index):
        rng = np.random.default_rng(223)
        tree = small_index.tree
        q = rng.normal(size=(tree.num_vlad_centers, tree.dim))
        ranking = rank_vlad(small_index, q)
        assert small_index.rank_normalization == RANK_NORMALIZATION
        qn = normalize_vlad(q, small_index.rank_normalization).flattened()
        for image_id, score in ranking.entries:
            dn = normalize_vlad(small_index.vlads[image_id], small_index.rank_normalization)
            want = float(np.linalg.norm(qn - dn.flattened()))
            assert score == pytest.approx(want, abs=1e-12)


class TestRankHamming:
    def test_identical_and_complementary(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        a = BinaryCode.from_bits(bits)
        b = BinaryCode.from_bits(1 - bits)
        assert hamming_distance(a, a) == 0
        assert hamming_distance(a, b) == 8
        with pytest.raises(ValueError):
            hamming_distance(a, BinaryCode.from_bits(bits[:4]))

    def test_matches_bit_oracle(self, small_index):
        rng = np.random.default_rng(227)
        nbits = next(iter(small_index.codes.values())).nbits
        query = BinaryCode.from_bits(rng.integers(0, 2, size=nbits))
        ranking = rank_hamming(small_index, query)
        for image_id, score in ranking.entries:
            want = int(np.sum(query.bits() != small_index.codes[image_id].bits()))
            assert score == want


class TestAdc:
    def test_exact_when_codebook_covers_values(self):
        # 2**b centers >= distinct sub-vector values: zero quantization error.
        rng = np.random.default_rng(229)
        base = rng.normal(size=(4, 8))
        vectors = base[rng.integers(0, 4, size=30)]
        books = train_pq(vectors, subvectors=2, bits=2, seed=1)
        for row in vectors[:10]:
            codes = encode_pq(books, row)
            assert adc_distance(books, row, codes) == pytest.approx(0.0, abs=1e-12)
        # ADC distance equals exact squared L2 for arbitrary queries.
        q = rng.normal(size=8)
        for row in vectors[:10]:
            codes = encode_pq(books, row)
            assert adc_distance(books, q, codes) == pytest.approx(
                float(np.sum((q - row) ** 2)), abs=1e-9
            )

    def test_table_free_recomputation(self, small_index):
        rng = np.random.default_rng(233)
        attach_pq(small_index, train_pq(small_index.ranking_vlad_matrix(), 5, 3, seed=2))
        q = rng.normal(size=(small_index.tree.num_vlad_centers, small_index.tree.dim))
        ranking = rank_adc(small_index, q)
        qn = normalize_vlad(q, small_index.rank_normalization).flattened()
        for image_id, score in ranking.entries:
            want = adc_distance(small_index.pq, qn, small_index.pq_codes[image_id])
            assert score == pytest.approx(want, abs=1e-6)
            assert score >= 0.0

    def test_ranking_correlates_with_exact(self, small_index):
        rng = np.random.default_rng(239)
        attach_pq(small_index, train_pq(small_index.ranking_vlad_matrix(), 5, 6, seed=4))
        tree = small_index.tree
        rhos = []
        for _ in range(5):
            q = rng.normal(size=(tree.num_vlad_centers, tree.dim))
            exact = {i: r for r, (i, _) in enumerate(rank_vlad(small_index, q).entries)}
            approx = {i: r for r, (i, _) in enumerate(rank_adc(small_index, q).entries)}
            ids = small_index.ids
            rhos.append(spearmanr([exact[i] for i in ids], [approx[i] for i in ids]).statistic)
        assert np.mean(rhos) > 0.8

    def test_wrong_length_vector_rejected(self):
        books = train_pq(np.random.default_rng(1).normal(size=(40, 16)), subvectors=4, bits=2)
        codes = encode_pq(books, np.ones(16))
        for length in (13, 15, 17, 20):
            with pytest.raises(ValueError, match="dim 16"):
                encode_pq(books, np.ones(length))
            with pytest.raises(ValueError, match="dim 16"):
                adc_distance(books, np.ones(length), codes)
        with pytest.raises(ValueError, match="codes"):
            adc_distance(books, np.ones(16), codes[:3])

    def test_untrained_errors(self, small_index):
        fresh = index_of(
            tree=small_index.tree, ids=["x"], vlads={"x": small_index.vlads[small_index.ids[0]]}
        )
        with pytest.raises(ValueError, match="quantizer"):
            rank_adc(fresh, small_index.vlads[small_index.ids[0]])


class TestGps:
    def test_sigma_zero_identity(self):
        assert simulate_gps((12.0, 34.0), 0.0, seed=5) == (12.0, 34.0)

    def test_rayleigh_mean_displacement(self):
        rng = np.random.default_rng(241)
        sigma = 50.0
        origin = (45.0, 7.0)
        dists = [
            haversine_m(origin, simulate_gps(origin, sigma, rng)) for _ in range(10000)
        ]
        want = sigma * math.sqrt(math.pi / 2.0)
        assert np.mean(dists) == pytest.approx(want, rel=0.03)

    def test_haversine_against_independent_formula(self):
        # Oracle: law-of-cosines great-circle formula.
        rng = np.random.default_rng(251)
        for _ in range(200):
            a = (float(rng.uniform(-80, 80)), float(rng.uniform(-180, 180)))
            b = (float(rng.uniform(-80, 80)), float(rng.uniform(-180, 180)))
            lat1, lon1, lat2, lon2 = map(math.radians, (*a, *b))
            cos_c = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(
                lon2 - lon1
            )
            want = 6_371_000.0 * math.acos(max(-1.0, min(1.0, cos_c)))
            assert haversine_m(a, b) == pytest.approx(want, abs=1e-6, rel=1e-9)

    def test_rank_gps_nearest_first(self, small_index):
        q = small_index.gps[small_index.ids[3]]
        ranking = rank_gps(small_index, q)
        assert ranking.entries[0][0] == small_index.ids[3]
        dists = [haversine_m(q, small_index.gps[i]) for i in ranking.ids()]
        assert dists == sorted(dists)

    def test_latitude_bounds(self):
        with pytest.raises(ValueError):
            simulate_gps((91.0, 0.0), 10.0)


def random_rankings(rng, num_queries, num_db):
    ids = [f"d{i}" for i in range(num_db)]
    rankings = {}
    relevance = {}
    for q in range(num_queries):
        scores = rng.normal(size=num_db)
        order = np.argsort(scores, kind="stable")
        rankings[f"q{q}"] = Ranking(tuple((ids[i], float(scores[i])) for i in order))
        k = int(rng.integers(1, 6))
        relevance[f"q{q}"] = set(rng.choice(ids, size=k, replace=False))
    return rankings, relevance


def oracle_average_precision(order, relevant):
    hits = 0
    total = 0.0
    for rank, image_id in enumerate(order, start=1):
        if image_id in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


class TestMetrics:
    def test_all_relevant_first_is_one(self):
        r = Ranking((("a", 0.0), ("b", 1.0), ("c", 2.0)))
        assert average_precision(r, {"a", "b"}) == 1.0

    def test_single_relevant_at_rank_two(self):
        r = Ranking((("a", 0.0), ("b", 1.0)))
        assert average_precision(r, {"b"}) == 0.5

    def test_map_matches_independent_implementation(self):
        rng = np.random.default_rng(257)
        rankings, relevance = random_rankings(rng, 100, 30)
        got = mean_average_precision(rankings, relevance)
        want = np.mean(
            [oracle_average_precision(rankings[q].ids(), relevance[q]) for q in rankings]
        )
        assert got == pytest.approx(want, abs=1e-9)

    def test_recall_at_matches_bruteforce(self):
        rng = np.random.default_rng(263)
        rankings, _ = random_rankings(rng, 100, 30)
        reference = {q: rankings[q].ids()[int(rng.integers(0, 30))] for q in rankings}
        for n in (1, 5, 10):
            got = recall_at(rankings, reference, n)
            want = np.mean([reference[q] in rankings[q].ids()[:n] for q in rankings])
            assert got == pytest.approx(want, abs=1e-9)

    def test_ndcg_closed_form(self):
        assert ndcg(1) == 1.0
        assert ndcg(3) == 0.5
        assert ndcg(7) == pytest.approx(1.0 / 3.0)
        with pytest.raises(ValueError):
            ndcg(0)

    def test_mean_ndcg(self):
        rankings = {
            "q0": Ranking((("a", 0.0), ("b", 1.0))),
            "q1": Ranking((("a", 0.0), ("b", 1.0))),
        }
        got = mean_ndcg(rankings, {"q0": "a", "q1": "b"})
        assert got == pytest.approx((1.0 + 1.0 / math.log2(3)) / 2)

    def test_metrics_invariant_to_monotone_score_transform(self):
        rng = np.random.default_rng(269)
        rankings, relevance = random_rankings(rng, 20, 15)
        warped = {
            q: Ranking(tuple((i, math.exp(s)) for i, s in r.entries))
            for q, r in rankings.items()
        }
        assert mean_average_precision(rankings, relevance) == mean_average_precision(
            warped, relevance
        )

    def test_zero_relevant_rejected(self):
        with pytest.raises(ValueError):
            average_precision(Ranking((("a", 0.0),)), set())

    def test_missing_reference_rejected(self):
        with pytest.raises(ValueError):
            Ranking((("a", 0.0),)).position("zz")


class TestRankingDump:
    def test_line_format(self):
        r = Ranking((("im3", 0.25), ("im1", 1.5)))
        lines = ranking_dump_lines("q7", r)
        assert lines == ["q7 im3 1 0.25", "q7 im1 2 1.5"]


class TestColumnarIndex:
    def test_views_read_back_what_was_indexed(self, small_index):
        tree = small_index.tree
        leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
        X = leafs[[0, 0, 1, 4]]
        vlad = compute_vlad(tree, X)
        code = BinaryCode.from_bits(np.arange(small_index.nbits) % 3 == 0)
        bow = histogram_of({4: 1.0, 0: 2.0, 1: 1.0}, tree.num_leaves)
        idx = index_of(
            tree=tree, ids=["b", "a"], bows={"a": bow, "b": bow}, vlads={"a": vlad, "b": vlad},
            codes={"a": code, "b": code}, gps={"a": (12.5, -3.25)},
        )
        assert idx.ids == ("a", "b")
        assert idx.bows["a"].counts == bow.counts
        np.testing.assert_array_equal(idx.vlads["b"], vlad)
        assert idx.codes["a"] == code
        assert idx.gps["a"] == pytest.approx((12.5, -3.25), abs=1e-12)
        assert "b" not in idx.gps and len(idx.gps) == 1 and list(idx.gps) == ["a"]
        assert "zz" not in idx.bows
        with pytest.raises(KeyError):
            idx.bows["zz"]

    def test_arrays_are_read_only(self, small_index):
        with pytest.raises(ValueError):
            small_index.vlads[small_index.ids[0]][0, 0] = 1.0
        with pytest.raises(ValueError):
            small_index.codes[small_index.ids[0]].packed[0] = 0

    def test_callers_arrays_stay_writeable(self, small_index):
        # The index keeps read-only views of the caller's arrays, not copies.
        n, tree = len(small_index.ids), small_index.tree
        vlads = small_index._vlad_matrix.reshape(n, tree.num_vlad_centers, tree.dim).copy()
        codes = small_index._codes.copy()
        idx = DatabaseIndex(tree, small_index.ids, vlads=vlads, codes=codes, nbits=small_index.nbits)
        assert vlads.flags.writeable and codes.flags.writeable
        assert not idx._vlad_matrix.flags.writeable and not idx._codes.flags.writeable
        assert np.shares_memory(idx._vlad_matrix, vlads) and np.shares_memory(idx._codes, codes)

    def test_partial_coverage_rejected(self, small_index):
        # Each column holds one row per id, or is left out.
        tree, first = small_index.tree, small_index.ids[0]
        row = small_index.row(first)
        columns = (
            {"bow": bow_matrix([small_index.bows[first]], tree.num_leaves)},
            {"vlads": small_index._vlad_matrix[row : row + 1].reshape(1, tree.num_vlad_centers, -1)},
            {"codes": small_index._codes[row : row + 1], "nbits": small_index.nbits},
        )
        for column in columns:
            with pytest.raises(ValueError, match="1 rows for 2 image ids"):
                DatabaseIndex(tree, [first, "other"], **column)

    def test_cues_for_unknown_images_rejected(self, small_index):
        # Caught when the index is built, not at query time as a missing histogram.
        tree, ids = small_index.tree, small_index.ids
        with pytest.raises(ValueError, match=r"GPS given for unknown images: \['zz'\]"):
            DatabaseIndex(tree, ids, gps={"zz": (1.0, 2.0)})
        with pytest.raises(ValueError, match=r"categories given for unknown images: \['zz'\]"):
            DatabaseIndex(tree, ids, categories={ids[0]: 0, "zz": 1})
        with pytest.raises(ValueError, match="non-negative"):
            DatabaseIndex(tree, ids, categories={ids[0]: -1})
        # Stored as a column, -1 where an image has none, read back by id.
        index = DatabaseIndex(tree, ids, categories={ids[-1]: 0, ids[0]: 127})
        assert index._categories.dtype == np.int8
        assert index._categories.tolist() == [127] + [-1] * (len(ids) - 2) + [0]
        assert index.categories == {ids[0]: 127, ids[-1]: 0} and ids[0] in index.categories
        assert DatabaseIndex(tree, ids, categories={ids[0]: 128})._categories.dtype == np.int16

    def test_ids_must_ascend(self, small_index):
        for ids in (["b", "a"], ["a", "a"], ["a", "c", "b"]):
            with pytest.raises(ValueError, match="strictly ascending"):
                DatabaseIndex(small_index.tree, ids)

    def test_columns_must_fit_the_index(self, small_index):
        tree, ids = small_index.tree, small_index.ids
        with pytest.raises(ValueError, match="vocabulary"):
            DatabaseIndex(tree, ids[:1], bow=bow_matrix([histogram_of({0: 1.0}, 5)], 5))
        with pytest.raises(ValueError, match="stack"):
            DatabaseIndex(tree, ids, vlads=small_index._vlad_matrix)
        with pytest.raises(ValueError, match="bits"):
            DatabaseIndex(tree, ids, codes=small_index._codes, nbits=small_index.nbits + 8)
        with pytest.raises(ValueError, match="bits"):
            DatabaseIndex(tree, ids, codes=small_index._codes)
        padded = small_index._codes.copy()  # 12 bits: the top 4 bits of byte 1 pad
        padded[0, -1] |= 0x80
        with pytest.raises(ValueError, match="bits past"):
            DatabaseIndex(tree, ids, codes=padded, nbits=small_index.nbits)

    @pytest.mark.parametrize("bits", [3, 9])
    def test_attach_pq_matches_per_row_encode(self, small_index, bits):
        # Enough rows to span several blocks of the vectorized quantizer.
        rng = np.random.default_rng(271)
        tree = small_index.tree
        vlads = {
            f"v{i:04d}": rng.normal(size=(tree.num_vlad_centers, tree.dim))
            for i in range(700)
        }
        idx = index_of(tree=tree, ids=list(vlads), vlads=vlads)
        books = train_pq(idx.ranking_vlad_matrix(), 5, bits, seed=3)
        attach_pq(idx, books)
        matrix = idx.ranking_vlad_matrix()
        want = np.stack([encode_pq(books, matrix[idx.row(i)]) for i in idx.ids])
        got = np.stack([idx.pq_codes[i] for i in idx.ids])
        assert got.dtype == (np.uint8 if bits <= 8 else np.uint16)
        np.testing.assert_array_equal(got, want)


class TestBuildIndex:
    @pytest.mark.parametrize("product", [True, False])
    def test_columns_equal_per_image_results(self, small_index, product):
        tree = small_index.tree
        rng = np.random.default_rng(281)
        leaves = np.asarray(tree.leaf_centers, dtype=np.float64)
        descriptors = {
            "one": rng.normal(size=(1, tree.dim)),  # a single descriptor
            "dups": np.repeat(rng.normal(size=(3, tree.dim)), 4, axis=0),
            "on-leaves": leaves[rng.integers(0, tree.num_leaves, size=9)],
            "mixed": np.vstack([leaves[:3], rng.normal(size=(30, tree.dim)), leaves[:3]]),
            "flat": rng.normal(size=tree.dim),  # one descriptor as a 1-D row
            "f32": rng.normal(size=(17, tree.dim)).astype(np.float32),
        }
        vlads = [compute_vlad(tree, X) for X in descriptors.values()]
        model = train_hashing(vlads, "shared", nbits=tree.num_vlad_centers * 4, seed=5)
        # ``product``: the build's leaf search takes the one product over all
        # leaves, as these few rows do by default, or one call per pool.
        with mock.patch.object(vocab, "_LEAF_PRODUCT_MAX_SCORES", 2**62 if product else -1):
            index = build_index(tree, model, descriptors)
        for image_id, X in descriptors.items():
            bow = compute_bow(tree, X)
            vlad = compute_vlad(tree, X)
            row = index.row(image_id)
            s = index.bow.span(row)
            assert dict(zip(index.bow.words[s].tolist(), index.bow.counts[s].tolist())) == bow.counts
            assert np.array_equal(index._vlad_matrix[row], vlad.reshape(-1))
            assert np.array_equal(index._codes[row], encode(model, vlad).packed)

    def test_mapping_order_does_not_matter(self, small_index):
        # A mapping in manifest order, ids not ascending, gives the same
        # columns as the same images given in sorted order.
        tree = small_index.tree
        rng = np.random.default_rng(287)
        names = ["im5", "im1", "im9", "im0", "im3", "im7"]
        descriptors = {i: rng.normal(size=(int(rng.integers(1, 6)), tree.dim)) for i in names}
        model = train_hashing(list(small_index.vlads.values()), "shared", nbits=tree.num_vlad_centers * 4, seed=3)
        with mock.patch.object(aggregate, "PASS_ROWS", 7):
            shuffled = build_index(tree, model, descriptors)
            ordered = build_index(tree, model, {i: descriptors[i] for i in sorted(names)})
        assert shuffled.ids == ordered.ids == tuple(sorted(names))
        for column in ("indptr", "words", "counts", "mass", "posting_entries", "posting_rows", "posting_ptr"):
            assert np.array_equal(getattr(shuffled.bow, column), getattr(ordered.bow, column))
        assert np.array_equal(shuffled._vlad_matrix, ordered._vlad_matrix)
        assert np.array_equal(shuffled.ranking_vlad_matrix(), ordered.ranking_vlad_matrix())
        assert np.array_equal(shuffled._codes, ordered._codes)

    def test_empty_descriptor_set_rejected(self, small_index):
        tree = small_index.tree
        model = train_hashing(list(small_index.vlads.values()), "shared", nbits=tree.num_vlad_centers * 4, seed=3)
        with pytest.raises(ValueError, match="nonempty"):
            build_index(tree, model, {"a": np.ones((2, tree.dim)), "b": np.empty((0, tree.dim))})

    @staticmethod
    def expected_passes(sizes, pass_rows):
        """Rows per pass: consecutive images while they fit, a larger image alone."""
        passes = []
        for size in sizes:
            if passes and passes[-1] + size <= pass_rows:
                passes[-1] += size
            else:
                passes.append(size)
        return passes

    @pytest.mark.parametrize("pass_rows", [1, 7, aggregate.PASS_ROWS])
    def test_batched_passes_equal_per_image_results(self, small_index, pass_rows):
        tree = small_index.tree
        rng = np.random.default_rng(283)
        leaves = np.asarray(tree.leaf_centers, dtype=np.float64)
        # Keyed in ascending id order, the order build_index aggregates in.
        descriptors = {
            "0-one": rng.normal(size=(1, tree.dim)),
            "1-pair": rng.normal(size=(2, tree.dim)),
            "2-on-leaves": leaves[rng.integers(0, tree.num_leaves, size=3)],
            "3-dups": np.repeat(rng.normal(size=(3, tree.dim)), 4, axis=0),
            "4-flat": rng.normal(size=tree.dim),
            "5-f32": rng.normal(size=(17, tree.dim)).astype(np.float32),
            "6-big": rng.normal(size=(aggregate.PASS_ROWS + 3, tree.dim)),  # beyond every pass
            "7-tail": rng.normal(size=(5, tree.dim)),
        }
        assert list(descriptors) == sorted(descriptors)
        sizes = [np.atleast_2d(X).shape[0] for X in descriptors.values()]
        vlads = [compute_vlad(tree, X) for X in descriptors.values()]
        model = train_hashing(vlads, "shared", nbits=tree.num_vlad_centers * 4, seed=5)
        calls = []

        def counting(tree_, X, leaves=True):
            calls.append(len(X))
            return vocab.assign_descriptors(tree_, X, leaves)

        with mock.patch.object(aggregate, "PASS_ROWS", pass_rows), \
                mock.patch.object(aggregate, "assign_descriptors", counting):
            index = build_index(tree, model, descriptors)
        assert calls == self.expected_passes(sizes, pass_rows)
        assert len(calls) > 1
        if pass_rows == 7:
            assert calls[0] == 1 + 2 + 3  # three images share the first pass
        for image_id, X in descriptors.items():
            bow = compute_bow(tree, X)
            vlad = compute_vlad(tree, X)
            row = index.row(image_id)
            s = index.bow.span(row)
            assert dict(zip(index.bow.words[s].tolist(), index.bow.counts[s].tolist())) == bow.counts
            assert np.array_equal(index._vlad_matrix[row], vlad.reshape(-1))
            assert np.array_equal(index._codes[row], encode(model, vlad).packed)

    @pytest.mark.parametrize("pass_rows", [1, 7, aggregate.PASS_ROWS])
    def test_bad_image_rejected_in_any_pass(self, small_index, pass_rows):
        tree = small_index.tree
        model = train_hashing(list(small_index.vlads.values()), "shared", nbits=tree.num_vlad_centers * 4, seed=3)
        good = np.ones((3, tree.dim))
        nan = np.ones((2, tree.dim))
        nan[1, 0] = np.nan
        with mock.patch.object(aggregate, "PASS_ROWS", pass_rows):
            with pytest.raises(ValueError, match="nonempty"):
                build_index(tree, model, {"a": good, "b": np.empty((0, tree.dim)), "c": good})
            for bad in (nan, np.full((1, tree.dim), np.inf)):
                with pytest.raises(ValueError, match="finite"):
                    build_index(tree, model, {"a": good, "b": bad, "c": good})


class TestScanErrors:
    def test_rank_hamming_rejects_other_code_length(self, small_index):
        # Same number of packed bytes, so only the bit count tells them apart.
        query = BinaryCode.from_bits(np.zeros(small_index.nbits - 2, dtype=np.uint8))
        assert query.packed.shape == small_index.codes[small_index.ids[0]].packed.shape
        with pytest.raises(ValueError, match="bits"):
            rank_hamming(small_index, query)

    def test_rank_gps_rejects_images_without_gps(self, small_index):
        ids = list(small_index.ids)
        idx = index_of(
            tree=small_index.tree, ids=ids,
            gps={i: small_index.gps[i] for i in ids[1:]},
        )
        with pytest.raises(ValueError, match="images without GPS"):
            rank_gps(idx, (40.0, -74.0))

    def test_vlad_scans_reject_other_shapes(self, small_index):
        n, d = small_index.vlads[small_index.ids[0]].shape
        with_pq = index_of(
            tree=small_index.tree, ids=small_index.ids, vlads=dict(small_index.vlads)
        )
        attach_pq(with_pq, train_pq(with_pq.ranking_vlad_matrix(), n, 2, seed=1))
        # (1, 1) would broadcast, (d, n) has the stored flat length but other
        # sub-vectors, and (n + 1, d) fails to broadcast.
        for shape in ((1, 1), (d, n), (n + 1, d)):
            query = np.ones(shape)
            for rank in (rank_vlad, rank_adc):
                with pytest.raises(ValueError) as err:
                    rank(with_pq, query)
                assert str(shape) in str(err.value) and str((n, d)) in str(err.value)

    def test_rank_bow_rejects_other_vocabulary(self, small_index):
        m = small_index.tree.num_leaves
        for size in (m - 1, m + 1):
            with pytest.raises(ValueError):
                rank_bow(small_index, histogram_of({0: 1.0}, size))


class TestTieBreak:
    """Images with identical descriptors tie in every mode; ties go by id."""

    GROUPS = {"a": ["im7", "im2", "im9"], "b": ["im4", "im1"]}

    @pytest.fixture(scope="class")
    def tied(self, small_index):
        tree = small_index.tree
        rng = np.random.default_rng(277)
        leafs = np.asarray(tree.leaf_centers, dtype=np.float64)
        shared = {g: leafs[rng.integers(0, tree.num_leaves, size=20)] for g in self.GROUPS}
        descriptors, gps = {}, {}
        # Inserted out of id order, the tied groups interleaved with singles.
        for k, image_id in enumerate(["im7", "im5", "im4", "im2", "im8", "im9", "im1", "im3"]):
            group = next((g for g, members in self.GROUPS.items() if image_id in members), None)
            descriptors[image_id] = (
                shared[group] if group else leafs[rng.integers(0, tree.num_leaves, size=20)]
            )
            gps[image_id] = {"a": (10.0, 20.0), "b": (10.5, 20.5), None: (11.0 + k, 21.0)}[group]
        vlads = [compute_vlad(tree, X) for X in descriptors.values()]
        model = train_hashing(vlads, "shared", nbits=tree.num_vlad_centers * 4, seed=5)
        idx = build_index(tree, model, descriptors, gps=gps)
        attach_pq(idx, train_pq(idx.ranking_vlad_matrix(), 3, 2, seed=1))
        return idx

    @pytest.mark.parametrize("mode", ["bow", "vlad", "hamming", "adc", "gps"])
    def test_tied_images_in_ascending_id_order(self, tied, mode):
        probe = "im7"
        rank = {"bow": rank_bow, "vlad": rank_vlad, "hamming": rank_hamming, "adc": rank_adc,
                "gps": rank_gps}[mode]
        query = {"bow": tied.bows, "vlad": tied.vlads, "hamming": tied.codes, "adc": tied.vlads,
                 "gps": tied.gps}[mode][probe]
        ranking = rank(tied, query)
        for dropped in (None, "im2"):
            r = ranking if dropped is None else ranking.drop(dropped)
            if dropped is not None:
                assert r.entries == tuple(e for e in ranking.entries if e[0] != dropped)
            ids = r.ids()
            for members in self.GROUPS.values():
                kept = sorted(m for m in members if m != dropped)
                at = [ids.index(m) for m in kept]
                # The members tie and come out in id order (another image
                # may tie with them too, as short codes can collide).
                assert len({r.entries[k][1] for k in at}) == 1
                assert at == sorted(at)
            assert r.entries == tuple(sorted(r.entries, key=lambda e: (e[1], e[0])))


def dyadic_histogram(vocab_size):
    """Integer counts summing to a power of two: every L1-normalized weight,
    and every L1 distance between two such histograms, is exact in float64."""
    return st.integers(0, 5).flatmap(
        lambda p: st.lists(st.integers(0, vocab_size - 1), min_size=2**p, max_size=2**p)
    ).map(lambda words: histogram_of(
        {w: float(words.count(w)) for w in sorted(set(words))}, vocab_size
    ))


def float_histogram(vocab_size):
    return st.dictionaries(
        st.integers(0, vocab_size - 1), st.floats(1e-3, 1e3), min_size=1, max_size=vocab_size
    ).map(lambda counts: histogram_of(counts, vocab_size))


def with_duplicates(distinct, pick_query):
    """A database of 1-12 images drawn from a few distinct values, so equal
    values (and ties) are common, and a query that is one of them or fresh."""
    return st.tuples(
        st.lists(distinct, min_size=1, max_size=4).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12)
        ),
        st.one_of(distinct, pick_query),
        st.permutations(range(12)),
    )


def ids_for(values, order):
    # Ids inserted out of sorted order.
    return {f"im{order[k]:02d}": v for k, v in enumerate(values)}


class TestScanProperties:
    """The vectorized scans against the scalar reference functions."""

    VOCAB = 9  # leaves of small_index's tree

    @settings(max_examples=100, deadline=None)
    @given(data=with_duplicates(dyadic_histogram(VOCAB), st.none()))
    def test_rank_bow_exact_on_dyadic_histograms(self, small_index, data):
        values, query, order = data
        bows = ids_for(values, order)
        query = query or next(iter(bows.values()))
        idx = index_of(tree=small_index.tree, ids=list(bows), bows=bows)
        ranking = rank_bow(idx, query)
        want = sorted(
            ((i, l1_histogram_distance(query, h)) for i, h in bows.items()), key=lambda e: (e[1], e[0])
        )
        assert ranking.entries == tuple(want)

    @settings(max_examples=100, deadline=None)
    @given(data=with_duplicates(float_histogram(VOCAB), st.none()))
    def test_rank_bow_within_tolerance_on_float_histograms(self, small_index, data):
        values, query, order = data
        bows = ids_for(values, order)
        query = query or next(iter(bows.values()))
        idx = index_of(tree=small_index.tree, ids=list(bows), bows=bows)
        ranking = rank_bow(idx, query)
        assert sorted(ranking.ids()) == sorted(bows)
        for image_id, score in ranking.entries:
            assert score == pytest.approx(l1_histogram_distance(query, bows[image_id]), abs=1e-12)
        # (score, id) order, so equal histograms sit together in id order.
        assert ranking.entries == tuple(sorted(ranking.entries, key=lambda e: (e[1], e[0])))
        for a, b in zip(ranking.entries, ranking.entries[1:]):
            if bows[a[0]].counts == bows[b[0]].counts:
                assert a[1] == b[1] and a[0] < b[0]

    @settings(max_examples=100, deadline=None)
    @given(
        nbits=st.integers(1, 40),
        data=st.data(),
    )
    def test_rank_hamming_matches_reference(self, small_index, nbits, data):
        code = st.lists(st.integers(0, 1), min_size=nbits, max_size=nbits).map(
            lambda bits: BinaryCode.from_bits(np.array(bits, dtype=np.uint8))
        )
        values, query, order = data.draw(with_duplicates(code, st.none()))
        codes = ids_for(values, order)
        query = query or next(iter(codes.values()))
        idx = index_of(tree=small_index.tree, ids=list(codes), codes=codes)
        ranking = rank_hamming(idx, query)
        want = sorted(
            ((i, float(hamming_distance(query, c))) for i, c in codes.items()), key=lambda e: (e[1], e[0])
        )
        assert ranking.entries == tuple(want)
