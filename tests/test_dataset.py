from collections import Counter

import numpy as np
import pytest

from dehash.aggregate import compute_bow
from dehash.dataset import (
    ManifestEntry,
    SyntheticSpec,
    ingest_dataset,
    read_manifest,
    synthesize_dataset,
    training_blob,
    write_manifest,
)
from dehash.formats import save_descriptors
from dehash.vocab import train_vocabulary


@pytest.fixture(scope="module")
def tree():
    return train_vocabulary(training_blob(6, 3000, 4, seed=301), 4, 2, 1, seed=301)


def small_spec(**overrides):
    defaults = dict(
        num_images=40,
        descriptors_per_image=(10, 20),
        noise_std=0.0,
        query_noise_std=0.0,
        num_categories=2,
        group_size=4,
        words_per_group=(4, 7),
        distractor_fraction=0.1,
        seed=5,
    )
    defaults.update(overrides)
    return SyntheticSpec(**defaults)


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [
            ManifestEntry("a", "a.desc", (1.5, -2.25), 3, ("b", "c")),
            ManifestEntry("b", "b.desc", None, None, ()),
            ManifestEntry("c", "c.desc", None, 0, ("a",)),
        ]
        write_manifest(tmp_path / "m.tsv", entries)
        assert read_manifest(tmp_path / "m.tsv") == entries

    def test_empty_manifest_rejected(self, tmp_path):
        (tmp_path / "m.tsv").write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            read_manifest(tmp_path / "m.tsv")

    @pytest.mark.parametrize("lat, lon", [("nan", "2.0"), ("95.0", "400"), ("45", "inf"),
                                          ("-90.5", "7"), ("45", "-180.25"), ("north", "7")])
    def test_gps_outside_the_globe_rejected(self, tmp_path, lat, lon):
        (tmp_path / "m.tsv").write_text(f"a\ta.desc\t45\t7\t-\t-\nb\tb.desc\t{lat}\t{lon}\t-\t-\n")
        with pytest.raises(ValueError, match="m.tsv:2: "):
            read_manifest(tmp_path / "m.tsv")

    def test_gps_on_the_edges_accepted(self, tmp_path):
        (tmp_path / "m.tsv").write_text("a\ta.desc\t90\t-180\t-\t-\nb\tb.desc\t-90\t180\t-\t-\n")
        assert [e.gps for e in read_manifest(tmp_path / "m.tsv")] == [(90.0, -180.0), (-90.0, 180.0)]

    def test_malformed_line_reports_position(self, tmp_path):
        (tmp_path / "m.tsv").write_text("a\tb\n")
        with pytest.raises(ValueError, match="m.tsv:1"):
            read_manifest(tmp_path / "m.tsv")

    def test_repeated_image_id_rejected(self, tmp_path):
        # The index keys every column by id, so a second line for an id
        # would silently replace the first image's descriptors.
        entries = [ManifestEntry(i, f"{i}.desc", None, None, ()) for i in ("a", "b", "a")]
        write_manifest(tmp_path / "m.tsv", entries)
        with pytest.raises(ValueError, match="m.tsv:3.*'a'"):
            read_manifest(tmp_path / "m.tsv")

    def test_relevant_id_outside_the_manifest_rejected(self, tmp_path):
        # "ghost" can never be retrieved, so a query listing it loses AP silently.
        entries = [
            ManifestEntry("a", "a.desc", None, None, ("b", "ghost")),
            ManifestEntry("b", "b.desc", None, None, ("a",)),
        ]
        write_manifest(tmp_path / "m.tsv", entries)
        with pytest.raises(ValueError, match="m.tsv:1.*'ghost'"):
            read_manifest(tmp_path / "m.tsv")

    def test_image_relevant_to_itself_rejected(self, tmp_path):
        entries = [
            ManifestEntry("a", "a.desc", None, None, ()),
            ManifestEntry("b", "b.desc", None, None, ("a", "b")),
        ]
        write_manifest(tmp_path / "m.tsv", entries)
        with pytest.raises(ValueError, match="m.tsv:2.*'b'.*itself"):
            read_manifest(tmp_path / "m.tsv")


class TestIngest:
    def test_loads_files_and_metadata(self, tmp_path):
        rng = np.random.default_rng(303)
        for name in ("x", "y", "z"):
            save_descriptors(tmp_path / f"{name}.desc", rng.normal(size=(7, 4)).astype(np.float32))
        write_manifest(
            tmp_path / "m.tsv",
            [
                ManifestEntry("x", "x.desc", (1.0, 2.0), 0, ("y",)),
                ManifestEntry("y", "y.desc", (1.1, 2.1), 0, ("x",)),
                ManifestEntry("z", "z.desc", None, 1, ()),
            ],
        )
        ds = ingest_dataset(tmp_path / "m.tsv")
        assert ds.ids == ["x", "y", "z"]
        assert ds.dim == 4
        assert ds.gps_by_id() == {"x": (1.0, 2.0), "y": (1.1, 2.1)}
        assert ds.categories_by_id() == {"x": 0, "y": 0, "z": 1}
        assert ds.relevance_by_id() == {"x": {"y"}, "y": {"x"}}

    def test_dimension_mismatch_detected(self, tmp_path):
        save_descriptors(tmp_path / "x.desc", np.ones((3, 4), dtype=np.float32))
        save_descriptors(tmp_path / "y.desc", np.ones((3, 5), dtype=np.float32))
        write_manifest(
            tmp_path / "m.tsv",
            [ManifestEntry("x", "x.desc", None, None, ()), ManifestEntry("y", "y.desc", None, None, ())],
        )
        with pytest.raises(ValueError, match="dim"):
            ingest_dataset(tmp_path / "m.tsv")

    def test_corrupt_magic_names_file(self, tmp_path):
        (tmp_path / "x.desc").write_bytes(b"BADMAGIC" + b"\x00" * 8)
        write_manifest(tmp_path / "m.tsv", [ManifestEntry("x", "x.desc", None, None, ())])
        with pytest.raises(ValueError, match="x.desc"):
            ingest_dataset(tmp_path / "m.tsv")


class TestSynthesize:
    def test_zero_noise_hits_leaf_centers(self, tree, tmp_path):
        ds = synthesize_dataset(small_spec(), tree, tmp_path)
        loaded = ingest_dataset(ds.manifest_path)
        leafs = np.asarray(tree.leaf_centers)
        for image_id in list(loaded.descriptors)[:5]:
            X = loaded.descriptors[image_id]
            d2 = ((X[:, None, :] - leafs[None, :, :]) ** 2).sum(axis=2)
            assert float(d2.min(axis=1).max()) == 0.0

    def test_bow_matches_sampled_multiset(self, tree, tmp_path):
        # Generator bookkeeping oracle: with zero noise, quantization returns
        # exactly the words the generator drew.
        ds = synthesize_dataset(small_spec(), tree, tmp_path)
        loaded = ingest_dataset(ds.manifest_path)
        for image_id, X in loaded.descriptors.items():
            got = compute_bow(tree, X)
            want = ds.truth[image_id]
            assert Counter({t: int(c) for t, c in got.counts.items()}) == want

    def test_deterministic_files(self, tree, tmp_path):
        a = synthesize_dataset(small_spec(), tree, tmp_path / "a")
        b = synthesize_dataset(small_spec(), tree, tmp_path / "b")
        ma = a.manifest_path.read_text()
        mb = b.manifest_path.read_text()
        assert ma == mb
        for entry in a.entries:
            pa = (tmp_path / "a" / entry.descriptor_path).read_bytes()
            pb = (tmp_path / "b" / entry.descriptor_path).read_bytes()
            assert pa == pb

    def test_category_pools_disjoint(self, tree, tmp_path):
        ds = synthesize_dataset(small_spec(num_categories=3), tree, tmp_path)
        seen = set()
        for pool in ds.category_pools:
            pool_set = set(pool.tolist())
            assert not pool_set & seen
            seen |= pool_set

    def test_groups_share_word_support(self, tree, tmp_path):
        ds = synthesize_dataset(small_spec(), tree, tmp_path)
        for members in ds.groups:
            supports = [frozenset(ds.truth[m]) for m in members]
            union = frozenset().union(*supports)
            for s in supports:
                assert s <= union
            assert len(union) <= small_spec().words_per_group[1]

    def test_relevance_is_symmetric_group_membership(self, tree, tmp_path):
        ds = synthesize_dataset(small_spec(), tree, tmp_path)
        rel = {e.image_id: set(e.relevant_ids) for e in ds.entries}
        for members in ds.groups:
            for m in members:
                assert rel[m] == set(members) - {m}

    def test_distractors_have_no_relevance(self, tree, tmp_path):
        ds = synthesize_dataset(small_spec(), tree, tmp_path)
        grouped = set().union(*map(set, ds.groups))
        lonely = [e for e in ds.entries if e.image_id not in grouped]
        assert lonely  # distractor_fraction 0.1 of 40 images
        for e in lonely:
            assert e.relevant_ids == ()

    def test_all_images_carry_gps_and_category(self, tree, tmp_path):
        ds = synthesize_dataset(small_spec(), tree, tmp_path)
        for e in ds.entries:
            assert e.gps is not None
            assert e.category is not None

    def test_more_categories_than_words_rejected(self, tree, tmp_path):
        with pytest.raises(ValueError):
            synthesize_dataset(
                small_spec(num_categories=tree.num_leaves + 1), tree, tmp_path
            )


class TestTrainingBlob:
    def test_deterministic(self):
        a = training_blob(8, 500, 4, seed=7)
        b = training_blob(8, 500, 4, seed=7)
        assert np.array_equal(a, b)

    def test_shape(self):
        assert training_blob(5, 321, 3, seed=1).shape == (321, 5)
