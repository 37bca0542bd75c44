import math
from collections import Counter

import numpy as np
import pytest

from dehash.aggregate import compute_bow
from dehash.dataset import (
    ManifestEntry,
    SyntheticSpec,
    ingest_dataset,
    read_manifest,
    simulate_gps,
    synthesize_dataset,
    training_blob,
    write_manifest,
)
from dehash.formats import EARTH_RADIUS_M, save_descriptors
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

    @pytest.mark.parametrize("lat, lon", [("45", "-"), ("-", "7")])
    def test_gps_with_one_coordinate_rejected(self, tmp_path, lat, lon):
        # Read as "no GPS" before: a gps cue or mode would then drop the image.
        (tmp_path / "m.tsv").write_text(f"a\ta.desc\t45\t7\t-\t-\nb\tb.desc\t{lat}\t{lon}\t-\t-\n")
        with pytest.raises(ValueError, match="m.tsv:2: .*one coordinate"):
            read_manifest(tmp_path / "m.tsv")

    @pytest.mark.parametrize("cat", ["x", "1.5", "3e2", " 3", "+3"])
    def test_non_integer_category_rejected(self, tmp_path, cat):
        (tmp_path / "m.tsv").write_text(f"a\ta.desc\t-\t-\t0\t-\nb\tb.desc\t-\t-\t{cat}\t-\n")
        with pytest.raises(ValueError, match="m.tsv:2: category"):
            read_manifest(tmp_path / "m.tsv")

    @pytest.mark.parametrize("cat", ["-1", "4294967296"])
    def test_category_outside_uint32_rejected(self, tmp_path, cat):
        # The query payload carries the category as uint32.
        (tmp_path / "m.tsv").write_text(f"a\ta.desc\t-\t-\t0\t-\nb\tb.desc\t-\t-\t{cat}\t-\n")
        with pytest.raises(ValueError, match="m.tsv:2: category"):
            read_manifest(tmp_path / "m.tsv")

    def test_category_edges_accepted(self, tmp_path):
        (tmp_path / "m.tsv").write_text("a\ta.desc\t-\t-\t0\t-\nb\tb.desc\t-\t-\t4294967295\t-\n")
        assert [e.category for e in read_manifest(tmp_path / "m.tsv")] == [0, 2**32 - 1]

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
    def test_zero_noise_hits_leaf_centers(self, tree):
        ds = synthesize_dataset(small_spec(), tree)
        leafs = np.asarray(tree.leaf_centers)
        for image_id in ds.ids[:5]:
            X = ds.descriptors[image_id]
            d2 = ((X[:, None, :] - leafs[None, :, :]) ** 2).sum(axis=2)
            assert float(d2.min(axis=1).max()) == 0.0

    def test_bow_matches_sampled_multiset(self, tree):
        # Generator bookkeeping oracle: with zero noise, quantization returns
        # exactly the words the generator drew.
        ds = synthesize_dataset(small_spec(), tree)
        for image_id, X in ds.descriptors.items():
            got = compute_bow(tree, X)
            want = ds.truth[image_id]
            assert Counter({t: int(c) for t, c in got.counts.items()}) == want

    def test_deterministic_files(self, tree, tmp_path):
        a = synthesize_dataset(small_spec(), tree, tmp_path / "a")
        synthesize_dataset(small_spec(), tree, tmp_path / "b")
        ma = (tmp_path / "a" / "manifest.tsv").read_text()
        mb = (tmp_path / "b" / "manifest.tsv").read_text()
        assert ma == mb
        for entry in a.entries:
            pa = (tmp_path / "a" / entry.descriptor_path).read_bytes()
            pb = (tmp_path / "b" / entry.descriptor_path).read_bytes()
            assert pa == pb

    def test_category_pools_disjoint(self, tree):
        ds = synthesize_dataset(small_spec(num_categories=3), tree)
        seen = set()
        for pool in ds.category_pools:
            pool_set = set(pool.tolist())
            assert not pool_set & seen
            seen |= pool_set

    def test_groups_share_word_support(self, tree):
        ds = synthesize_dataset(small_spec(), tree)
        for members in ds.groups:
            supports = [frozenset(ds.truth[m]) for m in members]
            union = frozenset().union(*supports)
            for s in supports:
                assert s <= union
            assert len(union) <= small_spec().words_per_group[1]

    def test_relevance_is_symmetric_group_membership(self, tree):
        ds = synthesize_dataset(small_spec(), tree)
        rel = {e.image_id: set(e.relevant_ids) for e in ds.entries}
        for members in ds.groups:
            for m in members:
                assert rel[m] == set(members) - {m}

    def test_distractors_have_no_relevance(self, tree):
        ds = synthesize_dataset(small_spec(), tree)
        grouped = set().union(*map(set, ds.groups))
        lonely = [e for e in ds.entries if e.image_id not in grouped]
        assert lonely  # distractor_fraction 0.1 of 40 images
        for e in lonely:
            assert e.relevant_ids == ()

    def test_all_images_carry_gps_and_category(self, tree):
        ds = synthesize_dataset(small_spec(), tree)
        for e in ds.entries:
            assert e.gps is not None
            assert e.category is not None

    def test_more_categories_than_words_rejected(self, tree):
        with pytest.raises(ValueError):
            synthesize_dataset(small_spec(num_categories=tree.num_leaves + 1), tree)

    @pytest.mark.parametrize(
        "spec", [small_spec(), small_spec(noise_std=0.2, query_noise_std=0.1)], ids=["exact", "noisy"]
    )
    def test_in_memory_dataset_equals_its_files(self, tree, tmp_path, spec):
        # A run draws its dataset in memory; it must be what ingest_dataset
        # reads back from the files: the same entries, float32 descriptors,
        # and each GPS fix bit for bit the value its 12-digit manifest text
        # reads back as (an unrounded fix differs in its last bits).
        ds = synthesize_dataset(spec, tree, tmp_path)
        loaded = ingest_dataset(tmp_path / "manifest.tsv")
        assert ds.entries == loaded.entries and ds.dim == loaded.dim
        for mine, theirs in zip(ds.entries, loaded.entries):
            assert np.array(mine.gps).tobytes() == np.array(theirs.gps).tobytes()
        assert list(ds.descriptors) == list(loaded.descriptors)
        for image_id, X in loaded.descriptors.items():
            assert ds.descriptors[image_id].dtype == X.dtype == np.float32
            assert np.array_equal(ds.descriptors[image_id], X)
        # Writing the files draws nothing: without out_dir the data are the same.
        memory = synthesize_dataset(spec, tree)
        assert memory.entries == ds.entries and memory.truth == ds.truth
        assert all(np.array_equal(memory.descriptors[i], X) for i, X in ds.descriptors.items())


    def test_clusters_across_the_antimeridian_wrap(self, tree, tmp_path):
        # The category clusters reach past longitude 180; their fixes wrap to
        # -180 and on, and the manifest reads them back.
        ds = synthesize_dataset(SyntheticSpec(gps_base=(0.0, 179.99), num_images=50), tree, tmp_path)
        lons = [e.gps[1] for e in ds.entries]
        assert min(lons) < -179.9 and max(lons) > 179.9
        assert ingest_dataset(tmp_path / "manifest.tsv").entries == ds.entries


class TestSpecValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_images", 0),
            ("group_size", 0),
            ("num_categories", 0),
            ("descriptors_per_image", (0, 0)),
            ("descriptors_per_image", (9, 8)),
            ("words_per_group", (0, 4)),
            ("words_per_group", (5, 4)),
            ("support_fraction", (-0.1, 0.5)),
            ("support_fraction", (0.5, 1.5)),
            ("support_fraction", (0.9, 0.8)),
            ("gps_base", (95.0, 7.0)),
            ("gps_base", (45.0, -180.5)),
            ("gps_base", (float("nan"), 7.0)),
            ("gps_base", (89.99, 7.0)),  # the category clusters reach past a pole
            ("gps_base", (-89.99, 7.0)),
        ],
    )
    def test_bad_value_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            SyntheticSpec(**{field: value})

    def test_clusters_near_a_pole_accepted(self, tree):
        # Rings that end about 1 km short of either pole, 20 noise sigmas.
        radius = SyntheticSpec().gps_cluster_km * 1000.0 / 111_320.0
        for lat in (90.0 - radius - 0.01, -90.0 + radius + 0.01):
            ds = synthesize_dataset(SyntheticSpec(gps_base=(lat, 7.0), num_images=20), tree)
            assert all(abs(e.gps[0]) < 90.0 and abs(e.gps[1]) <= 180.0 for e in ds.entries)

    @pytest.mark.parametrize("pole", [90.0, -90.0])
    def test_clusters_reaching_a_pole(self, tree, pole, tmp_path):
        # The ring's outer cluster lies on the pole itself, so noise pushes
        # fixes past it: they come back over the pole on the opposite
        # meridian, and the manifest reads every fix back.
        radius = SyntheticSpec().gps_cluster_km * 1000.0 / 111_320.0
        base = (math.copysign(90.0 - radius, pole), 7.0)
        ds = synthesize_dataset(SyntheticSpec(gps_base=base, num_images=50), tree, tmp_path)
        fixes = [e.gps for e in ds.entries]
        assert all(abs(lat) <= 90.0 and -180.0 <= lon <= 180.0 for lat, lon in fixes)
        assert any(lon == -173.0 for _, lon in fixes)
        assert ingest_dataset(tmp_path / "manifest.tsv").entries == ds.entries

    def test_edge_values_accepted(self, tree):
        spec = SyntheticSpec(
            num_images=1, group_size=1, num_categories=1, descriptors_per_image=(1, 1),
            words_per_group=(1, 1), support_fraction=(0.0, 1.0),
        )
        ds = synthesize_dataset(spec, tree)
        assert ds.ids == ["img_0"] and len(ds.descriptors["img_0"]) == 1


class TestSimulateGps:
    @pytest.mark.parametrize("seed", range(8))
    def test_fixes_at_a_pole(self, seed):
        # No longitude step at the pole itself; a fix pushed past it is
        # reflected onto the opposite meridian.
        dy = np.random.default_rng(seed).normal(0.0, 50.0, size=2)[0]
        for pole in (90.0, -90.0):
            lat, lon = simulate_gps((pole, 7.0), 50.0, seed)
            crossed = dy * pole > 0.0
            assert lon == (-173.0 if crossed else 7.0)
            assert math.copysign(1.0, lat) == math.copysign(1.0, pole)
            assert abs(lat) == pytest.approx(90.0 - abs(math.degrees(dy / EARTH_RADIUS_M)), abs=1e-12)

    @pytest.mark.parametrize("lon", [-180.0, 0.0, 179.5, 180.0])
    def test_longitude_wraps_whole_turns(self, lon):
        # Next to a pole the tangent-plane step spans many turns of longitude.
        for seed in range(8):
            lat, got = simulate_gps((90.0 - 1e-12, lon), 50.0, seed)
            assert abs(lat) <= 90.0 and -180.0 <= got <= 180.0


class TestTrainingBlob:
    def test_deterministic(self):
        a = training_blob(8, 500, 4, seed=7)
        b = training_blob(8, 500, 4, seed=7)
        assert np.array_equal(a, b)

    def test_shape(self):
        assert training_blob(5, 321, 3, seed=1).shape == (321, 5)
