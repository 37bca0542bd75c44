import dataclasses
import hashlib
import json
from unittest import mock

import numpy as np
import pytest

from dehash import aggregate, pipeline
from dehash.aggregate import aggregate_images, compute_bow, compute_vlad
from dehash.dataset import SyntheticSpec, ingest_dataset, synthesize_dataset
from dehash.formats import save_model
from dehash.hashing import approximate_vlad, encode, train_hashing
from dehash.pipeline import (
    ALL_MODES,
    ExperimentConfig,
    HashParams,
    PQParams,
    ReconParams,
    StageError,
    TreeParams,
    config_from_dict,
    config_hash,
    config_to_dict,
    memory_table,
    rank_query,
    run_pipeline,
    summarize_report,
    train_tree,
)
from dehash.reconstruct import reconstruct_bow
from dehash.retrieval import Ranking, rank_bow, recall_at
from dehash.vocab import _assign_rows


def tiny_config(**overrides):
    defaults = dict(
        tree=TreeParams(training_points=1500),
        hash=HashParams(variant="joint", nbits=16),
        pq=PQParams(subvectors=8, bits=4),
        synthetic=SyntheticSpec(
            num_images=80, descriptors_per_image=(40, 80), group_size=4, seed=3
        ),
        modes=("bow", "vlad", "hamming", "recon"),
        num_queries=5,
        recall_ns=(1, 5),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_round_trips_through_json(self):
        config = tiny_config()
        data = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(data) == config

    def test_hash_changes_with_content(self):
        a = tiny_config()
        b = tiny_config(num_queries=6)
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(tiny_config())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="modes"):
            tiny_config(modes=("bow", "something",))

    def test_manifest_and_synthetic_exclusive(self):
        # A config that loads a manifest must not carry a spec it ignores
        # into its report and config_hash.
        with pytest.raises(ValueError, match="manifest and synthetic"):
            tiny_config(manifest="data/manifest.tsv")
        assert tiny_config(manifest="data/manifest.tsv", synthetic=None).synthetic is None

    def test_unknown_hash_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant 'rp'"):
            ExperimentConfig(hash=HashParams(variant="rp"))
        with pytest.raises(ValueError, match="unknown variant 'rp'"):
            config_from_dict({"hash": {"variant": "rp"}})

    def test_every_tuple_field_round_trips(self):
        config = ExperimentConfig(
            recon=ReconParams(cues=("category", "binary")),
            modes=("vlad", "bow", "recon-cads"),
            recall_ns=(2, 3, 7),
            synthetic=SyntheticSpec(
                descriptors_per_image=(30, 60),
                words_per_group=(8, 16),
                support_fraction=(0.6, 0.9),
                gps_base=(40.5, -3.25),
            ),
            lambda_sweep=(0.005, 0.05),
        )
        sections = (config, config.recon, config.synthetic)
        # every tuple-valued field is set away from its default, so none can
        # round-trip by falling back to the default
        for section in sections:
            for f in dataclasses.fields(section):
                if isinstance(getattr(section, f.name), tuple):
                    default = f.default_factory() if f.default is dataclasses.MISSING else f.default
                    assert getattr(section, f.name) != default, f.name
        loaded = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert loaded == config
        assert hash(loaded) == hash(config)
        for section, back in zip(sections, (loaded, loaded.recon, loaded.synthetic)):
            for f in dataclasses.fields(section):
                if isinstance(getattr(section, f.name), tuple):
                    assert isinstance(getattr(back, f.name), tuple), f.name

    def test_default_config_round_trips(self):
        config = ExperimentConfig()
        assert config.synthetic is None
        loaded = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert loaded == config
        assert hash(loaded) == hash(config)

    def test_unknown_keys_rejected(self):
        with pytest.raises(TypeError, match="bogus"):
            config_from_dict({"tree": {"bogus": 1}})
        with pytest.raises(TypeError, match="bogus"):
            config_from_dict({"synthetic": {"bogus": 1}})
        with pytest.raises(TypeError, match="bogus"):
            config_from_dict({"bogus": 1})

    def test_sections_must_be_objects(self):
        for section in (5, None):
            with pytest.raises(TypeError, match="TreeParams needs a JSON object"):
                config_from_dict({"tree": section})
        with pytest.raises(TypeError, match="ExperimentConfig needs a JSON object"):
            config_from_dict([1])
        assert config_from_dict({"synthetic": None}).synthetic is None

    def test_unknown_mode_rejected_on_load(self):
        with pytest.raises(ValueError, match="modes"):
            config_from_dict({"modes": ["bow", "something"]})

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("lam", -0.01, "lam"),
            ("lam", float("nan"), "lam"),
            ("alpha", 0.0, "alpha"),
            ("alpha", 1.0, "alpha"),
            ("alpha", 1.5, "alpha"),
            ("top_r_binary", 0, "top_r_binary"),
            ("top_r_gps", 0, "top_r_gps"),
            ("top_r_pseudo", -1, "top_r_pseudo"),
            ("cues", ("gps", "wifi"), "cues"),
            ("cues", (), "cues"),
            ("combine", "majority", "combine"),
            ("prior_source", "gps", "prior source"),
            ("tol", float("nan"), "tol"),
            ("tol", -1e-6, "tol"),
            ("max_iter", 0, "max_iter"),
            ("lam", float("inf"), "lam"),
        ],
    )
    def test_bad_recon_params_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            ReconParams(**{field: value})
        with pytest.raises(ValueError, match=match):
            config_from_dict({"recon": {field: value}})

    @pytest.mark.parametrize(
        "data, match",
        [
            ({"recall_ns": [-1]}, "recall_ns"),
            ({"recall_ns": [1, 0, 5]}, "recall_ns"),
            ({"num_queries": 0}, "num_queries"),
            ({"sweep_queries": 0}, "sweep_queries"),
            ({"pq": {"bits": 17}}, "bits"),
            ({"pq": {"bits": 0}}, "bits"),
            ({"pq": {"subvectors": 0}}, "subvectors"),
            # No model of these exists over the default D = 16, N = 8.
            ({"hash": {"variant": "sign", "nbits": 32}}, "one bit per component"),
            ({"hash": {"variant": "shared", "rotate": True}}, "rotation"),
            ({"hash": {"nbits": 0}}, "K >= 1"),
            ({"lambda_sweep": [0.01, -0.1]}, "lambda_sweep"),
            ({"lambda_sweep": [float("nan")]}, "lambda_sweep"),
            ({"lambda_sweep": [float("inf")]}, "lambda_sweep"),
        ],
    )
    def test_bad_config_values_rejected(self, data, match):
        with pytest.raises(ValueError, match=match):
            config_from_dict(data)
        with pytest.raises(ValueError, match=match):
            if "pq" in data:
                PQParams(**data["pq"])
            elif "hash" in data:
                ExperimentConfig(hash=HashParams(**data["hash"]))
            else:
                ExperimentConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})

    def test_pq_subvectors_must_divide_the_vlad_width_for_adc(self):
        # D * N = 16 * 8 = 128 on the default tree, which 7 sub-vectors do not divide.
        with pytest.raises(ValueError, match=r"pq\.subvectors=7 must divide the VLAD width 128"):
            config_from_dict({"pq": {"subvectors": 7}})
        # Without adc no codebooks are trained, so the split does not matter.
        assert config_from_dict({"pq": {"subvectors": 7}, "modes": ["bow", "hamming"]}).pq.subvectors == 7

    @pytest.mark.parametrize(
        "tree, match",
        [
            ({"vlad_level": 4, "levels": 3}, "vlad_level must satisfy"),
            ({"vlad_level": 0}, "vlad_level must satisfy"),
            ({"vlad_level": -1}, "vlad_level must satisfy"),
            ({"branch": 0}, "branch must be >= 2"),
            ({"branch": 1}, "branch must be >= 2"),
        ],
    )
    def test_bad_tree_shape_rejected(self, tree, match):
        # The tree's own rule names the tree field, before any model check.
        with pytest.raises(ValueError, match=match):
            config_from_dict({"tree": tree})
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(tree=TreeParams(**tree))

    def test_recall_at_rejects_n_below_one(self):
        ranking = Ranking((("a", 0.0), ("b", 1.0)))
        for n in (0, -1):
            with pytest.raises(ValueError, match="recall"):
                recall_at({"q": ranking}, {"q": "b"}, n)

    def test_valid_recon_params_accepted(self):
        ReconParams(lam=0.0, alpha=0.5, top_r_binary=1, top_r_gps=1, top_r_pseudo=1,
                    cues=("category",), combine="union", prior_source="binary")


class TestMemoryTable:
    def test_matches_closed_forms(self):
        config = tiny_config()
        rows = {r["variant"]: r for r in memory_table(config)}
        d = config.dim
        n = config.tree.branch**config.tree.vlad_level
        k = config.hash.nbits
        tree_bytes = 4 * d * n  # the VLAD level is the first
        assert rows["joint"]["projection_bytes"] == 4 * d * n * k
        assert rows["independent"]["projection_bytes"] == 4 * d * k
        assert rows["shared"]["projection_bytes"] == 4 * d * (k // n)
        assert rows["sign"]["projection_bytes"] == 0 and rows["sign"]["bits"] == d * n
        for row in rows.values():
            assert row["quantizer_bytes"] == tree_bytes
            assert row["mobile_memory_bytes"] == row["projection_bytes"] + tree_bytes
        assert rows["shared"]["mobile_memory_bytes"] < rows["independent"]["mobile_memory_bytes"]
        assert rows["independent"]["mobile_memory_bytes"] < rows["joint"]["mobile_memory_bytes"]
        assert rows["joint"]["transmission_bytes"] == (k + 7) // 8

    def test_bits_the_split_variants_cannot_take_give_no_row(self, tmp_path):
        # 12 bits do not split over N = 8 sub-vectors; the run must still report.
        result = run_pipeline(tiny_config(hash=HashParams(nbits=12), modes=("hamming",)), out_dir=tmp_path)
        assert result.model.nbits == 12
        assert [row["variant"] for row in result.report["memory_table"]] == ["joint", "sign"]


class TestRunPipeline:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("run")
        return run_pipeline(tiny_config(lambda_sweep=(0.01, 0.1)), out_dir=out)

    def test_metric_rows_in_range(self, result):
        assert set(result.report["metrics"]) == {"bow", "vlad", "hamming", "recon"}
        for row in result.report["metrics"].values():
            for value in row.values():
                assert 0.0 <= value <= 1.0

    def test_report_config_reloads(self, result):
        data = json.loads(result.report_path.read_text())
        config = config_from_dict(data["config"])
        assert config_hash(config) == result.report["config_hash"]
        assert config == tiny_config(lambda_sweep=(0.01, 0.1))

    def test_report_written_and_loadable(self, result):
        data = json.loads(result.report_path.read_text())
        assert data["config_hash"] == result.report["config_hash"]
        assert data["num_queries"] == 5

    def test_timings_are_sidecar_not_report(self, result):
        assert "timings" not in result.report
        sidecar = result.report_path.with_suffix("").name + ".timings.txt"
        assert (result.report_path.parent / sidecar).exists()

    def test_out_dir_holds_only_the_report_and_its_sidecar(self, result):
        # The synthesized dataset stays in memory: no descriptor files, no manifest.
        report = result.report_path
        names = sorted(path.name for path in report.parent.iterdir())
        assert names == [report.name, report.with_suffix(".timings.txt").name]

    def test_run_without_out_dir_gives_the_same_report(self, result):
        bare = run_pipeline(tiny_config(lambda_sweep=(0.01, 0.1)))
        assert bare.report_path is None
        assert json.dumps(bare.report, sort_keys=True, indent=2) + "\n" == result.report_path.read_text()

    def test_rankings_exclude_query(self, result):
        for mode_rankings in result.rankings.values():
            for qid, ranking in mode_rankings.items():
                assert qid not in ranking.ids()

    def test_lambda_sweep_rows(self, result):
        lams = [row["lam"] for row in result.report["lambda_sweep"]]
        assert lams == [0.01, 0.1]

    def test_lambda_sweep_counts_equal_per_query_solves(self, result):
        recon = tiny_config().recon
        dataset = result.dataset
        vlads = [compute_vlad(result.tree, dataset.descriptors[q]) for q in result.relevance]
        for row in result.report["lambda_sweep"]:
            words = sum(
                reconstruct_bow(v, result.tree, row["lam"], tol=recon.tol, max_iter=recon.max_iter)
                .histogram.num_words
                for v in vlads
            )
            assert row["reconstructed_vws"] == words

    def test_summary_is_printable(self, result):
        text = summarize_report(result.report)
        assert "mode" in text and "bow" in text

    def test_deterministic_report_bytes(self, tmp_path):
        config = tiny_config()
        a = run_pipeline(config, out_dir=tmp_path / "a")
        b = run_pipeline(config, out_dir=tmp_path / "b")
        assert a.report_path.read_bytes() == b.report_path.read_bytes()

    def test_stage_error_names_stage(self, tmp_path):
        # A tree of a shape no tree has is refused when the config loads, so
        # the stage fails here on an empty training set instead.
        bad = tiny_config(tree=TreeParams(training_points=0))
        with pytest.raises(StageError, match=r"\[train-tree\]"):
            run_pipeline(bad, out_dir=tmp_path)

    def test_database_aggregated_once(self, tmp_path):
        # One aggregation pass feeds both the hashing model and the index; the
        # model is the one train_hashing fits on per-image VLADs in manifest order.
        data = tmp_path / "synth"
        synthesize_dataset(tiny_config().synthetic, train_tree(tiny_config()), data)
        lines = (data / "manifest.tsv").read_text().splitlines()
        # Ids out of ascending order, so the VLAD rows must be gathered back.
        (data / "reversed.tsv").write_text("\n".join(reversed(lines)) + "\n")
        config = tiny_config(modes=("bow", "hamming"), manifest=str(data / "reversed.tsv"), synthetic=None)
        with mock.patch.object(pipeline, "aggregate_images", wraps=aggregate_images) as spy, \
                mock.patch.object(pipeline, "train_hashing", wraps=train_hashing) as train:
            result = run_pipeline(config, out_dir=tmp_path)
        dataset = ingest_dataset(data / "reversed.tsv")
        # The database in one call, then one call per query (rank_query).
        sizes = [len(call.args[1]) for call in spy.call_args_list]
        assert sizes == [len(dataset.ids)] + [1] * config.num_queries
        assert dataset.ids == sorted(dataset.ids, reverse=True)
        vlads = [compute_vlad(result.tree, dataset.descriptors[i]) for i in dataset.ids]
        assert np.array_equal(train.call_args.args[0], np.array(vlads))
        h = config.hash
        save_model(result.model, tmp_path / "run.bin")
        save_model(train_hashing(vlads, h.variant, h.nbits, h.seed, h.rotate), tmp_path / "want.bin")
        assert (tmp_path / "run.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()
        assert result.index.ids == tuple(sorted(dataset.ids))

    def test_too_many_queries_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="queries"):
            run_pipeline(tiny_config(num_queries=10_000), out_dir=tmp_path)


class TestReportDigests:
    """The report bytes of two fixed configs, pinned: every labelled report
    change records its new digests here and in CHANGES.md."""

    CONFIGS = {
        "A": (
            ExperimentConfig(synthetic=SyntheticSpec(num_images=300, seed=0), num_queries=54),
            "927e17f4c47fa56f2731d2b267c9b2c5dce13dd2e097c5eaa9b2ff144799e692",
        ),
        "B": (
            ExperimentConfig(
                recon=ReconParams(cues=("category", "binary"), prior_source="binary", combine="union"),
                synthetic=SyntheticSpec(num_images=200, seed=5),
                num_queries=30,
            ),
            "6bd6244d3ab69aa75200c870d599b8cf8d052453b16fe40af2b416f6d3ae1fff",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_report_bytes_are_pinned(self, name, tmp_path):
        config, want = self.CONFIGS[name]
        result = run_pipeline(config, out_dir=tmp_path)
        rows = {key: result.report[key] for key in ("metrics", "solver")}
        got = hashlib.sha256(result.report_path.read_bytes()).hexdigest()
        assert got == want, f"config {name} report moved:\n{json.dumps(rows, indent=1)}"


class TestSolverReport:
    MODES = ("hamming", "vlad-to-bow", "recon", "recon-cads", "recon-brpk")

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        config = tiny_config(modes=self.MODES)
        out = tmp_path_factory.mktemp("solver")
        return config, run_pipeline(config, out_dir=out / "a"), run_pipeline(config, out_dir=out / "b")

    def test_one_row_per_solver_mode(self, runs):
        _, a, _ = runs
        assert list(a.report["solver"]) == ["vlad-to-bow", "recon", "recon-cads", "recon-brpk"]
        for row in a.report["solver"].values():
            assert set(row) == {"solves", "path_events", "nonconverged"}
            assert row["solves"] > 0
            assert 0 <= row["nonconverged"] <= row["solves"]

    def test_counts_match_the_solves_run(self, runs):
        config, a, _ = runs
        dataset = a.dataset
        for mode in ("vlad-to-bow", "recon"):
            want = {"solves": 0, "path_events": 0, "nonconverged": 0}
            for qid in a.rankings[mode]:
                v = compute_vlad(a.tree, dataset.descriptors[qid])
                if mode == "recon":
                    v = approximate_vlad(a.model, encode(a.model, v))
                result = reconstruct_bow(
                    v, a.tree, config.recon.lam, tol=config.recon.tol, max_iter=config.recon.max_iter
                )
                solved = [r for r in result.reports if not r.skipped]
                want["solves"] += len(solved)
                want["path_events"] += sum(r.sweeps for r in solved)
                want["nonconverged"] += sum(not r.converged for r in solved)
            assert a.report["solver"][mode] == want

    def test_brpk_counts_its_cads_starting_point(self, runs):
        _, a, _ = runs
        assert a.report["solver"]["recon-brpk"] == a.report["solver"]["recon-cads"]

    def test_report_bytes_identical(self, runs):
        _, a, b = runs
        assert a.report_path.read_bytes() == b.report_path.read_bytes()

    def test_summary_lists_solver_rows(self, runs):
        _, a, _ = runs
        assert "nonconverged" in summarize_report(a.report)

    def test_no_solver_modes_no_rows(self, tmp_path):
        result = run_pipeline(tiny_config(modes=("bow", "hamming")), out_dir=tmp_path)
        assert result.report["solver"] == {}


class TestRankQuery:
    def test_pipeline_stores_rank_query_rankings(self, tmp_path):
        # All ten modes (adc attaches PQ): run_pipeline ranks each query
        # exactly as rank_query does, with the query image then dropped.
        config = tiny_config(modes=ALL_MODES)
        result = run_pipeline(config, out_dir=tmp_path)
        dataset = result.dataset
        entry_by_id = {e.image_id: e for e in dataset.entries}
        assert result.index.pq is not None
        # Ranking, dropping, the context cues, BRPK and the metrics all read
        # the arrays: the run builds no (image_id, score) tuples.
        assert all(r._entries is None for rs in result.rankings.values() for r in rs.values())
        for qid in result.relevance:
            entry = entry_by_id[qid]
            ranked = rank_query(
                config, result.index, result.model, dataset.descriptors[qid], qid,
                entry.gps, entry.category,
            )
            assert list(ranked) == list(ALL_MODES)
            for mode, (ranking, _) in ranked.items():
                assert result.rankings[mode][qid] == ranking.drop(qid)

    @pytest.mark.parametrize("prior_source", ["recon", "binary"])
    def test_one_rank_bow_call_per_histogram(self, prior_source):
        # bow, vlad-to-bow, recon, recon-cads and BRPK each rank one
        # histogram; a "recon" prior reuses the recon-cads ranking.
        config = tiny_config(modes=ALL_MODES, recon=ReconParams(prior_source=prior_source))
        result = run_pipeline(config)
        entry_by_id = {e.image_id: e for e in result.dataset.entries}
        for qid in result.relevance:
            entry = entry_by_id[qid]
            with mock.patch.object(pipeline, "rank_bow", wraps=rank_bow) as spy:
                rank_query(
                    config, result.index, result.model, result.dataset.descriptors[qid], qid,
                    entry.gps, entry.category,
                )
            histograms = [call.args[1] for call in spy.call_args_list]
            keys = {(h.words.tobytes(), h.values.tobytes()) for h in histograms}
            assert len(histograms) == len(keys) == 5

    def test_one_aggregation_pass_per_query(self):
        # One coarse search serves the VLAD and, when bow is ranked, the
        # histogram: the rows are assigned once per query either way.
        config = tiny_config(modes=("bow", "vlad", "hamming", "recon-brpk"))
        result = run_pipeline(config)
        dataset = result.dataset
        entry_by_id = {e.image_id: e for e in dataset.entries}
        for modes, leaves in ((config.modes, True), (config.modes[1:], False)):
            for qid in result.relevance:
                entry, descriptors = entry_by_id[qid], dataset.descriptors[qid]
                with mock.patch.object(aggregate, "_assign_rows", wraps=_assign_rows) as spy:
                    ranked = rank_query(
                        dataclasses.replace(config, modes=modes), result.index, result.model,
                        descriptors, qid, entry.gps, entry.category,
                    )
                assert spy.call_count == 1 and spy.call_args.kwargs["leaves"] is leaves
                if leaves:
                    want = rank_bow(result.index, compute_bow(result.tree, descriptors))
                    assert ranked["bow"][0] == want
