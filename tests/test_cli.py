import argparse
import dataclasses
import json

import numpy as np
import pytest

from dehash.cli import build_parser, main
from dehash.dataset import ingest_dataset
from dehash.formats import (
    ContextTag, load_descriptors, load_model, load_payload, load_tree, save_model, save_tree,
)
from dehash.pipeline import DEFAULT_LAMBDA_SWEEP, ReconParams, config_from_dict, rank_query, run_pipeline
from dehash.retrieval import build_index, ranking_dump_lines

# One tiny config for every subcommand: N = 4 coarse centers of D = 8, and
# solver settings away from their defaults.
CONFIG = {
    "dim": 8,
    "tree": {"branch": 4, "levels": 2, "vlad_level": 1, "seed": 9},
    "hash": {"variant": "joint", "nbits": 8, "seed": 9},
    "recon": {"lam": 0.05, "tol": 1e-5, "max_iter": 40},
    "pq": {"subvectors": 8, "bits": 4},
    "synthetic": {"num_images": 60, "seed": 9},
    "num_queries": 5,
    "lambda_sweep": [0.01, 0.05],
    "sweep_queries": 4,
}


def subcommand_flags() -> dict[str, list[argparse.Action]]:
    """Each subcommand's flags, ``--help`` left out."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [a for a in p._actions if a.option_strings and a.dest != "help"]
        for name, p in commands.choices.items()
    }


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train-tree -> train-hash artifacts shared by CLI tests, all from CONFIG."""
    ws = tmp_path_factory.mktemp("cli")
    data = ws / "data"
    config = ws / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    assert main([
        "train-tree", "--config", str(config), "--manifest", str(data / "manifest.tsv"),
        "--out", str(ws / "tree.bin"),
    ]) == 0
    assert main([
        "train-hash", "--config", str(config), "--manifest", str(data / "manifest.tsv"),
        "--tree", str(ws / "tree.bin"), "--out", str(ws / "model.bin"),
    ]) == 0
    return ws


class TestSynth:
    def test_outputs_exist(self, workspace):
        data = workspace / "data"
        assert (data / "manifest.tsv").exists()
        assert (data / "tree.bin").exists()
        dataset = ingest_dataset(data / "manifest.tsv")
        assert len(dataset.ids) == 60
        tree = load_tree(data / "tree.bin")
        assert tree.dim == 8


class TestTrainedArtifacts:
    def test_tree_loads(self, workspace):
        tree = load_tree(workspace / "tree.bin")
        assert tree.num_vlad_centers == 4
        assert tree.num_leaves == 16

    def test_model_loads(self, workspace):
        model = load_model(workspace / "model.bin")
        assert model.variant == "joint"
        assert model.nbits == 8

    def test_train_hash_refuses_rp(self, workspace, tmp_path, capsys):
        # "rp" codes had no reversal; loading the config refuses it before any training.
        config = tmp_path / "rp.json"
        config.write_text(json.dumps({"hash": {"variant": "rp", "nbits": 8}}))
        assert main([
            "train-hash", "--config", str(config), "--manifest", str(workspace / "data" / "manifest.tsv"),
            "--tree", str(workspace / "tree.bin"), "--out", str(tmp_path / "rp.bin"),
        ]) == 1
        assert f"error [train-hash] {config}: unknown variant 'rp'" in capsys.readouterr().err
        assert not (tmp_path / "rp.bin").exists()


class TestIndexAndQuery:
    def test_index_writes_codes(self, workspace, tmp_path):
        out = tmp_path / "index"
        assert main([
            "index", "--manifest", str(workspace / "data" / "manifest.tsv"),
            "--tree", str(workspace / "tree.bin"), "--model", str(workspace / "model.bin"),
            "--out", str(out),
        ]) == 0
        codes = sorted(out.glob("*.code"))
        assert len(codes) == 60
        code, context = load_payload(codes[0])
        assert code.nbits == 8 and context == ContextTag()

    def test_query_prints_ranking(self, workspace, capsys):
        dataset = ingest_dataset(workspace / "data" / "manifest.tsv")
        qid = dataset.ids[0]
        assert main([
            "query", "--manifest", str(workspace / "data" / "manifest.tsv"),
            "--tree", str(workspace / "tree.bin"), "--model", str(workspace / "model.bin"),
            "--descriptors", str(workspace / "data" / "descriptors" / f"{qid}.desc"),
            "--query-id", qid, "--mode", "bow", "--top", "3",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        first = lines[0].split()
        assert first[0] == qid and first[1] == qid and first[2] == "1"

    def test_query_recon_mode(self, workspace, capsys):
        dataset = ingest_dataset(workspace / "data" / "manifest.tsv")
        qid = dataset.ids[1]
        assert main([
            "query", "--manifest", str(workspace / "data" / "manifest.tsv"),
            "--tree", str(workspace / "tree.bin"), "--model", str(workspace / "model.bin"),
            "--descriptors", str(workspace / "data" / "descriptors" / f"{qid}.desc"),
            "--query-id", qid, "--mode", "recon", "--top", "5",
        ]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 5

    @pytest.mark.parametrize("mode", ["bow", "vlad", "hamming", "recon", "approx-vlad", "vlad-to-bow"])
    def test_query_ranks_through_rank_query(self, workspace, capsys, mode):
        # The CLI and the pipeline share one query path, solver settings included.
        manifest = workspace / "data" / "manifest.tsv"
        dataset = ingest_dataset(manifest)
        qid = dataset.ids[2]
        descriptors = workspace / "data" / "descriptors" / f"{qid}.desc"
        assert main([
            "query", "--config", str(workspace / "config.json"), "--manifest", str(manifest),
            "--tree", str(workspace / "tree.bin"), "--model", str(workspace / "model.bin"),
            "--descriptors", str(descriptors), "--query-id", qid, "--mode", mode, "--top", "7",
        ]) == 0
        tree, model = load_tree(workspace / "tree.bin"), load_model(workspace / "model.bin")
        index = build_index(
            tree, model, dataset.descriptors,
            gps=dataset.gps_by_id(), categories=dataset.categories_by_id(),
        )
        recon = ReconParams(lam=0.05, tol=1e-5, max_iter=40)
        config = dataclasses.replace(config_from_dict(CONFIG), modes=(mode,))
        assert config.recon == recon != ReconParams()
        ranking, _ = rank_query(config, index, model, load_descriptors(descriptors), qid)[mode]
        want = ranking_dump_lines(qid, ranking)[:7]
        assert capsys.readouterr().out.splitlines() == want

    def test_query_recon_solves_with_config_settings(self, workspace, monkeypatch):
        import dehash.pipeline

        seen = []
        solve = dehash.pipeline.reconstruct_bow

        def spy(*args, **kwargs):
            seen.append((args[2], kwargs["tol"], kwargs["max_iter"]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(dehash.pipeline, "reconstruct_bow", spy)
        qid = ingest_dataset(workspace / "data" / "manifest.tsv").ids[0]
        assert main([
            "query", "--config", str(workspace / "config.json"),
            "--manifest", str(workspace / "data" / "manifest.tsv"),
            "--tree", str(workspace / "tree.bin"), "--model", str(workspace / "model.bin"),
            "--descriptors", str(workspace / "data" / "descriptors" / f"{qid}.desc"),
            "--mode", "recon",
        ]) == 0
        assert seen == [(0.05, 1e-5, 40)]


class TestBenchmark:
    def test_benchmark_with_config_file(self, tmp_path, capsys):
        config = {
            "tree": {"training_points": 1500},
            "hash": {"variant": "joint", "nbits": 16},
            "pq": {"subvectors": 8, "bits": 4},
            "synthetic": {"num_images": 80, "descriptors_per_image": [40, 80],
                          "group_size": 4, "seed": 3},
            "modes": ["bow", "hamming"],
            "num_queries": 4,
            "recall_ns": [1, 5],
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["benchmark", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "bow" in out and "hamming" in out
        assert list((tmp_path / "run").glob("report_*.json"))


class TestSweepLambda:
    def test_counts_printed(self, workspace, capsys):
        assert main([
            "sweep-lambda", "--config", str(workspace / "config.json"),
            "--manifest", str(workspace / "data" / "manifest.tsv"), "--tree", str(workspace / "tree.bin"),
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("0.01\t")

    def test_default_weights_when_config_sweeps_none(self, workspace, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**CONFIG, "lambda_sweep": []}))
        assert main([
            "sweep-lambda", "--config", str(config),
            "--manifest", str(workspace / "data" / "manifest.tsv"), "--tree", str(workspace / "tree.bin"),
        ]) == 0
        lams = [float(line.split("\t")[0]) for line in capsys.readouterr().out.splitlines()]
        assert lams == list(DEFAULT_LAMBDA_SWEEP)


class TestParity:
    """Each subcommand computes what the matching benchmark stage computes for CONFIG."""

    @pytest.fixture(scope="class")
    def runs(self, workspace):
        config = str(workspace / "config.json")
        manifest = str(workspace / "data" / "manifest.tsv")
        assert main(["benchmark", "--config", config, "--out", str(workspace / "bench")]) == 0
        assert main([
            "benchmark", "--config", config, "--manifest", manifest,
            "--out", str(workspace / "bench-manifest"),
        ]) == 0
        (synthesized,) = (workspace / "bench").glob("report_*.json")
        (loaded,) = (workspace / "bench-manifest").glob("report_*.json")
        return json.loads(synthesized.read_text()), json.loads(loaded.read_text())

    def test_synth_then_benchmark_manifest_equals_benchmark(self, runs):
        synthesized, loaded = runs
        # The dataset drawn in memory and the one read back from synth's files
        # give every report key alike; only the config names its source.
        assert loaded["config"]["manifest"] and loaded["config"]["synthetic"] is None
        assert set(loaded) == set(synthesized)
        for key in sorted(set(synthesized) - {"config", "config_hash"}):
            assert loaded[key] == synthesized[key], key
        assert synthesized["solver"] and synthesized["lambda_sweep"]

    def test_train_hash_gives_the_run_model(self, workspace, tmp_path):
        run = run_pipeline(config_from_dict(CONFIG), out_dir=tmp_path)
        save_tree(run.tree, tmp_path / "run-tree.bin")
        save_model(run.model, tmp_path / "run-model.bin")
        # synth saved the run's tree, and train-hash on it fits the run's model.
        assert (tmp_path / "run-tree.bin").read_bytes() == (workspace / "data" / "tree.bin").read_bytes()
        assert main([
            "train-hash", "--config", str(workspace / "config.json"),
            "--manifest", str(workspace / "data" / "manifest.tsv"),
            "--tree", str(workspace / "data" / "tree.bin"), "--out", str(tmp_path / "model.bin"),
        ]) == 0
        assert (tmp_path / "model.bin").read_bytes() == (tmp_path / "run-model.bin").read_bytes()

    def test_sweep_lambda_prints_the_report_rows(self, workspace, runs, capsys):
        synthesized, _ = runs
        assert main([
            "sweep-lambda", "--config", str(workspace / "config.json"),
            "--manifest", str(workspace / "data" / "manifest.tsv"),
            "--tree", str(workspace / "data" / "tree.bin"),
        ]) == 0
        want = [f"{row['lam']:g}\t{row['reconstructed_vws']}" for row in synthesized["lambda_sweep"]]
        assert capsys.readouterr().out.splitlines() == want


class TestErrors:
    def test_missing_manifest_reports_error(self, tmp_path, capsys):
        code = main([
            "train-tree", "--manifest", str(tmp_path / "nope.tsv"),
            "--out", str(tmp_path / "t.bin"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_truncated_tree_reports_error(self, workspace, tmp_path, capsys):
        short = tmp_path / "short.bin"
        short.write_bytes((workspace / "tree.bin").read_bytes()[:20])
        dataset = ingest_dataset(workspace / "data" / "manifest.tsv")
        code = main([
            "query", "--manifest", str(workspace / "data" / "manifest.tsv"),
            "--tree", str(short), "--model", str(workspace / "model.bin"),
            "--descriptors", str(workspace / "data" / "descriptors" / f"{dataset.ids[0]}.desc"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error" in err and str(short) in err

    @pytest.mark.parametrize(
        "command, content, match",
        [
            *(
                pytest.param(command, {"num_querys": 3}, "num_querys", id=command)
                for command in ("synth", "train-tree", "train-hash", "query", "benchmark", "sweep-lambda")
            ),
            # Models that cannot exist over D = 16, N = 8: refused before any stage runs.
            pytest.param("benchmark", {"hash": {"variant": "sign", "nbits": 32}}, "one bit", id="sign-32-bits"),
            pytest.param("benchmark", {"hash": {"variant": "shared", "rotate": True}}, "rotation", id="rotate"),
            pytest.param("benchmark", {"hash": {"nbits": 0}}, "K >= 1", id="0-bits"),
            # A traceback (ZeroDivisionError) before the spec checked its fields.
            pytest.param("synth", {"synthetic": {"group_size": 0}}, "group_size", id="group-size-0"),
        ],
    )
    def test_unknown_config_key_reports_error(self, workspace, tmp_path, capsys, command, content, match):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        data = workspace / "data"
        files = {
            "--manifest": data / "manifest.tsv",
            "--tree": workspace / "tree.bin",
            "--model": workspace / "model.bin",
            "--descriptors": next((data / "descriptors").glob("*.desc")),
            "--out": tmp_path / "out",
        }
        argv = [command, "--config", str(bad)]
        for action in subcommand_flags()[command]:
            if action.required:
                argv += [action.option_strings[0], str(files[action.option_strings[0]])]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [{command}] {bad}: ") and match in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [bad]


class TestParser:
    def test_flags_name_files_but_three(self):
        # Every model and data parameter comes from --config.
        files = {"--config", "--manifest", "--tree", "--model", "--descriptors", "--out"}
        flags = [a.option_strings[0] for actions in subcommand_flags().values() for a in actions]
        assert len(flags) == 27
        assert {f for f in flags if f not in files} == {"--query-id", "--mode", "--top"}
