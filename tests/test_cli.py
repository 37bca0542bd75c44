import json

import numpy as np
import pytest

from dehash.cli import main
from dehash.dataset import ingest_dataset
from dehash.formats import ContextTag, load_descriptors, load_model, load_payload, load_tree
from dehash.pipeline import ExperimentConfig, ReconParams, rank_query
from dehash.retrieval import build_index, ranking_dump_lines


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train-tree -> train-hash artifacts shared by CLI tests."""
    ws = tmp_path_factory.mktemp("cli")
    data = ws / "data"
    assert main([
        "synth", "--out", str(data), "--num-images", "60", "--dim", "8",
        "--branch", "4", "--levels", "2", "--vlad-level", "1", "--seed", "9",
    ]) == 0
    assert main([
        "train-tree", "--manifest", str(data / "manifest.tsv"),
        "--out", str(ws / "tree.bin"), "--branch", "4", "--levels", "2",
        "--vlad-level", "1", "--seed", "9",
    ]) == 0
    assert main([
        "train-hash", "--manifest", str(data / "manifest.tsv"),
        "--tree", str(ws / "tree.bin"), "--out", str(ws / "model.bin"),
        "--variant", "joint", "--bits", "8", "--seed", "9",
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
        # "rp" codes had no reversal; argparse refuses it before any training.
        with pytest.raises(SystemExit) as exit_info:
            main([
                "train-hash", "--manifest", str(workspace / "data" / "manifest.tsv"),
                "--tree", str(workspace / "tree.bin"), "--out", str(tmp_path / "rp.bin"),
                "--variant", "rp", "--bits", "8",
            ])
        assert exit_info.value.code == 2
        assert "--variant: invalid choice" in capsys.readouterr().err
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

    @pytest.mark.parametrize("mode", ["bow", "vlad", "hamming", "recon"])
    def test_query_ranks_through_rank_query(self, workspace, capsys, mode):
        # The CLI and the pipeline share one query path, solver settings included.
        manifest = workspace / "data" / "manifest.tsv"
        dataset = ingest_dataset(manifest)
        qid = dataset.ids[2]
        descriptors = workspace / "data" / "descriptors" / f"{qid}.desc"
        assert main([
            "query", "--manifest", str(manifest),
            "--tree", str(workspace / "tree.bin"), "--model", str(workspace / "model.bin"),
            "--descriptors", str(descriptors),
            "--query-id", qid, "--mode", mode, "--lam", "0.05", "--top", "7",
        ]) == 0
        tree, model = load_tree(workspace / "tree.bin"), load_model(workspace / "model.bin")
        index = build_index(
            tree, model, dataset.descriptors,
            gps=dataset.gps_by_id(), categories=dataset.categories_by_id(),
        )
        config = ExperimentConfig(recon=ReconParams(lam=0.05), modes=(mode,))
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
            "query", "--manifest", str(workspace / "data" / "manifest.tsv"),
            "--tree", str(workspace / "tree.bin"), "--model", str(workspace / "model.bin"),
            "--descriptors", str(workspace / "data" / "descriptors" / f"{qid}.desc"),
            "--mode", "recon", "--lam", "0.05",
        ]) == 0
        assert seen == [(0.05, ReconParams.tol, ReconParams.max_iter)]


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
            "sweep-lambda", "--manifest", str(workspace / "data" / "manifest.tsv"),
            "--tree", str(workspace / "tree.bin"), "--queries", "4",
            "--lambdas", "0.01,0.1",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("0.01\t")


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
