"""Self-test of the benchmark's query path and its output checks.

Run from the repository root with ``python3 perfbench/selftest.py`` (or
``python3 -m pytest perfbench/selftest.py``).  It proves three things:

1. the benchmark's fixed parameters are the pipeline's defaults;
2. on the fixed evaluation set the benchmark scores, its map rows for all
   ten modes equal ``run_pipeline(config).report["metrics"]`` for the same
   dataset and queries, so the benchmark serves the same queries with the
   same semantics as the pipeline;
3. a ranking with one adjacent pair swapped, one image dropped, or one score
   nudged is caught by the output checks.

It also checks that ``BENCHMARK.json`` names exactly the metrics, with the
units, that ``measure.py`` reports.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import measure  # noqa: E402
import serving  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from checks import Checker  # noqa: E402
from dehash.dataset import SyntheticSpec  # noqa: E402
from dehash.pipeline import ExperimentConfig, run_pipeline  # noqa: E402
from dehash.retrieval import Ranking  # noqa: E402

NUM_IMAGES, SEED = 200, 3


def _small_server(tmp: Path) -> serving.Server:
    blob, manifest = serving.make_inputs(serving.Params(), NUM_IMAGES, SEED, tmp / "bench")
    return serving.set_up(serving.Params(), blob, manifest, True, Calibrator())


def test_params_are_pipeline_defaults():
    config = ExperimentConfig()
    p = serving.Params()
    expected = {
        "dim": config.dim,
        "branch": config.tree.branch,
        "levels": config.tree.levels,
        "vlad_level": config.tree.vlad_level,
        "tree_seed": config.tree.seed,
        "training_points": config.tree.training_points,
        "training_blobs": config.tree.training_blobs,
        "hash_variant": config.hash.variant,
        "nbits": config.hash.nbits,
        "hash_seed": config.hash.seed,
        "rotate": config.hash.rotate,
        "pq_subvectors": config.pq.subvectors,
        "pq_bits": config.pq.bits,
        "pq_seed": config.pq.seed,
        "lam": config.recon.lam,
        "alpha": config.recon.alpha,
        "top_r_binary": config.recon.top_r_binary,
        "top_r_gps": config.recon.top_r_gps,
        "top_r_pseudo": config.recon.top_r_pseudo,
        "tol": config.recon.tol,
        "max_iter": config.recon.max_iter,
    }
    assert dataclasses.asdict(p) == expected
    assert config.recon.cues == ("gps", "binary")
    assert config.recon.combine == "intersection-fallback-union"
    assert config.recon.prior_source == "recon"
    assert config.modes == serving.ALL_MODES


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(measure.WORKLOADS)


def test_map_rows_equal_pipeline_report():
    evaluation = measure.evaluate(serving.Params(), Calibrator())
    assert not evaluation.failures, evaluation.failures
    config = ExperimentConfig(
        synthetic=SyntheticSpec(num_images=measure.EVAL_IMAGES, seed=measure.EVAL_SEED),
        num_queries=evaluation.attempted,
    )
    with tempfile.TemporaryDirectory() as tmp:
        report = run_pipeline(config, Path(tmp) / "pipeline").report
    ours = {mode: float(np.mean(values)) for mode, values in evaluation.aps.items()}
    theirs = {mode: row["map"] for mode, row in report["metrics"].items()}
    assert ours == theirs, (ours, theirs)


def test_checks_catch_broken_rankings():
    with tempfile.TemporaryDirectory() as tmp:
        server = _small_server(Path(tmp))
    checker = Checker(server.index)
    qid = serving.group_queries(server.dataset)[0]
    served = serving.serve_query(server, qid, ("hamming", "vlad"))
    for mode in ("hamming", "vlad"):
        ranking = served.rankings[mode]
        kind, query = served.probes[mode]
        assert checker.check(ranking, qid, kind, query) is None
        entries = list(ranking.entries)
        mid = 10
        if mode == "hamming":  # scores tie often, so this swap breaks only the id order
            mid = next(k for k in range(len(entries) - 1) if entries[k][1] == entries[k + 1][1])
        swapped = entries[:mid] + [entries[mid + 1], entries[mid]] + entries[mid + 2 :]
        dropped = entries[:mid] + entries[mid + 1 :]
        nudged = entries[:-1] + [(entries[-1][0], entries[-1][1] + 1e-9)]
        for broken in (swapped, dropped, nudged):
            assert checker.check(Ranking(tuple(broken)), qid, kind, query) is not None, mode
    # A ranking that still lists the query is refused too.
    with_query = Ranking(((qid, 0.0), *served.rankings["vlad"].entries[:-1]))
    assert checker.check(with_query, qid, *served.probes["vlad"]) is not None


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failed else 0)
