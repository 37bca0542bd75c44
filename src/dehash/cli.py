"""Command-line front end.

Subcommands mirror the pipeline stages: ``synth`` generates a benchmark
dataset, ``train-tree`` / ``train-hash`` fit and persist the models,
``index`` writes each database image's code as a payload file
(``<id>.code``: the query payload, without context), ``query`` ranks one
query, ``benchmark`` runs the full evaluation, and ``sweep-lambda`` traces
reconstructed-word counts against the sparsity weight.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .aggregate import aggregate_images
from .dataset import SyntheticSpec, ingest_dataset, synthesize_dataset, training_blob
from .formats import load_descriptors, load_model, load_tree, save_model, save_tree, wire_encode
from .hashing import VARIANTS, train_hashing
from .pipeline import (
    DEFAULT_LAMBDA_SWEEP,
    ExperimentConfig,
    ReconParams,
    StageError,
    config_from_dict,
    lambda_sweep_counts,
    rank_query,
    run_pipeline,
    summarize_report,
)
from .retrieval import build_index, ranking_dump_lines
from .vocab import train_vocabulary


def _load_config(args) -> ExperimentConfig:
    if args.config:
        with open(args.config) as f:
            config = config_from_dict(json.load(f))
    else:
        config = ExperimentConfig()
    overrides = {}
    if getattr(args, "num_queries", None) is not None:
        overrides["num_queries"] = args.num_queries
    if getattr(args, "manifest", None):
        overrides["manifest"] = args.manifest
    if overrides:
        import dataclasses

        config = dataclasses.replace(config, **overrides)
    return config


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(
        num_images=args.num_images,
        noise_std=args.noise_std,
        num_categories=args.categories,
        seed=args.seed,
    )
    tree = train_vocabulary(
        training_blob(args.dim, args.training_points, args.branch, args.seed),
        args.branch,
        args.levels,
        args.vlad_level,
        args.seed,
    )
    out = Path(args.out)
    dataset = synthesize_dataset(spec, tree, out)
    save_tree(tree, out / "tree.bin")
    print(f"wrote {len(dataset.entries)} images under {out}")
    print(f"manifest: {dataset.manifest_path}")
    print(f"tree: {out / 'tree.bin'}")
    return 0


def _cmd_train_tree(args) -> int:
    dataset = ingest_dataset(args.manifest)
    pooled = np.vstack([dataset.descriptors[i] for i in dataset.ids])
    tree = train_vocabulary(pooled, args.branch, args.levels, args.vlad_level, args.seed)
    save_tree(tree, args.out)
    print(f"trained {tree.num_vlad_centers}x{tree.num_leaves} tree -> {args.out}")
    return 0


def _cmd_train_hash(args) -> int:
    tree = load_tree(args.tree)
    dataset = ingest_dataset(args.manifest)
    _, vlads = aggregate_images(tree, [dataset.descriptors[i] for i in dataset.ids], bow=False)
    model = train_hashing(vlads, args.variant, args.bits, args.seed, args.rotate)
    save_model(model, args.out)
    print(f"trained {args.variant} model ({args.bits} bits) -> {args.out}")
    return 0


def _cmd_index(args) -> int:
    tree = load_tree(args.tree)
    model = load_model(args.model)
    dataset = ingest_dataset(args.manifest)
    index = build_index(tree, model, dataset.descriptors)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for image_id in index.ids:
        (out / f"{image_id}.code").write_bytes(wire_encode(index.codes[image_id]))
    print(f"indexed {len(index.ids)} images -> {out}")
    return 0


def _cmd_query(args) -> int:
    tree = load_tree(args.tree)
    model = load_model(args.model)
    dataset = ingest_dataset(args.manifest)
    index = build_index(
        tree, model, dataset.descriptors, gps=dataset.gps_by_id(), categories=dataset.categories_by_id()
    )
    descriptors = load_descriptors(args.descriptors)
    config = ExperimentConfig(recon=ReconParams(lam=args.lam), modes=(args.mode,))
    ranking, _ = rank_query(config, index, model, descriptors, args.query_id)[args.mode]
    for line in ranking_dump_lines(args.query_id, ranking)[: args.top]:
        print(line)
    return 0


def _cmd_benchmark(args) -> int:
    config = _load_config(args)
    result = run_pipeline(config, out_dir=args.out)
    print(summarize_report(result.report))
    if result.report_path:
        print(f"\nreport: {result.report_path}")
    return 0


def _cmd_sweep_lambda(args) -> int:
    tree = load_tree(args.tree)
    dataset = ingest_dataset(args.manifest)
    query_ids = [e.image_id for e in dataset.entries[: args.queries]]
    lambdas = tuple(float(x) for x in args.lambdas.split(",")) if args.lambdas else DEFAULT_LAMBDA_SWEEP
    for row in lambda_sweep_counts(tree, dataset, query_ids, lambdas):
        print(f"{row['lam']:g}\t{row['reconstructed_vws']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dehash", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--num-images", type=int, default=1000)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--branch", type=int, default=8)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--vlad-level", type=int, default=1)
    p.add_argument("--categories", type=int, default=4)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--training-points", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train-tree", help="train a vocabulary tree from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--branch", type=int, default=8)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--vlad-level", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_train_tree)

    p = sub.add_parser("train-hash", help="train a hashing model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", default="shared", choices=VARIANTS)
    p.add_argument("--bits", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rotate", action="store_true")
    p.set_defaults(func=_cmd_train_hash)

    p = sub.add_parser("index", help="encode a database into payload files")
    p.add_argument("--manifest", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser(
        "query",
        help="rank one query against a manifest database through the pipeline's query path; "
        f"recon solves with tol={ReconParams.tol:g} and max_iter={ReconParams.max_iter}",
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--descriptors", required=True, help="query descriptor file")
    p.add_argument("--query-id", default="query")
    p.add_argument("--mode", default="bow", choices=["bow", "vlad", "hamming", "recon"])
    p.add_argument("--lam", type=float, default=ReconParams.lam)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("benchmark", help="run the configured pipeline end to end")
    p.add_argument("--config", help="JSON config file (defaults used when omitted)")
    p.add_argument("--out", required=True)
    p.add_argument("--num-queries", type=int)
    p.add_argument("--manifest")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("sweep-lambda", help="reconstructed-word counts per sparsity weight")
    p.add_argument("--manifest", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--queries", type=int, default=20)
    p.add_argument("--lambdas", help="comma-separated values")
    p.set_defaults(func=_cmd_sweep_lambda)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error [{args.command}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
