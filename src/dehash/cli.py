"""Command-line front end.

Subcommands mirror the pipeline stages: ``synth`` writes a benchmark dataset
(the only subcommand that does), ``train-tree`` / ``train-hash`` fit and
persist the models, ``index`` writes each database image's code as a payload
file (``<id>.code``: the query payload, without context), ``query`` ranks one
query, ``benchmark`` runs the full evaluation (its ``--out`` gets the report
and timing sidecar only), and ``sweep-lambda`` traces reconstructed-word
counts against the sparsity weight.

Every model and data parameter comes from one ``--config`` file: the
``ExperimentConfig`` JSON that ``benchmark`` runs (its defaults when no file
is given), so each subcommand computes what the matching ``benchmark`` stage
computes for that config.  The flags name only files, plus the query's id,
mode and listing length.  The sections each subcommand reads:

  synth         dim, tree, synthetic
  train-tree    tree
  train-hash    hash
  index         (none: the tree and model files carry everything)
  query         recon
  benchmark     all of it; --manifest replaces synthetic
  sweep-lambda  num_queries, sweep_queries, lambda_sweep, recon.tol, recon.max_iter
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .aggregate import aggregate_images
from .dataset import SyntheticSpec, ingest_dataset, synthesize_dataset
from .formats import load_descriptors, load_model, load_tree, save_model, save_tree, wire_encode
from .hashing import train_hashing
from .pipeline import (
    ALL_MODES,
    ExperimentConfig,
    StageError,
    config_from_dict,
    lambda_sweep_counts,
    rank_query,
    run_pipeline,
    summarize_report,
    train_tree,
)
from .retrieval import build_index, ranking_dump_lines
from .vocab import train_vocabulary


def _load_config(args) -> ExperimentConfig:
    """The ``--config`` file's ``ExperimentConfig``, or the defaults without one."""
    if not args.config:
        return ExperimentConfig()
    with open(args.config) as f:
        try:
            return config_from_dict(json.load(f))
        except (TypeError, ValueError) as exc:  # an unknown key, bad JSON or a rejected value
            raise ValueError(f"{args.config}: {exc}") from None


def _cmd_synth(args) -> int:
    config = _load_config(args)
    tree = train_tree(config)
    out = Path(args.out)
    dataset = synthesize_dataset(config.synthetic or SyntheticSpec(), tree, out)
    save_tree(tree, out / "tree.bin")
    print(f"wrote {len(dataset.entries)} images under {out}")
    print(f"manifest: {out / 'manifest.tsv'}")
    print(f"tree: {out / 'tree.bin'}")
    return 0


def _cmd_train_tree(args) -> int:
    t = _load_config(args).tree
    dataset = ingest_dataset(args.manifest)
    pooled = np.vstack([dataset.descriptors[i] for i in dataset.ids])
    tree = train_vocabulary(pooled, t.branch, t.levels, t.vlad_level, t.seed)
    save_tree(tree, args.out)
    print(f"trained {tree.num_vlad_centers}x{tree.num_leaves} tree -> {args.out}")
    return 0


def _cmd_train_hash(args) -> int:
    h = _load_config(args).hash
    tree = load_tree(args.tree)
    dataset = ingest_dataset(args.manifest)
    _, vlads = aggregate_images(tree, [dataset.descriptors[i] for i in dataset.ids], bow=False)
    model = train_hashing(vlads, h.variant, h.nbits, h.seed, h.rotate)
    save_model(model, args.out)
    print(f"trained {h.variant} model ({h.nbits} bits) -> {args.out}")
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
    if args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    config = dataclasses.replace(_load_config(args), modes=(args.mode,))
    tree = load_tree(args.tree)
    model = load_model(args.model)
    dataset = ingest_dataset(args.manifest)
    index = build_index(
        tree, model, dataset.descriptors, gps=dataset.gps_by_id(), categories=dataset.categories_by_id()
    )
    descriptors = load_descriptors(args.descriptors)
    ranking, _ = rank_query(config, index, model, descriptors, args.query_id)[args.mode]
    for line in ranking_dump_lines(args.query_id, ranking)[: args.top]:
        print(line)
    return 0


def _cmd_benchmark(args) -> int:
    config = _load_config(args)
    if args.manifest:
        config = dataclasses.replace(config, manifest=args.manifest, synthetic=None)
    result = run_pipeline(config, out_dir=args.out)
    print(summarize_report(result.report))
    if result.report_path:
        print(f"\nreport: {result.report_path}")
    return 0


def _cmd_sweep_lambda(args) -> int:
    config = _load_config(args)
    tree = load_tree(args.tree)
    dataset = ingest_dataset(args.manifest)
    for row in lambda_sweep_counts(config, tree, dataset):
        print(f"{row['lam']:g}\t{row['reconstructed_vws']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dehash", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, func, sections: str, *files: str) -> argparse.ArgumentParser:
        """A subcommand reading ``sections`` of the config and taking the ``files`` paths."""
        p = sub.add_parser(name, help=summary)
        if sections:
            p.add_argument("--config", help=f"ExperimentConfig JSON; reads {sections} (defaults if omitted)")
        for flag in files:
            p.add_argument(flag, required=True)
        p.set_defaults(func=func)
        return p

    command("synth", "synthesize a dataset and its tree", _cmd_synth, "dim, tree, synthetic", "--out")
    command("train-tree", "train a vocabulary tree", _cmd_train_tree, "tree", "--manifest", "--out")
    command("train-hash", "train a hashing model", _cmd_train_hash, "hash", "--manifest", "--tree", "--out")
    command(
        "index", "encode a database into payload files", _cmd_index, "",
        "--manifest", "--tree", "--model", "--out",
    )
    p = command(
        "query", "rank one query descriptor file against a manifest database", _cmd_query, "recon",
        "--manifest", "--tree", "--model", "--descriptors",
    )
    p.add_argument("--query-id", default="query")
    # query has no GPS fix, category or trained PQ: leave out the modes that
    # can need one (CADS and BRPK through recon.cues).
    query_modes = [m for m in ALL_MODES if m not in ("gps", "adc", "recon-cads", "recon-brpk")]
    p.add_argument("--mode", default="bow", choices=query_modes)
    p.add_argument("--top", type=int, default=10)
    p = command("benchmark", "run the configured pipeline end to end", _cmd_benchmark, "all", "--out")
    p.add_argument("--manifest", help="load this dataset instead of the config's")
    command(
        "sweep-lambda", "reconstructed-word counts per sparsity weight, as in the report",
        _cmd_sweep_lambda, "num_queries, sweep_queries, lambda_sweep, recon", "--manifest", "--tree",
    )
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
