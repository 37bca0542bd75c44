"""Configuration-driven end-to-end runs: train, index, query, evaluate, report.

A run loads its dataset from a manifest or synthesizes it in memory, trains
the vocabulary and hashing model, indexes the database, ranks every query
under the requested modes, and emits a deterministic report: metric rows per
mode, the device memory / transmission accounting, and an optional
regularization sweep.  Wall-clock timings stay out of the report, so identical
configs give byte-identical reports; a timing sidecar is the only other file
a run writes (only ``dehash synth`` writes a dataset's files).

``rank_query`` is the one query path: the pipeline and ``dehash query`` both
rank through it, so each mode means the same thing in both.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import UnionType
from typing import Callable, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import hashing
from .aggregate import BowMatrix, aggregate_images
from .dataset import Dataset, SyntheticSpec, ingest_dataset, synthesize_dataset, training_blob
from .formats import GPS_PAYLOAD_BYTES
from .hashing import HashingModel, approximate_vlad, encode, encode_stack, train_hashing
from .reconstruct import (
    COMBINE_MODES,
    CandidateVWs,
    ReconstructionResult,
    combine_candidates,
    candidates_from_binary,
    candidates_from_category,
    candidates_from_gps,
    pseudo_bow,
    reconstruct_bow,
    reconstruct_bow_with_prior,
)
from .retrieval import (
    DatabaseIndex,
    Ranking,
    attach_pq,
    mean_average_precision,
    mean_ndcg,
    rank_adc,
    rank_bow,
    rank_gps,
    rank_hamming,
    rank_vlad,
    recall_at,
    train_pq,
)
from .vocab import VocabularyTree, train_vocabulary, tree_shape

ALL_MODES = (
    "bow",
    "vlad",
    "gps",
    "hamming",
    "approx-vlad",
    "adc",
    "vlad-to-bow",
    "recon",
    "recon-cads",
    "recon-brpk",
)

# Modes whose query histogram comes from NN-lasso solves.
SOLVER_MODES = ("vlad-to-bow", "recon", "recon-cads", "recon-brpk")

DEFAULT_LAMBDA_SWEEP = (0.001, 0.005, 0.01, 0.02, 0.05, 0.1)

# Context cues CADS can combine, and the rankings BRPK can pool its prior from.
CUES = ("gps", "binary", "category")
PRIOR_SOURCES = ("recon", "binary")


@dataclass(frozen=True)
class TreeParams:
    branch: int = 8
    levels: int = 3
    vlad_level: int = 1
    seed: int = 0
    training_points: int = 4000
    training_blobs: int = 8


@dataclass(frozen=True)
class HashParams:
    variant: str = "joint"
    nbits: int = 32
    seed: int = 0
    rotate: bool = False


@dataclass(frozen=True)
class ReconParams:
    lam: float = 0.02
    alpha: float = 0.8
    top_r_binary: int = 10
    top_r_gps: int = 10
    top_r_pseudo: int = 5
    cues: tuple[str, ...] = ("gps", "binary")
    combine: str = "intersection-fallback-union"
    prior_source: str = "recon"  # initial ranking feeding the pseudo prior: recon | binary
    tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self) -> None:
        if not self.lam >= 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly inside (0, 1), got {self.alpha}")
        for name in ("top_r_binary", "top_r_gps", "top_r_pseudo"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        unknown = [cue for cue in self.cues if cue not in CUES]
        if unknown or not self.cues:
            raise ValueError(f"cues must be a nonempty subset of {CUES}, got {self.cues}")
        if self.combine not in COMBINE_MODES:
            raise ValueError(f"unknown combine mode {self.combine!r}")
        if self.prior_source not in PRIOR_SOURCES:
            raise ValueError(f"unknown prior source {self.prior_source!r}")
        if not self.tol >= 0.0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class PQParams:
    subvectors: int = 16
    bits: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.subvectors < 1:
            raise ValueError(f"subvectors must be >= 1, got {self.subvectors}")
        if not 1 <= self.bits <= 16:
            raise ValueError(f"bits must lie in 1..16, got {self.bits}")


@dataclass(frozen=True)
class ExperimentConfig:
    dim: int = 16
    tree: TreeParams = field(default_factory=TreeParams)
    hash: HashParams = field(default_factory=HashParams)
    recon: ReconParams = field(default_factory=ReconParams)
    pq: PQParams = field(default_factory=PQParams)
    modes: tuple[str, ...] = ALL_MODES
    num_queries: int = 50
    recall_ns: tuple[int, ...] = (1, 5, 10)
    manifest: str | None = None  # load this dataset ...
    synthetic: SyntheticSpec | None = None  # ... or generate one (``SyntheticSpec()`` when both unset)
    lambda_sweep: tuple[float, ...] = ()
    sweep_queries: int = 20

    def __post_init__(self) -> None:
        unknown = set(self.modes) - set(ALL_MODES)
        if unknown:
            raise ValueError(f"unknown modes: {sorted(unknown)}")
        if any(n < 1 for n in self.recall_ns):
            raise ValueError(f"recall_ns entries must be >= 1, got {self.recall_ns}")
        for name in ("num_queries", "sweep_queries"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.manifest is not None and self.synthetic is not None:
            raise ValueError("manifest and synthetic are exclusive: a run loads a manifest or synthesizes")
        # The tree the run trains, then the model over its N coarse centers.
        t, h = self.tree, self.hash
        num_centers, _ = tree_shape(t.branch, t.levels, t.vlad_level)
        hashing.model_layout(h.variant, self.dim, num_centers, h.nbits, h.rotate)
        width = self.dim * num_centers  # of the ranking VLADs that adc's codebooks split
        if "adc" in self.modes and width % self.pq.subvectors:
            raise ValueError(f"pq.subvectors={self.pq.subvectors} must divide the VLAD width {width} for adc")


def config_to_dict(config: ExperimentConfig) -> dict:
    """Plain-dict form of ``config``, ready for ``json.dumps``.

    ``config_from_dict`` is its inverse: for any ``ExperimentConfig`` ``c``,
    ``config_from_dict(json.loads(json.dumps(config_to_dict(c)))) == c``.
    """
    return dataclasses.asdict(config)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Rebuild an ``ExperimentConfig`` from ``config_to_dict`` output or its JSON.

    Conversion follows the dataclass field annotations: nested sections
    (also under ``X | None``) are rebuilt recursively and ``tuple``-typed
    fields are restored from JSON lists, so the result compares equal to, and
    hashes like, the config that was dumped.  Missing keys take their
    defaults; an unknown key, at the top or in a section, or a section that is
    not a JSON object raises ``TypeError``.
    """
    return _dataclass_from_dict(ExperimentConfig, data)


def _dataclass_from_dict(cls: type, data: dict):
    if not isinstance(data, dict):
        raise TypeError(f"{cls.__name__} needs a JSON object, got {data!r}")
    hints = get_type_hints(cls)
    # an unknown key has no hint and passes through, for ``cls`` to reject
    return cls(**{k: _from_json(hints.get(k), v) for k, v in data.items()})


def _from_json(tp, value):
    """``value`` as field type ``tp``: dicts become dataclasses, lists tuples."""
    if value is None and type(None) in get_args(tp):
        return None
    if get_origin(tp) in (Union, UnionType):
        inner = [a for a in get_args(tp) if a is not type(None)]
        if len(inner) == 1:
            tp = inner[0]
    if dataclasses.is_dataclass(tp):
        return _dataclass_from_dict(tp, value)
    if get_origin(tp) is tuple and isinstance(value, list):
        return tuple(value)
    return value


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class StageError(RuntimeError):
    """Pipeline failure attributed to one stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage


class _Stopwatch:
    def __init__(self) -> None:
        self.laps: dict[str, float] = {}

    def run(self, stage: str, fn: Callable):
        start = time.monotonic()
        try:
            result = fn()
        except StageError:
            raise
        except Exception as exc:
            raise StageError(stage, exc) from exc
        self.laps[stage] = self.laps.get(stage, 0.0) + (time.monotonic() - start)
        return result


@dataclass
class PipelineResult:
    report: dict
    timings: dict[str, float]
    report_path: Path | None
    dataset: Dataset
    index: DatabaseIndex
    tree: VocabularyTree
    model: HashingModel
    rankings: dict[str, dict[str, Ranking]]
    relevance: dict[str, set[str]]


def _resolve_dataset(config: ExperimentConfig, tree: VocabularyTree) -> Dataset:
    if config.manifest is not None:
        return ingest_dataset(config.manifest)
    return synthesize_dataset(config.synthetic or SyntheticSpec(), tree)


def _pick_queries(dataset: Dataset, num_queries: int) -> list[str]:
    """Queries spread over distinct relevance groups, in manifest order."""
    chosen: list[str] = []
    seen_groups: set[frozenset[str]] = set()
    for entry in dataset.entries:
        if not entry.relevant_ids:
            continue
        group = frozenset((entry.image_id, *entry.relevant_ids))
        if group in seen_groups:
            continue
        seen_groups.add(group)
        chosen.append(entry.image_id)
        if len(chosen) == num_queries:
            break
    if len(chosen) < num_queries:
        raise ValueError(f"dataset supports only {len(chosen)} group queries, need {num_queries}")
    return chosen


def _query_candidates(
    config: ExperimentConfig,
    index: DatabaseIndex,
    binary_ranking: Ranking,
    gps: tuple[float, float] | None,
    category: int | None,
) -> CandidateVWs:
    cues = []
    for cue in config.recon.cues:
        if cue == "binary":
            cues.append(candidates_from_binary(index, binary_ranking, config.recon.top_r_binary))
        elif cue == "gps":
            if gps is None:
                raise ValueError("gps cue requested but query has no GPS")
            cues.append(candidates_from_gps(index, gps, config.recon.top_r_gps))
        else:  # category
            if category is None:
                raise ValueError("category cue requested but query has no category")
            cues.append(candidates_from_category(index, category))
    return combine_candidates(cues, config.recon.combine)


def rank_query(
    config: ExperimentConfig,
    index: DatabaseIndex,
    model: HashingModel,
    descriptors: np.ndarray,
    qid: str,
    gps: tuple[float, float] | None = None,
    category: int | None = None,
) -> dict[str, tuple[Ranking, ReconstructionResult | None]]:
    """Rank one query under each of ``config.modes``: the one query path.

    Returns ``{mode: (ranking, lasso)}``.  The ranking still holds ``qid``
    when the query is a database image.  ``lasso`` is the NN-lasso result
    behind a solver mode (for recon-brpk its CADS starting point, since the
    prior blend is closed-form and has no path to walk), else ``None``.
    """
    tree = index.tree
    # One aggregation pass: the coarse search serves the VLAD and, when a
    # mode needs the histogram, the leaf search.
    bow, vlads = aggregate_images(tree, [descriptors], bow="bow" in config.modes)
    vlad_raw = vlads[0]
    code = encode(model, vlad_raw)
    approx = approximate_vlad(model, code)
    hamming = rank_hamming(index, code)
    # Context derives from the self-excluded binary ranking: the query
    # photo itself is treated as unseen by the database.
    binary = hamming.drop(qid)
    candidates = None
    if "recon-cads" in config.modes or "recon-brpk" in config.modes:
        candidates = _query_candidates(config, index, binary, gps, category)
    cads_result = None
    ranked = {}
    for mode in config.modes:
        result = None
        if mode == "bow":
            ranking = rank_bow(index, bow.histogram(0))
        elif mode == "vlad":
            ranking = rank_vlad(index, vlad_raw)
        elif mode == "gps":
            if gps is None:
                raise ValueError(f"query {qid} has no GPS")
            ranking = rank_gps(index, gps)
        elif mode == "hamming":
            ranking = hamming
        elif mode == "approx-vlad":
            ranking = rank_vlad(index, approx)
        elif mode == "adc":
            ranking = rank_adc(index, approx)
        elif mode in ("vlad-to-bow", "recon"):
            result = reconstruct_bow(
                vlad_raw if mode == "vlad-to-bow" else approx, tree, config.recon.lam,
                tol=config.recon.tol, max_iter=config.recon.max_iter,
            )
            ranking = rank_bow(index, result.histogram)
        elif mode in ("recon-cads", "recon-brpk"):
            if cads_result is None:
                cads_result = reconstruct_bow(
                    approx, tree, config.recon.lam, candidates,
                    tol=config.recon.tol, max_iter=config.recon.max_iter,
                )
            result = cads_result
            histogram = cads_result.histogram
            if mode == "recon-brpk":
                if config.recon.prior_source == "recon":
                    initial = rank_bow(index, histogram).drop(qid)
                else:  # binary
                    initial = binary
                prior = pseudo_bow(index, initial, config.recon.top_r_pseudo)
                mass = histogram.total() or prior.total()
                histogram = reconstruct_bow_with_prior(
                    approx, tree, prior, config.recon.alpha, candidates, mass
                ).histogram
            ranking = rank_bow(index, histogram)
        else:  # pragma: no cover - guarded by config validation
            raise ValueError(mode)
        ranked[mode] = (ranking, result)
    return ranked


def memory_table(config: ExperimentConfig) -> list[dict]:
    """Closed-form device memory and transmission accounting per variant.

    A row prices the model ``hashing.model_layout`` gives a variant at the
    configured bits (sign: its ``D*N``): its float32 projections plus the
    coarse quantization tree (all levels down to and including the VLAD
    level).  A variant that cannot take the configured bits has no row.
    """
    d, t = config.dim, config.tree
    n, _ = tree_shape(t.branch, t.levels, t.vlad_level)
    tree_bytes = 4 * d * sum(t.branch**level for level in range(1, t.vlad_level + 1))
    rows = []
    for variant in hashing.VARIANTS:
        bits = d * n if variant == "sign" else config.hash.nbits
        try:
            _, projection_shape = hashing.model_layout(variant, d, n, bits)
        except ValueError:
            continue
        projection = 4 * math.prod(projection_shape)
        rows.append(
            {
                "variant": variant,
                "bits": bits,
                "projection_bytes": projection,
                "quantizer_bytes": tree_bytes,
                "mobile_memory_bytes": projection + tree_bytes,
                "transmission_bytes": (bits + 7) // 8,
                "transmission_with_gps_bytes": (bits + 7) // 8 + GPS_PAYLOAD_BYTES,
            }
        )
    return rows


def train_tree(config: ExperimentConfig) -> VocabularyTree:
    """The vocabulary of a run: ``config.tree`` fit on a training blob of ``config.dim``."""
    t = config.tree
    blob = training_blob(config.dim, t.training_points, t.training_blobs, t.seed)
    return train_vocabulary(blob, t.branch, t.levels, t.vlad_level, t.seed)


def lambda_sweep_counts(config: ExperimentConfig, tree: VocabularyTree, dataset: Dataset) -> list[dict]:
    """Total reconstructed-word count per regularization weight (true-VLAD input).

    Sweeps the first ``config.sweep_queries`` of the run's picked queries over
    ``config.lambda_sweep`` (``DEFAULT_LAMBDA_SWEEP`` when empty), solving
    with ``config.recon``'s ``tol`` and ``max_iter``.
    """
    query_ids = _pick_queries(dataset, config.num_queries)[: config.sweep_queries]
    _, vlads = aggregate_images(tree, [dataset.descriptors[q] for q in query_ids], bow=False)
    rows = []
    for lam in config.lambda_sweep or DEFAULT_LAMBDA_SWEEP:
        total = 0
        for v in vlads:
            result = reconstruct_bow(v, tree, lam, tol=config.recon.tol, max_iter=config.recon.max_iter)
            total += result.histogram.num_words
        rows.append({"lam": lam, "reconstructed_vws": total})
    return rows


def run_pipeline(config: ExperimentConfig, out_dir: str | Path | None = None) -> PipelineResult:
    """Execute the full pipeline described by ``config``.

    Returns the in-memory result; when ``out_dir`` is given, also writes
    ``report_<confighash>.json`` (deterministic) plus a timing sidecar there,
    and nothing else.
    """
    watch = _Stopwatch()

    tree = watch.run("train-tree", lambda: train_tree(config))
    dataset = watch.run("dataset", lambda: _resolve_dataset(config, tree))

    # The database is aggregated once, in the index's ascending-id row order;
    # hashing trains on the same VLAD rows gathered back into manifest order.
    ids = sorted(dataset.ids)

    def _train_hash() -> tuple[HashingModel, BowMatrix, np.ndarray]:
        bow, vlads = aggregate_images(tree, [dataset.descriptors[i] for i in ids])
        row = {image_id: r for r, image_id in enumerate(ids)}
        h = config.hash
        model = train_hashing(vlads[[row[i] for i in dataset.ids]], h.variant, h.nbits, h.seed, h.rotate)
        return model, bow, vlads

    model, bow, vlads = watch.run("train-hash", _train_hash)
    index = watch.run(
        "index",
        lambda: DatabaseIndex(
            tree, ids, bow, vlads, encode_stack(model, vlads), model.nbits,
            dataset.gps_by_id(), dataset.categories_by_id(),
        ),
    )
    if "adc" in config.modes:
        watch.run(
            "train-pq",
            lambda: attach_pq(
                index,
                train_pq(
                    index.ranking_vlad_matrix(), config.pq.subvectors, config.pq.bits, config.pq.seed
                ),
            ),
        )

    query_ids = _pick_queries(dataset, config.num_queries)
    relevance_by_id = dataset.relevance_by_id()
    relevance = {q: relevance_by_id[q] for q in query_ids}
    entry_by_id = {e.image_id: e for e in dataset.entries}
    rankings: dict[str, dict[str, Ranking]] = {mode: {} for mode in config.modes}
    # Per solver mode, the NN-lasso solves behind its rankings (see rank_query).
    solver = {
        mode: {"solves": 0, "path_events": 0, "nonconverged": 0}
        for mode in config.modes
        if mode in SOLVER_MODES
    }

    def _rank_queries() -> None:
        for qid in query_ids:
            entry = entry_by_id[qid]
            ranked = rank_query(
                config, index, model, dataset.descriptors[qid], qid, entry.gps, entry.category
            )
            for mode, (ranking, result) in ranked.items():
                rankings[mode][qid] = ranking.drop(qid)
                if result is None:
                    continue
                row = solver[mode]
                for report in result.reports:
                    if not report.skipped:
                        row["solves"] += 1
                        row["path_events"] += report.sweeps
                        row["nonconverged"] += int(not report.converged)

    watch.run("query", _rank_queries)

    def _metrics() -> dict:
        reference = {q: sorted(relevance[q])[0] for q in query_ids}
        table = {}
        for mode in config.modes:
            row = {"map": mean_average_precision(rankings[mode], relevance)}
            for n in config.recall_ns:
                row[f"recall@{n}"] = recall_at(rankings[mode], reference, n)
            row["ndcg"] = mean_ndcg(rankings[mode], reference)
            table[mode] = row
        return table

    metric_table = watch.run("metrics", _metrics)

    sweep_rows = []
    if config.lambda_sweep:
        sweep_rows = watch.run("sweep-lambda", lambda: lambda_sweep_counts(config, tree, dataset))

    report = {
        "config": config_to_dict(config),
        "config_hash": config_hash(config),
        "num_images": len(dataset.ids),
        "num_queries": len(query_ids),
        "metrics": metric_table,
        "memory_table": memory_table(config),
        "lambda_sweep": sweep_rows,
        "solver": solver,
    }

    report_path = None
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        report_path = Path(out_dir) / f"report_{report['config_hash']}.json"
        report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
        report_path.with_suffix(".timings.txt").write_text(
            "".join(f"{stage}\t{seconds:.3f}s\n" for stage, seconds in watch.laps.items())
        )

    return PipelineResult(
        report=report,
        timings=dict(watch.laps),
        report_path=report_path,
        dataset=dataset,
        index=index,
        tree=tree,
        model=model,
        rankings=rankings,
        relevance=relevance,
    )


def summarize_report(report: dict) -> str:
    """Human-readable digest of a report dict."""
    lines = [f"images={report['num_images']} queries={report['num_queries']}"]
    lines.append(f"config={report['config_hash']}")
    lines.append("")
    header = None
    for mode, row in report["metrics"].items():
        if header is None:
            header = ["mode"] + list(row)
            lines.append("  ".join(f"{h:>12}" for h in header))
        lines.append(
            "  ".join([f"{mode:>12}"] + [f"{row[k]:>12.4f}" for k in row])
        )
    lines.append("")
    lines.append("variant  bits  mobile_bytes  transmit_bytes")
    for row in report["memory_table"]:
        lines.append(
            f"{row['variant']:>7}  {row['bits']:>4}  {row['mobile_memory_bytes']:>12}  "
            f"{row['transmission_bytes']:>14}"
        )
    if report["solver"]:
        lines.append("")
        lines.append("solver mode   solves  path_events  nonconverged")
        for mode, row in report["solver"].items():
            lines.append(
                f"{mode:>11}  {row['solves']:>7}  {row['path_events']:>11}  {row['nonconverged']:>12}"
            )
    if report["lambda_sweep"]:
        lines.append("")
        lines.append("lambda  reconstructed_vws")
        for row in report["lambda_sweep"]:
            lines.append(f"{row['lam']:<7g} {row['reconstructed_vws']}")
    return "\n".join(lines)
