"""The dehash server driven through the package's public functions.

``set_up`` trains and indexes the way the pipeline's stages do, and
``serve_query`` reproduces the per-query mode semantics of the pipeline's
query stage: the binary ranking is self-excluded before it feeds the context
cues, CADS combines the ``gps`` and ``binary`` cues with
``intersection-fallback-union``, BRPK takes its prior from the CADS ranking,
and every mode's ranking has the query dropped.  ``selftest.py`` proves the
two agree.  Every call into the package goes through ``t.call`` so a traced
run can record a span around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from dehash.aggregate import BowHistogram, compute_bow, compute_vlad
from dehash.dataset import Dataset, SyntheticSpec, ingest_dataset, synthesize_dataset, training_blob
from dehash.hashing import HashingModel, approximate_vlad, encode, train_hashing
from dehash.reconstruct import (
    ReconstructionResult,
    candidates_from_binary,
    candidates_from_gps,
    combine_candidates,
    pseudo_bow,
    reconstruct_bow,
    reconstruct_bow_with_prior,
)
from dehash.retrieval import (
    DatabaseIndex,
    Ranking,
    attach_pq,
    build_index,
    rank_adc,
    rank_bow,
    rank_gps,
    rank_hamming,
    rank_vlad,
    train_pq,
)
from dehash.vocab import VocabularyTree, train_vocabulary

from calibrate import Calibrator
from spans import NoTrace

# Pipeline order: recon-brpk reuses the CADS solve when recon-cads ran first.
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


@dataclass(frozen=True)
class Params:
    """The default tree, models and reconstruction settings, fixed here so the
    workloads stay put when package defaults move; ``selftest.py`` checks
    they still equal ``ExperimentConfig()``."""

    dim: int = 16
    branch: int = 8
    levels: int = 3
    vlad_level: int = 1
    tree_seed: int = 0
    training_points: int = 4000
    training_blobs: int = 8
    hash_variant: str = "joint"
    nbits: int = 32
    hash_seed: int = 0
    rotate: bool = False
    pq_subvectors: int = 16
    pq_bits: int = 8
    pq_seed: int = 0
    lam: float = 0.02
    alpha: float = 0.8
    top_r_binary: int = 10
    top_r_gps: int = 10
    top_r_pseudo: int = 5
    tol: float = 1e-6
    max_iter: int = 500


@dataclass
class Server:
    params: Params
    tree: VocabularyTree
    model: HashingModel
    index: DatabaseIndex
    dataset: Dataset
    stage_s: dict[str, float]  # raw seconds per set-up stage
    stage_scale: dict[str, float]  # reference-host scale of each stage

    def __post_init__(self) -> None:
        self.entries = {e.image_id: e for e in self.dataset.entries}
        self.relevance = self.dataset.relevance_by_id()


@dataclass
class Served:
    """One query's rankings per mode, plus what the checks and counters read."""

    rankings: dict[str, Ranking] = field(default_factory=dict)
    # Per mode: the oracle kind and the query input the ranking was scored from.
    probes: dict[str, tuple[str, object]] = field(default_factory=dict)
    bow_query_words: list[int] = field(default_factory=list)
    solves: list[tuple[str, ReconstructionResult]] = field(default_factory=list)


def make_inputs(p: Params, num_images: int, seed: int, out_dir: Path, t=NoTrace()):
    """Vocabulary training points and a synthetic dataset on disk; not timed."""
    blob = training_blob(p.dim, p.training_points, p.training_blobs, p.tree_seed)
    tree = train_vocabulary(blob, p.branch, p.levels, p.vlad_level, p.tree_seed)
    t.call(
        "dataset.synthesize",
        synthesize_dataset,
        SyntheticSpec(num_images=num_images, seed=seed),
        tree,
        out_dir,
    )
    return blob, out_dir / "manifest.tsv"


def set_up(p: Params, blob, manifest: Path, with_pq: bool, calib: Calibrator, t=NoTrace()) -> Server:
    """Ingest, train the tree and hashing model, index, and train PQ if asked.

    Each stage is timed between reference-kernel runs of its own, so a
    host slowdown during one stage scales that stage only.
    """
    stage_s: dict[str, float] = {}
    stage_scale: dict[str, float] = {}

    def stage(name: str, fn: Callable, *args, **kwargs):
        out, stage_s[name], stage_scale[name] = calib.around(lambda: t.call(name, fn, *args, **kwargs))
        return out

    dataset = stage("dataset.ingest", ingest_dataset, manifest)
    tree = stage(
        "vocab.train_vocabulary",
        train_vocabulary,
        blob,
        p.branch,
        p.levels,
        p.vlad_level,
        p.tree_seed,
    )
    vlads = stage(
        "aggregate.training_vlads",
        lambda: [compute_vlad(tree, dataset.descriptors[i]) for i in dataset.ids],
    )
    model = stage(
        "hashing.train_hashing", train_hashing, vlads, p.hash_variant, p.nbits, p.hash_seed, p.rotate
    )
    index = stage(
        "retrieval.build_index",
        build_index,
        tree,
        model,
        dataset.descriptors,
        gps=dataset.gps_by_id(),
        categories=dataset.categories_by_id(),
    )
    if with_pq:
        books = stage(
            "retrieval.train_pq",
            lambda: train_pq(index.ranking_vlad_matrix(), p.pq_subvectors, p.pq_bits, p.pq_seed),
        )
        stage("retrieval.attach_pq", attach_pq, index, books)
    return Server(p, tree, model, index, dataset, stage_s, stage_scale)


def group_queries(dataset: Dataset) -> list[str]:
    """First member of each relevance group, in manifest order, as the pipeline picks."""
    chosen: list[str] = []
    seen: set[frozenset[str]] = set()
    for entry in dataset.entries:
        if not entry.relevant_ids:
            continue
        group = frozenset((entry.image_id, *entry.relevant_ids))
        if group not in seen:
            seen.add(group)
            chosen.append(entry.image_id)
    return chosen


def relevant_queries(dataset: Dataset) -> list[str]:
    """Every image that has relevant images, in manifest order."""
    return [e.image_id for e in dataset.entries if e.relevant_ids]


def serve_query(s: Server, qid: str, modes: tuple[str, ...], t=NoTrace()) -> Served:
    """Rank the database for one query under each mode, from its descriptors."""
    p, index, tree = s.params, s.index, s.tree
    descs = s.dataset.descriptors[qid]
    entry = s.entries[qid]
    out = Served()

    def by_bow(h: BowHistogram) -> Ranking:
        out.bow_query_words.append(h.num_words)
        return t.call("retrieval.rank_bow", rank_bow, index, h)

    def drop(ranking: Ranking) -> Ranking:
        return t.call("retrieval.drop", ranking.drop, qid)

    def solve(kind: str, v, candidates=None) -> ReconstructionResult:
        result = t.call(
            f"reconstruct.{kind}",
            reconstruct_bow,
            v,
            tree,
            p.lam,
            candidates,
            tol=p.tol,
            max_iter=p.max_iter,
        )
        out.solves.append((kind, result))
        return result

    def context_candidates():
        cues = [
            t.call("reconstruct.candidates_from_gps", candidates_from_gps, index, entry.gps, p.top_r_gps),
            t.call(
                "reconstruct.candidates_from_binary", candidates_from_binary, index, binary, p.top_r_binary
            ),
        ]
        return t.call(
            "reconstruct.combine_candidates", combine_candidates, cues, "intersection-fallback-union"
        )

    vlad_raw = t.call("aggregate.compute_vlad", compute_vlad, tree, descs)
    code = t.call("hashing.encode", encode, s.model, vlad_raw)
    approx = t.call("hashing.approximate_vlad", approximate_vlad, s.model, code)
    binary = drop(t.call("retrieval.rank_hamming", rank_hamming, index, code))
    candidates = None
    if "recon-cads" in modes or "recon-brpk" in modes:
        if entry.gps is None:
            raise ValueError(f"gps cue requested but query {qid} has no GPS")
        candidates = t.call("reconstruct.candidates", context_candidates)
    cads = None
    for mode in (m for m in ALL_MODES if m in modes):
        if mode == "bow":
            h = t.call("aggregate.compute_bow", compute_bow, tree, descs)
            ranking, probe = by_bow(h), ("bow", h)
        elif mode == "vlad":
            ranking = t.call("retrieval.rank_vlad", rank_vlad, index, vlad_raw)
            probe = ("vlad", vlad_raw)
        elif mode == "gps":
            if entry.gps is None:
                raise ValueError(f"query {qid} has no GPS")
            ranking, probe = t.call("retrieval.rank_gps", rank_gps, index, entry.gps), ("gps", entry.gps)
        elif mode == "hamming":
            ranking, probe = binary, ("hamming", code)
        elif mode == "approx-vlad":
            ranking, probe = t.call("retrieval.rank_vlad", rank_vlad, index, approx), ("vlad", approx)
        elif mode == "adc":
            ranking, probe = t.call("retrieval.rank_adc", rank_adc, index, approx), ("adc", approx)
        elif mode in ("vlad-to-bow", "recon"):
            h = solve("full", vlad_raw if mode == "vlad-to-bow" else approx).histogram
            ranking, probe = by_bow(h), ("bow", h)
        elif mode == "recon-cads":
            cads = solve("cads", approx, candidates)
            ranking, probe = by_bow(cads.histogram), ("bow", cads.histogram)
        else:  # recon-brpk
            if cads is None:
                cads = solve("cads", approx, candidates)
            initial = drop(by_bow(cads.histogram))
            prior = t.call("reconstruct.pseudo_bow", pseudo_bow, index, initial, p.top_r_pseudo)
            mass = cads.histogram.total() or prior.total()
            result = t.call(
                "reconstruct.with_prior",
                reconstruct_bow_with_prior,
                approx,
                tree,
                prior,
                p.alpha,
                candidates,
                mass,
            )
            ranking, probe = by_bow(result.histogram), ("bow", result.histogram)
        out.rankings[mode] = drop(ranking)
        out.probes[mode] = probe
    return out
