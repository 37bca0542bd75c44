"""Workloads, the closed loop, and the metrics of the dehash benchmark.

``run.py`` is the command; it pins BLAS threads and puts ``src/`` on the
path before importing this module.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import statistics
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import dehash
import serving
from calibrate import REFERENCE_S, Calibrator
from checks import Checker
from dehash.retrieval import attach_pq, average_precision, build_index
from spans import NoTrace, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"


@dataclass(frozen=True)
class Workload:
    num_images: int
    modes: tuple[str, ...]
    # "group": the first member of each relevance group, as the pipeline picks;
    # "relevant": every image that has relevant images.
    queries: str
    min_queries: int  # a run times at least this many queries
    setup_repeats: int  # set-up runs per benchmark run; setup_s is their median


# Why each workload exists is written in README.md and BENCHMARK.json.

WORKLOADS = {
    "scan-5k": Workload(
        num_images=5000,
        modes=("bow", "vlad", "approx-vlad", "hamming", "adc", "gps"),
        queries="group",
        min_queries=60,  # about 0.2 s each; the run budget affords no more
        setup_repeats=1,  # one 5k set-up takes 20-30 s; the run budget affords one
    ),
    "recon-300": Workload(
        num_images=300,
        modes=("recon", "recon-cads", "recon-brpk", "vlad-to-bow"),
        queries="relevant",
        min_queries=200,  # enough for a p95 with ten samples beyond it
        setup_repeats=5,
    ),
}

# The map rows come from one fixed evaluation set, the same for every workload
# and seed: the pipeline's query choice and all ten modes on a synthetic
# dataset of EVAL_IMAGES images drawn with EVAL_SEED.  A row of a dataset drawn
# from the run's seed moves with the draw (up to 7% between seeds on 300
# images, however many queries are scored), and a bound that wide would pass
# an mAP loss of that size; on fixed data any change of a row is a change of
# the program.  README.md gives the measured spreads.
EVAL_IMAGES = 300
EVAL_SEED = 0

# Modes with a map row; gps is ranked but has no row.
MAP_MODES = (
    "bow", "vlad", "approx-vlad", "hamming", "adc", "vlad-to-bow", "recon", "recon-cads", "recon-brpk"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "index_images_per_s": "images/s",
    "index_mib": "MiB",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "queries_per_s": "1/s",
    "query_ok_frac": "fraction",
    **{f"map.{m}": "mAP" for m in MAP_MODES},
}

PER_LAYER_UNITS = {
    "aggregate.compute_vlad_us": "us",
    "aggregate.compute_bow_us": "us",
    "vocab.train_vocabulary_s": "s",
    "dataset.ingest_s": "s",
    "dataset.synthesize_s": "s",
    "hashing.train_hashing_s": "s",
    "hashing.encode_us": "us",
    "hashing.approximate_vlad_us": "us",
    "retrieval.build_index_s": "s",
    "retrieval.attach_pq_s": "s",
    "retrieval.train_pq_s": "s",
    "retrieval.rank_bow_ms": "ms",
    "retrieval.rank_bow_calls": "count/query",
    "retrieval.rank_bow_query_words": "words",
    "retrieval.rank_hamming_ms": "ms",
    "retrieval.rank_vlad_ms": "ms",
    "retrieval.rank_adc_ms": "ms",
    "retrieval.rank_gps_ms": "ms",
    "retrieval.drop_ms": "ms",
    "retrieval.degenerate_rankings": "count/query",
    "reconstruct.candidates_ms": "ms",
    "reconstruct.full_ms": "ms",
    "reconstruct.cads_ms": "ms",
    "reconstruct.with_prior_ms": "ms",
    "reconstruct.pseudo_bow_us": "us",
    "reconstruct.full_width": "columns",
    "reconstruct.cads_width": "columns",
    "sparse.solves": "count/query",
    "sparse.path_events": "count/query",
    "sparse.events_per_solve": "count",
    "sparse.nonconverged": "count/query",
    "sparse.converged_frac": "fraction",
    "sparse.ms_per_solve": "ms",
    "query.self_ms": "ms",
    "trace.overhead_frac": "fraction",
}


class LoopResult:
    """What the closed loop measured and counted."""

    def __init__(self, modes) -> None:
        self.seconds: list[float] = []  # server time per query, in loop order
        self.traced: list[bool] = []
        self.kernel_s: list[float] = []  # the reference kernel, run after each query
        self.aps: dict[str, list[float]] = {m: [] for m in modes}
        self.failures: list[str] = []
        self.counts = {
            "bow_calls": 0,
            "bow_words": 0,
            "degenerate": 0,
            "solves": {"full": [], "cads": []},
        }

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    def server_s(self, traced: bool, calib: Calibrator | None = None) -> list[float]:
        """Per-query server seconds; scaled to the reference host when ``calib``
        is given, by the kernel runs of the nine queries around each one."""
        return [
            s if calib is None else s * calib.factor(self.kernel_s[max(0, i - 4) : i + 5])
            for i, (s, t) in enumerate(zip(self.seconds, self.traced))
            if t == traced
        ]


def closed_loop(
    server, queries, modes, seconds, min_queries, checker, calib=None, tracer=None, score=False
):
    """One client: the next query goes out when the previous one returned.

    Runs until ``seconds`` of server time have passed and at least
    ``min_queries`` queries were served, cycling through ``queries``.  Only
    the call that serves the query is timed; the checks, the average
    precision when ``score`` is set, and the reference kernel when ``calib``
    is given run with the clock stopped.  With a tracer, every other query
    is traced.
    """
    result = LoopResult(modes)
    busy, n = 0.0, 0
    while busy < seconds or n < min_queries:
        qid = queries[n % len(queries)]
        traced = tracer is not None and n % 2 == 0
        start = perf_counter()
        try:
            if traced:
                tracer.query = qid
                served = tracer.call("query", serving.serve_query, server, qid, modes, tracer)
            else:
                served = serving.serve_query(server, qid, modes)
            error = None
        except Exception as exc:  # a query that raises is a failed query, not a crashed run
            served, error = None, f"{qid}: raised {exc!r}"
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.query = None
        busy += elapsed
        result.seconds.append(elapsed)
        result.traced.append(traced)
        if served is not None:
            for mode, ranking in served.rankings.items():
                problem = checker.check(ranking, qid, *served.probes[mode])
                if problem:
                    error = f"{qid} {mode}: {problem}"
                    break
                if score:
                    result.aps[mode].append(average_precision(ranking, set(server.relevance[qid])))
            if traced:
                count_outputs(served, result.counts)
        if error:
            result.failures.append(error)
        if calib is not None:
            result.kernel_s.append(calib.kernel())
        n += 1
    return result


def count_outputs(served, counts) -> None:
    counts["bow_calls"] += len(served.bow_query_words)
    counts["bow_words"] += sum(served.bow_query_words)
    counts["degenerate"] += sum(r.degenerate for r in served.rankings.values())
    for kind, result in served.solves:
        counts["solves"][kind].extend(r for r in result.reports if not r.skipped)


def index_mib(server, with_pq: bool) -> float:
    """Bytes a freshly built index holds, as Python allocated them (not RSS).

    Its own pass: tracemalloc slows allocation, so it never runs while timing.
    Only allocations made from the package's files count; the PQ codebooks
    are reused from set-up and so are not counted.
    """

    package = os.path.join(os.path.dirname(dehash.__file__), "*")
    dataset = server.dataset
    gc.collect()
    tracemalloc.start()
    try:
        index = build_index(
            server.tree,
            server.model,
            dataset.descriptors,
            gps=dataset.gps_by_id(),
            categories=dataset.categories_by_id(),
        )
        if with_pq:
            attach_pq(index, server.index.pq)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.Filter(True, package)])
    return sum(stat.size for stat in held.statistics("filename")) / 2**20


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(workload: str, seed: int, queries_timed: int) -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu_model
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(ROOT),
        "queries_timed": queries_timed,
    }


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def timings(workload: Workload, setups: list, loop: LoopResult, calib: Calibrator | None) -> dict:
    """Timing metrics, scaled to the reference host when ``calib`` is given."""
    lat_s = loop.server_s(False, calib)

    def seconds(stage_s, stage_scale, stages=None) -> float:
        return sum(
            raw * (stage_scale[name] if calib else 1.0)
            for name, raw in stage_s.items()
            if stages is None or name in stages
        )

    index_stages = ("retrieval.build_index", "retrieval.attach_pq")
    return {
        "setup_s": statistics.median(seconds(*setup) for setup in setups),
        "index_images_per_s": statistics.median(
            workload.num_images / seconds(*setup, index_stages) for setup in setups
        ),
        "query_p50_ms": statistics.median(lat_s) * 1e3,
        "query_p95_ms": float(np.percentile(lat_s, 95)) * 1e3,
        "queries_per_s": len(lat_s) / sum(lat_s),
    }


def end_to_end(
    workload: Workload, setups: list, loop: LoopResult, evaluation: LoopResult, mib: float, calib: Calibrator
) -> dict:
    """The user-visible figures, from the untraced runs only."""
    attempted = loop.attempted + evaluation.attempted
    failed = len(loop.failures) + len(evaluation.failures)
    values = {
        **timings(workload, setups, loop, calib),
        "index_mib": mib,
        "query_ok_frac": 1.0 - failed / attempted,
    }
    for mode in MAP_MODES:
        aps = evaluation.aps[mode]
        # np.mean, as mean_average_precision averages; 0.0 only when every query failed.
        values[f"map.{mode}"] = float(np.mean(aps)) if aps else 0.0
    return values


def per_layer(tracer, loop: LoopResult, calib: Calibrator) -> dict:
    """Per-call costs and counts from the traced queries and the traced set-up.

    Times are scaled to the reference host by the run's median kernel time.
    """
    scale = calib.factor(calib.samples)
    setup = tracer.by_name(queries_only=False)
    query = tracer.by_name(queries_only=True)
    traced = len(query["query"])

    def total_s(name):
        return scale * sum(span.duration_ns for span, _ in setup.get(name, ())) / 1e9

    def per_call(name, unit_ns):
        spans = query.get(name, ())
        return scale * mean(span.duration_ns for span, _ in spans) / unit_ns

    counts = loop.counts
    solves = counts["solves"]["full"] + counts["solves"]["cads"]
    solve_ns = sum(
        span.duration_ns for name in ("reconstruct.full", "reconstruct.cads") for span, _ in query.get(name, ())
    )
    nonconverged = sum(not r.converged for r in solves)
    events = sum(r.sweeps for r in solves)
    return {
        "aggregate.compute_vlad_us": per_call("aggregate.compute_vlad", 1e3),
        "aggregate.compute_bow_us": per_call("aggregate.compute_bow", 1e3),
        "vocab.train_vocabulary_s": total_s("vocab.train_vocabulary"),
        "dataset.ingest_s": total_s("dataset.ingest"),
        "dataset.synthesize_s": total_s("dataset.synthesize"),
        "hashing.train_hashing_s": total_s("hashing.train_hashing"),
        "hashing.encode_us": per_call("hashing.encode", 1e3),
        "hashing.approximate_vlad_us": per_call("hashing.approximate_vlad", 1e3),
        "retrieval.build_index_s": total_s("retrieval.build_index"),
        "retrieval.attach_pq_s": total_s("retrieval.attach_pq"),
        "retrieval.train_pq_s": total_s("retrieval.train_pq"),
        "retrieval.rank_bow_ms": per_call("retrieval.rank_bow", 1e6),
        "retrieval.rank_bow_calls": counts["bow_calls"] / traced,
        "retrieval.rank_bow_query_words": counts["bow_words"] / max(counts["bow_calls"], 1),
        "retrieval.rank_hamming_ms": per_call("retrieval.rank_hamming", 1e6),
        "retrieval.rank_vlad_ms": per_call("retrieval.rank_vlad", 1e6),
        "retrieval.rank_adc_ms": per_call("retrieval.rank_adc", 1e6),
        "retrieval.rank_gps_ms": per_call("retrieval.rank_gps", 1e6),
        "retrieval.drop_ms": per_call("retrieval.drop", 1e6),
        "retrieval.degenerate_rankings": counts["degenerate"] / traced,
        "reconstruct.candidates_ms": per_call("reconstruct.candidates", 1e6),
        "reconstruct.full_ms": per_call("reconstruct.full", 1e6),
        "reconstruct.cads_ms": per_call("reconstruct.cads", 1e6),
        "reconstruct.with_prior_ms": per_call("reconstruct.with_prior", 1e6),
        "reconstruct.pseudo_bow_us": per_call("reconstruct.pseudo_bow", 1e3),
        "reconstruct.full_width": mean(r.columns for r in counts["solves"]["full"]),
        "reconstruct.cads_width": mean(r.columns for r in counts["solves"]["cads"]),
        "sparse.solves": len(solves) / traced,
        "sparse.path_events": events / traced,
        "sparse.events_per_solve": events / len(solves) if solves else 0.0,
        "sparse.nonconverged": nonconverged / traced,
        "sparse.converged_frac": 1.0 - nonconverged / len(solves) if solves else 0.0,
        # Derived: time in reconstruct_bow per NN-lasso solve it ran.
        "sparse.ms_per_solve": scale * solve_ns / 1e6 / len(solves) if solves else 0.0,
        "query.self_ms": scale * mean(own for _, own in query["query"]) / 1e6,
        "trace.overhead_frac": (
            statistics.median(loop.server_s(True, calib)) / statistics.median(loop.server_s(False, calib)) - 1.0
        ),
    }


def build(params, num_images: int, seed: int, with_pq: bool, repeats: int, calib: Calibrator, t, tag: str):
    """Make the inputs, then set up ``repeats`` times; returns the last server
    and the (raw seconds, scale) per stage of every set-up."""
    data_dir = OUT_DIR / f"data-{tag}-{seed}-{os.getpid()}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    setups = []
    try:
        blob, manifest = serving.make_inputs(params, num_images, seed, data_dir, t)
        for _ in range(repeats):
            server = None  # let the previous server go before timing the next
            gc.collect()
            server = serving.set_up(params, blob, manifest, with_pq, calib, t)
            setups.append((server.stage_s, server.stage_scale))
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    return server, setups


def evaluate(params, calib: Calibrator) -> LoopResult:
    """Serve and score every query of the fixed evaluation set under all ten
    modes, untimed; equal to the pipeline's report on that set (selftest.py)."""
    server, _ = build(params, EVAL_IMAGES, EVAL_SEED, True, 1, calib, NoTrace(), "eval")
    queries = serving.group_queries(server.dataset)
    checker = Checker(server.index)
    return closed_loop(server, queries, serving.ALL_MODES, 0.0, len(queries), checker, score=True)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    params = serving.Params()
    with_pq = "adc" in workload.modes
    tracer = Tracer() if trace else None
    calib = Calibrator()
    repeats = 1 if trace else workload.setup_repeats
    server, setups = build(
        params, workload.num_images, seed, with_pq, repeats, calib, tracer or NoTrace(), workload_name
    )
    pick = serving.group_queries if workload.queries == "group" else serving.relevant_queries
    checker = Checker(server.index)
    gc.collect()
    loop = closed_loop(
        server, pick(server.dataset), workload.modes, seconds, workload.min_queries, checker, calib, tracer
    )

    if trace:
        values, raw = per_layer(tracer, loop, calib), {}
        units = PER_LAYER_UNITS
        attempted, failures = loop.attempted, loop.failures
        tracer.write_jsonl(OUT_DIR / f"{workload_name}-seed{seed}.spans.jsonl")
    else:
        mib = index_mib(server, with_pq)
        evaluation = evaluate(params, calib)
        values = end_to_end(workload, setups, loop, evaluation, mib, calib)
        raw = timings(workload, setups, loop, None)
        units = END_TO_END_UNITS
        attempted = loop.attempted + evaluation.attempted
        failures = loop.failures + evaluation.failures

    facts = {
        **machine_facts(workload_name, seed, loop.traced.count(False)),
        "reference_kernel_s": REFERENCE_S,
        "kernel_median_s": statistics.median(calib.samples),
    }
    if not trace:
        facts["map_rows_from"] = {
            "images": EVAL_IMAGES,
            "synthetic_seed": EVAL_SEED,
            "queries": evaluation.attempted,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    summary = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    (OUT_DIR / f"{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"facts": facts, "failures": failures, "raw_timings": raw, **summary}, indent=2) + "\n"
    )
    print("facts " + json.dumps(facts))
    print("times are scaled to a host where the reference kernel takes reference_kernel_s")
    if not trace:
        print("raw timings " + json.dumps(raw))
        print("index_mib counts bytes Python allocated from dehash files for the index, not RSS")
        print(f"map rows score the fixed evaluation set ({EVAL_IMAGES} images, synthetic seed {EVAL_SEED})")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(summary))
    return 0 if not failures else 1


