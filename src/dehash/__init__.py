"""Binary-code image retrieval with server-side BoW reconstruction.

The mobile side aggregates local descriptors into a VLAD signature and hashes
it into a short binary code; the server reverses the code into an
approximated VLAD and recovers a context-aware bag-of-words histogram from it
by sparse recovery over per-center difference dictionaries.

The package root carries what a caller of the pipeline needs; every stage's
own functions live in its module (``dehash.hashing``, ``dehash.retrieval``,
...).
"""

from .pipeline import ExperimentConfig, HashParams, PQParams, ReconParams, TreeParams, rank_query, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "HashParams",
    "PQParams",
    "ReconParams",
    "TreeParams",
    "rank_query",
    "run_pipeline",
]
