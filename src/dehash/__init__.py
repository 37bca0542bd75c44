"""Binary-code image retrieval with server-side BoW reconstruction.

The mobile side aggregates local descriptors into a VLAD signature and hashes
it into a short binary code; the server reverses the code into an
approximated VLAD and recovers a context-aware bag-of-words histogram from it
by sparse recovery over per-center difference dictionaries.
"""

from .aggregate import BowHistogram, VladVector, compute_bow, compute_vlad, normalize_vlad
from .formats import ContextTag
from .hashing import (
    BinaryCode,
    HashingModel,
    approximate_vlad,
    encode,
    train_hashing,
)
from .reconstruct import (
    CandidateVWs,
    build_dictionary,
    combine_candidates,
    pseudo_bow,
    reconstruct_bow,
    reconstruct_bow_with_prior,
)
from .retrieval import (
    DatabaseIndex,
    Ranking,
    build_index,
    mean_average_precision,
    ndcg,
    rank_adc,
    rank_bow,
    rank_gps,
    rank_hamming,
    rank_vlad,
    recall_at,
    simulate_gps,
)
from .sparse import Dictionary, solve_nn_lasso, solve_tikhonov
from .vocab import VocabularyTree, quantize_leaf, quantize_vlad, subtree_leaves, train_vocabulary

__version__ = "0.1.0"

__all__ = [
    "BinaryCode",
    "BowHistogram",
    "CandidateVWs",
    "ContextTag",
    "DatabaseIndex",
    "Dictionary",
    "HashingModel",
    "Ranking",
    "VladVector",
    "VocabularyTree",
    "approximate_vlad",
    "build_dictionary",
    "build_index",
    "combine_candidates",
    "compute_bow",
    "compute_vlad",
    "encode",
    "mean_average_precision",
    "ndcg",
    "normalize_vlad",
    "pseudo_bow",
    "quantize_leaf",
    "quantize_vlad",
    "rank_adc",
    "rank_bow",
    "rank_gps",
    "rank_hamming",
    "rank_vlad",
    "recall_at",
    "reconstruct_bow",
    "reconstruct_bow_with_prior",
    "simulate_gps",
    "solve_nn_lasso",
    "solve_tikhonov",
    "subtree_leaves",
    "train_hashing",
    "train_vocabulary",
]
