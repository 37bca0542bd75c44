"""Hierarchical visual vocabulary: coarse aggregation centers over fine leaf words.

A vocabulary tree is trained by recursive k-means (branch children per node,
``levels`` deep).  One intermediate level is designated the "VLAD level": its
centers are the coarse quantizers used for residual aggregation, and every
leaf below a VLAD center forms that center's candidate visual-word pool.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .reconstruct import ReconstructionContext

TREE_MAGIC = b"DHTREE01"

# Lloyd's iteration defaults: stop when no center moves more than this, or
# after the sweep cap.
KMEANS_TOL = 1e-6
KMEANS_MAX_ITER = 50


def nearest_center(points: np.ndarray, centers: np.ndarray, chunk_size: int = 1024) -> np.ndarray:
    """Index of the closest center per point (squared L2, lowest index on ties).

    Brute-force chunked scan; exact and deterministic, which the quantizer
    contract requires.
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    n = points.shape[0]
    idx = np.empty(n, dtype=np.int64)
    for start in range(0, n, chunk_size):
        block = points[start : start + chunk_size]
        diff = block[:, None, :] - centers[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        idx[start : start + chunk_size] = np.argmin(d2, axis=1)
    return idx


def kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seed k centers with D^2-weighted sampling from the data points."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(n))]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            # All remaining points coincide with chosen centers.
            pick = int(rng.integers(n))
        centers[j] = points[pick]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def lloyd(
    points: np.ndarray,
    centers: np.ndarray,
    max_iter: int = KMEANS_MAX_ITER,
    tol: float = KMEANS_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's iteration from the given initial centers.

    Empty clusters are re-seeded from the largest cluster: the first empty
    center takes that cluster's farthest point from its center, the next
    empty center the second-farthest, and so on.

    Returns (centers, assignments).
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.array(centers, dtype=np.float64)
    k = centers.shape[0]
    for _ in range(max_iter):
        assign = nearest_center(points, centers)
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centers)
        np.add.at(sums, assign, points)
        new_centers = centers.copy()
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        empties = np.flatnonzero(~nonempty)
        if empties.size:
            big = int(np.argmax(counts))
            members = np.flatnonzero(assign == big)
            far = np.argsort(
                -np.sum((points[members] - new_centers[big]) ** 2, axis=1), kind="stable"
            )
            for rank, j in enumerate(empties):
                new_centers[j] = points[members[far[rank % members.size]]]
        shift = float(np.max(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1))))
        centers = new_centers
        if shift < tol:
            break
    return centers, nearest_center(points, centers)


@dataclass(frozen=True)
class VocabularyTree:
    """Two-level view of a trained hierarchical vocabulary.

    ``vlad_centers`` are the coarse centers (level ``vlad_level``); the leaves
    are the fine visual words.  ``sublevel_centers`` holds the centers of the
    levels strictly between the VLAD level and the leaves; they are produced
    by training but are not part of the on-disk format, so a loaded tree only
    supports exhaustive sub-tree quantization when that gap is deeper than
    one level.
    """

    dim: int
    branch: int
    levels: int
    vlad_level: int
    vlad_centers: np.ndarray  # (N, dim) float32
    leaf_centers: np.ndarray  # (M, dim) float32
    parent_of_leaf: np.ndarray  # (M,) uint32
    sublevel_centers: tuple[np.ndarray, ...] = field(default=(), repr=False)

    @property
    def num_vlad_centers(self) -> int:
        return self.vlad_centers.shape[0]

    @property
    def num_leaves(self) -> int:
        return self.leaf_centers.shape[0]

    @cached_property
    def reconstruction_context(self) -> "ReconstructionContext":
        """This tree's cache of per-center difference dictionaries and Grams.

        Created on first access and kept on the instance, so no two trees
        share it; it assumes the tree's arrays are never modified.
        """
        from .reconstruct import ReconstructionContext

        return ReconstructionContext(self)

    def validate(self) -> None:
        if self.vlad_centers.shape[1] != self.dim or self.leaf_centers.shape[1] != self.dim:
            raise ValueError("center dimensionality does not match tree dim")
        if self.num_vlad_centers < 1 or self.num_leaves < self.num_vlad_centers:
            raise ValueError("tree must satisfy 1 <= N <= M")
        if self.parent_of_leaf.shape != (self.num_leaves,):
            raise ValueError("parent_of_leaf must map every leaf")
        if self.parent_of_leaf.max(initial=0) >= self.num_vlad_centers:
            raise ValueError("parent id out of range")


def train_vocabulary(
    descriptors: np.ndarray,
    branch: int,
    levels: int,
    vlad_level: int,
    seed: int = 0,
) -> VocabularyTree:
    """Train a hierarchical k-means vocabulary.

    Args:
        descriptors: (n, D) training descriptors.
        branch: children per node (>= 2).
        levels: tree depth; the leaf level has branch**levels centers.
        vlad_level: level used for coarse residual aggregation (1 <= vlad_level < levels).
        seed: seeds every per-node k-means; identical inputs give identical trees.

    Each node is split with k-means++ initialization followed by Lloyd's
    iteration.  Nodes that receive no descriptors pass their center down to
    all children.
    """
    X = np.asarray(descriptors, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("descriptor set must be a nonempty (n, D) array")
    if not np.all(np.isfinite(X)):
        raise ValueError("descriptors must be finite")
    if branch < 2:
        raise ValueError("branch must be >= 2")
    if not (1 <= vlad_level < levels):
        raise ValueError("vlad_level must satisfy 1 <= vlad_level < levels")

    n, dim = X.shape
    node_of = np.zeros(n, dtype=np.int64)
    prev_centers = X.mean(axis=0)[None, :]
    level_centers: list[np.ndarray] = []
    for level in range(1, levels + 1):
        num_parents = branch ** (level - 1)
        centers_l = np.empty((branch**level, dim), dtype=np.float64)
        new_node_of = np.empty_like(node_of)
        for node in range(num_parents):
            mask = node_of == node
            base = node * branch
            if not mask.any():
                centers_l[base : base + branch] = prev_centers[node]
                continue
            pts = X[mask]
            rng = np.random.default_rng([seed, level, node])
            init = kmeans_pp_init(pts, branch, rng)
            centers, assign = lloyd(pts, init)
            centers_l[base : base + branch] = centers
            new_node_of[mask] = base + assign
        node_of = new_node_of
        prev_centers = centers_l
        level_centers.append(centers_l)

    num_leaves = branch**levels
    spread = branch ** (levels - vlad_level)
    tree = VocabularyTree(
        dim=dim,
        branch=branch,
        levels=levels,
        vlad_level=vlad_level,
        vlad_centers=level_centers[vlad_level - 1].astype(np.float32),
        leaf_centers=level_centers[levels - 1].astype(np.float32),
        parent_of_leaf=(np.arange(num_leaves, dtype=np.uint32) // spread).astype(np.uint32),
        sublevel_centers=tuple(
            c.astype(np.float32) for c in level_centers[vlad_level : levels - 1]
        ),
    )
    tree.validate()
    return tree


def vlad_assignments(tree: VocabularyTree, descriptors: np.ndarray) -> np.ndarray:
    """Coarse-center id for each descriptor row."""
    X = np.atleast_2d(np.asarray(descriptors, dtype=np.float64))
    if X.shape[1] != tree.dim:
        raise ValueError(f"descriptor dim {X.shape[1]} != tree dim {tree.dim}")
    return nearest_center(X, tree.vlad_centers)


def quantize_vlad(tree: VocabularyTree, descriptor: np.ndarray) -> int:
    """Nearest coarse center (lowest id on exact ties)."""
    return int(vlad_assignments(tree, descriptor)[0])


def subtree_leaves(tree: VocabularyTree, vlad_id: int) -> np.ndarray:
    """All leaf ids under a coarse center, ascending."""
    if not 0 <= vlad_id < tree.num_vlad_centers:
        raise ValueError(f"vlad_id {vlad_id} out of range")
    return np.flatnonzero(tree.parent_of_leaf == vlad_id).astype(np.int64)


def leaf_assignments(
    tree: VocabularyTree,
    descriptors: np.ndarray,
    mode: str = "exhaustive-subtree",
) -> np.ndarray:
    """Leaf id per descriptor row.

    ``exhaustive-subtree`` scans every leaf under the descriptor's coarse
    center; ``greedy-path`` descends one best child per level below it.  The
    returned leaf always lies under the coarse center picked by
    ``vlad_assignments``.
    """
    X = np.atleast_2d(np.asarray(descriptors, dtype=np.float64))
    if X.shape[1] != tree.dim:
        raise ValueError(f"descriptor dim {X.shape[1]} != tree dim {tree.dim}")
    vlad_ids = vlad_assignments(tree, X)
    if mode == "exhaustive-subtree":
        leaves = np.empty(X.shape[0], dtype=np.int64)
        for v in np.unique(vlad_ids):
            pool = subtree_leaves(tree, int(v))
            rows = np.flatnonzero(vlad_ids == v)
            local = nearest_center(X[rows], tree.leaf_centers[pool])
            leaves[rows] = pool[local]
        return leaves
    if mode == "greedy-path":
        depth = tree.levels - tree.vlad_level
        if depth > 1 and len(tree.sublevel_centers) != depth - 1:
            raise ValueError(
                "greedy-path needs intermediate level centers, which the tree "
                "file format does not retain; use exhaustive-subtree or a "
                "freshly trained tree"
            )
        node = vlad_ids.copy()
        per_level = list(tree.sublevel_centers) + [tree.leaf_centers]
        for centers_l in per_level:
            child_ids = node[:, None] * tree.branch + np.arange(tree.branch)
            cand = np.asarray(centers_l, dtype=np.float64)[child_ids]  # (n, branch, dim)
            d2 = np.einsum("ijk,ijk->ij", cand - X[:, None, :], cand - X[:, None, :])
            node = child_ids[np.arange(X.shape[0]), np.argmin(d2, axis=1)]
        return node
    raise ValueError(f"unknown quantization mode: {mode!r}")


def quantize_leaf(tree: VocabularyTree, descriptor: np.ndarray, mode: str = "exhaustive-subtree") -> int:
    return int(leaf_assignments(tree, descriptor, mode)[0])


def save_tree(tree: VocabularyTree, path) -> None:
    """Write the two persisted levels of the tree (little-endian binary)."""
    tree.validate()
    with open(path, "wb") as f:
        f.write(TREE_MAGIC)
        f.write(
            struct.pack(
                "<6I",
                tree.dim,
                tree.num_vlad_centers,
                tree.num_leaves,
                tree.branch,
                tree.levels,
                tree.vlad_level,
            )
        )
        f.write(np.ascontiguousarray(tree.vlad_centers, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(tree.leaf_centers, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(tree.parent_of_leaf, dtype="<u4").tobytes())


def read_header(path, magic: bytes, header: str, what: str) -> tuple[bytes, tuple, int]:
    """The bytes of ``path``, its ``struct`` ``header`` fields after ``magic``,
    and the offset where the payload starts.

    A wrong magic or a file that ends inside the header raises ``ValueError``
    naming ``path``; the caller checks that the payload fills the rest exactly.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[: len(magic)] != magic:
        raise ValueError(f"{path}: bad magic, not a {what} file")
    off = len(magic) + struct.calcsize(header)
    if len(data) < off:
        raise ValueError(f"{path}: truncated header at byte {len(data)}, expected {off}")
    return data, struct.unpack_from(header, data, len(magic)), off


def load_tree(path) -> VocabularyTree:
    data, (dim, n, m, branch, levels, vlad_level), off = read_header(
        path, TREE_MAGIC, "<6I", "vocabulary tree"
    )
    need = off + (n + m) * dim * 4 + m * 4
    if len(data) != need:
        raise ValueError(f"{path}: payload ends at byte {len(data)}, expected {need}")
    vlad_centers = np.frombuffer(data, dtype="<f4", count=n * dim, offset=off).reshape(n, dim)
    off += n * dim * 4
    leaf_centers = np.frombuffer(data, dtype="<f4", count=m * dim, offset=off).reshape(m, dim)
    off += m * dim * 4
    parents = np.frombuffer(data, dtype="<u4", count=m, offset=off)
    tree = VocabularyTree(
        dim=int(dim),
        branch=int(branch),
        levels=int(levels),
        vlad_level=int(vlad_level),
        vlad_centers=vlad_centers.copy(),
        leaf_centers=leaf_centers.copy(),
        parent_of_leaf=parents.copy(),
    )
    tree.validate()
    return tree
