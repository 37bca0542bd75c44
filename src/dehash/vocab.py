"""Hierarchical visual vocabulary: coarse aggregation centers over fine leaf words.

A vocabulary tree is trained by recursive k-means (branch children per node,
``levels`` deep).  One intermediate level is designated the "VLAD level": its
centers are the coarse quantizers used for residual aggregation, and every
leaf below a VLAD center forms that center's candidate visual-word pool.
With ``N`` coarse centers and ``M`` leaves, center ``v``'s pool is the
``P = M / N`` consecutive leaves ``v*P`` to ``v*P + P - 1``.

:func:`kmeans` is the package's one k-means: it splits a level's tree nodes
here and trains each product-quantizer codebook in ``retrieval.train_pq``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .reconstruct import ReconstructionContext

# Lloyd's iteration defaults: stop when no center moves more than this, or
# after the sweep cap.
KMEANS_TOL = 1e-6
KMEANS_MAX_ITER = 50
# Most rows one pass holds: a pass of ``aggregate_images`` quantizes this
# many descriptor rows together, and ``train_vocabulary`` splits a batch of
# nodes of one level over this many.  It bounds a pass's temporaries (rows,
# residuals, sum keys, distances: a few MiB), so a large database or
# training set does not fault in hundreds of MiB of fresh pages; an image
# or node with more rows gets a pass of its own.  Each level of the default
# tree (4000 rows) is one batch.
PASS_ROWS = 2**14


# Score-matrix entries per block of rows in ``nearest_center``: about 2 MiB.
_SCORE_BLOCK_ELEMENTS = 2**18
# Up to this many (row, leaf) scores, one product over every leaf beats one
# ``nearest_center`` call per pool in ``assign_descriptors`` (on the default
# tree the two cross between 512 and 1024 rows); it also bounds the product
# to about 2 MiB.
_LEAF_PRODUCT_MAX_SCORES = 2**18
_U = np.finfo(np.float64).eps / 2  # unit roundoff
_TINY = np.finfo(np.float64).smallest_subnormal


def _difference_scan(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Argmin of ``einsum`` over explicit differences, a block of rows at a time."""
    idx = np.empty(points.shape[0], dtype=np.int64)
    block = max(1, _SCORE_BLOCK_ELEMENTS // max(1, centers.size))
    for start in range(0, points.shape[0], block):
        diff = points[start : start + block, None, :] - centers[None, :, :]
        idx[start : start + block] = np.argmin(np.einsum("ijk,ijk->ij", diff, diff), axis=1)
    return idx


def nearest_center(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the closest center per point (squared L2, lowest index on ties).

    The result is the argmin of ``D_j = einsum(x - c_j, x - c_j)`` evaluated in
    floating point, lowest index among equal values, exactly as a full scan
    over explicit differences gives it; the quantizer contract requires that.
    Scanning every difference costs an ``(n, k, d)`` tensor, so the kernel
    instead scores a block of rows with one matrix product,
    ``S_j = |c_j|^2 + x.(-2 c_j)`` (equal to ``D_j - |x|^2`` in exact
    arithmetic), and lets :func:`_certified_argmin` re-score with the
    difference form only where ``S`` cannot decide; the same certification
    decides ``assign_descriptors``' one-product leaf search.  A row whose point is
    not finite, and every row when a center is not finite, or when ``4 R^2``
    overflows, falls back to the full difference scan, so NaN and overflow
    select what that scan selects.
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    n = points.shape[0]
    k = centers.shape[0]
    idx = np.empty(n, dtype=np.int64)
    sq_norms = np.einsum("ij,ij->i", centers, centers)
    c_max = np.sqrt(sq_norms.max())
    scaled = -2.0 * centers.T
    block = max(1, _SCORE_BLOCK_ELEMENTS // k)
    for start in range(0, n, block):
        X = points[start : start + block]
        scores = X @ scaled
        scores += sq_norms
        best, exact = _certified_argmin(X, scores, c_max, lambda rows, cols: centers[cols])
        if not exact.all():
            scan = np.flatnonzero(~exact)
            best[scan] = _difference_scan(X[scan], centers)
        idx[start : start + block] = best
    return idx


def _certified_argmin(
    X: np.ndarray,
    scores: np.ndarray,
    c_max: float | np.ndarray,
    centers_of: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first minimum of the difference form over its candidate
    centers, from their product-form scores, and which rows it decided.

    Column ``j`` of ``scores`` is ``fl(S_j) = |c_j|^2 + x.(-2 c_j)`` for row
    ``x`` of ``X`` and its candidate center ``c_j``; candidates ascend by
    center index along a row.  ``c_max`` bounds the
    norm of every candidate center of a row (one bound, or one per row), and
    ``centers_of(rows, cols)`` gives the center at each (row, column).
    Returns the column of each row's answer, and ``exact``: false for a row
    whose answer is left to the caller's difference scan.

    Why the candidates always hold the exact answer.  With unit roundoff
    ``u = 2**-53`` and ``g = (d + 2) u / (1 - (d + 2) u)``, and
    ``R = |x| + c_max``, standard summation bounds hold for any order of the
    sums, so for whatever summation order the BLAS uses:

    * the difference form has ``d`` subtractions, ``d`` squarings and
      ``d - 1`` additions of non-negative terms, so
      ``|fl(D_j) - D_j| <= g D_j <= g R^2``;
    * ``|c|^2`` and ``x.(-2c)`` are ``d``-term dot products (scaling by -2
      is exact) with errors of at most ``g |c|^2`` and ``2 g |x||c|``
      (Cauchy-Schwarz), and their sum rounds once more, so
      ``|fl(S_j) - S_j| <= g (|c_j|^2 + 2 |x||c_j|) <= g R^2``.

    Let ``j*`` be the answer and ``m`` the column of the smallest ``fl(S)``.
    ``fl(D_j*) <= fl(D_m)`` gives ``S_j* <= S_m + 2 g R^2``, hence
    ``fl(S_j*) <= fl(S_m) + 4 g R^2``.  Every candidate scoring within
    ``tau = 8 g R^2`` of the row minimum is therefore kept: the factor two
    over the proof covers the rounding of ``R``, of ``tau`` itself and of the
    comparison, and ``8 (d + 2)`` smallest subnormals are added for products
    that underflow.  A row with one candidate kept is decided (it is ``m``);
    a row with several re-scores them with the difference form and takes the
    lowest column among the smallest values, which is ``j*`` because ``j*``
    is the first minimum over all candidates.  A row whose ``4 R^2`` is not
    finite (a NaN or inf in ``x`` or a candidate, or overflow) is not
    decided.
    """
    n, d = X.shape
    g = (d + 2) * _U / (1 - (d + 2) * _U)
    floor = 8 * (d + 2) * _TINY
    best = np.argmin(scores, axis=1)
    r2 = np.sqrt(np.einsum("ij,ij->i", X, X))
    r2 += c_max
    r2 *= r2  # R^2
    exact = np.isfinite(4 * r2)
    limit = scores[np.arange(n), best]
    limit += (8 * g) * r2 + floor
    near = scores <= limit[:, None]
    # A decided row always keeps its own minimum, so as many candidates as
    # rows, all exact, means every row is decided: the usual case.
    if not exact.all() or np.count_nonzero(near) > n:
        tied = np.flatnonzero(exact & (np.count_nonzero(near, axis=1) > 1))
        rows, cols = np.nonzero(near[tied])
        rows = tied[rows]
        diff = X[rows] - centers_of(rows, cols)
        d2 = np.einsum("ij,ij->i", diff, diff)
        # Pairs arrive by row, then ascending column: a stable sort on
        # (row, d2) puts each row's lowest-column minimum first.
        order = np.lexsort((d2, rows))
        best[tied] = cols[order[np.flatnonzero(np.diff(rows[order], prepend=-1))]]
    return best, exact


def cluster_sums(assign: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """``(k, d)`` sums of ``rows`` per label in ``assign``, each added in row order.

    One ``np.bincount`` over the row-major entries, keyed by (label, column),
    adds the same values in the same order as ``np.add.at`` on a zero array,
    so the sums are bit-identical.
    """
    d = rows.shape[1]
    keys = (assign[:, None] * d + np.arange(d)).ravel()
    return np.bincount(keys, weights=rows.ravel(), minlength=k * d).reshape(k, d)


def column_sq_distances(columns: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared L2 distances from ``point`` to every column of a ``(d, n)``
    array: ``np.sum((np.ascontiguousarray(columns.T) - point) ** 2, axis=1)``
    bit for bit.  (Without the copy, C-ordered ``columns`` give an F-ordered
    difference whose row sums numpy adds sequentially, not pairwise, so they
    can differ in the last bits.)

    The squared differences are streamed 8 rows at a time into
    :func:`pairwise_row_sums`, so nothing of size ``(d, n)`` is built.
    """

    def squares(lo: int, hi: int, out: np.ndarray) -> None:
        np.subtract(columns[lo:hi], point[lo:hi, None], out=out)
        np.square(out, out=out)

    return pairwise_row_sums(squares, len(columns), columns.shape[1])


def pairwise_row_sums(
    load: Callable[[int, int, np.ndarray], None], d: int, n: int, scratch: np.ndarray | None = None
) -> np.ndarray:
    """The sum of ``d`` length-``n`` rows, added as ``np.sum(a, axis=1)``
    adds the rows of a C-ordered ``(n, d)`` array ``a``, bit for bit.
    ``load(lo, hi, out)`` writes rows ``lo:hi`` into ``out``, an
    ``(hi - lo, n)`` float64 array.

    ``np.sum(x, axis=1)`` on a C-contiguous ``(n, d)`` array sums each row by
    numpy's pairwise scheme: below 8 terms one running sum from 0; up to 128
    terms eight running sums over strides of 8, combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the
    remainder added one by one; above 128 terms the two halves split at the
    multiple of 8 at or below ``d // 2``, each summed the same way.  Here the
    same additions run on whole length-``n`` rows, loaded 8 at a time and
    added into eight running sums, so the terms are never all held at once.
    Sums start from ``+0.0``, which changes nothing for terms that are not
    ``-0.0``, such as squares and sums of squares.  ``scratch``, a
    ``(16, n)`` float64 array, holds the running sums and the group; a new
    one is made when it is not given.
    """
    if scratch is None:
        scratch = np.empty((16, n))
    return _pairwise_rows(load, 0, d, scratch[:8], scratch[8:])


def _pairwise_rows(
    load: Callable[[int, int, np.ndarray], None], lo: int, hi: int, sums: np.ndarray, group: np.ndarray
) -> np.ndarray:
    """Rows ``lo:hi`` of :func:`pairwise_row_sums`, summed into a new array."""
    d = hi - lo
    if d > 128:
        half = d // 2
        half -= half % 8
        total = _pairwise_rows(load, lo, lo + half, sums, group)
        total += _pairwise_rows(load, lo + half, hi, sums, group)
        return total
    stop = hi - d % 8
    if d >= 8:
        load(lo, lo + 8, sums)
        for i in range(lo + 8, stop, 8):
            load(i, i + 8, group)
            sums += group
        pairs = sums[0::2]
        pairs += sums[1::2]  # rows 0, 2, 4, 6: r0 + r1, r2 + r3, r4 + r5, r6 + r7
        quads = pairs[0::2]
        quads += pairs[1::2]  # rows 0, 4: (r0 + r1) + (r2 + r3), (r4 + r5) + (r6 + r7)
        total = quads[0] + quads[1]
    else:
        total = np.zeros(sums.shape[1])
    row = group[:1]
    for i in range(stop, hi):
        load(i, i + 1, row)
        total += row[0]
    return total


def _weighted_pick(d2: np.ndarray, rng: np.random.Generator) -> int:
    """An index drawn with probability proportional to ``d2``, or uniformly
    when every weight is zero.

    The draw is the one ``rng.choice(len(d2), p=d2 / total)`` makes: the same
    cumulative sum, renormalization and ``searchsorted`` of one
    ``rng.random()``, without re-validating the weights on every call.  A
    total that overflows raises ``ValueError``, as ``rng.choice`` does.
    """
    total = float(d2.sum())
    if not total > 0.0:
        return int(rng.integers(len(d2)))
    if total == np.inf:
        raise ValueError("squared distances overflow float64")
    cdf = (d2 / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _reassign(
    points: np.ndarray, centers: np.ndarray, new_centers: np.ndarray, assign: np.ndarray
) -> np.ndarray:
    """``nearest_center(points, new_centers)``, given that ``assign`` is
    ``nearest_center(points, centers)``: only what moved is scored again.

    * A center whose new coordinates equal its old ones bit for bit gives
      every row the same difference-form distance as before.  So a row whose
      own center stayed keeps, among the centers that stayed, its first
      minimum: every lower-index center that stayed is still strictly
      farther, every other one no nearer.
    * The only rival left is the first minimum over the centers that moved,
      one ``nearest_center(X, new_centers[moved])`` call (the subset keeps
      the index order, so its first minimum is the lowest index).  It takes
      the row when its difference-form distance is smaller, or equal at a
      lower index, which is ``nearest_center``'s tie rule.  With finite
      points and centers no distance is NaN, so this comparison is a total
      order.
    * Rows whose own center moved, and rows with a non-finite point, are
      scored against all centers.
    * Every row is, in one call, when ``m + 3 d >= k`` for ``m`` moved
      centers.  A row whose center stayed costs the step about ``m + 4 d``
      floats read (it is gathered, scored against the moved centers and
      differenced with its own center and the winner), against ``k + d``
      in a full call (its scores and its coordinates); a row whose center
      moved costs the same both ways.  So the step never runs where it
      would score as many (row, center) entries as a full call
      (``m >= k``), nor for ``k <= 3 d``.  Every row is also scored in one
      call when a center is not finite.
    """
    d = points.shape[1]
    k = new_centers.shape[0]
    if not np.isfinite(new_centers).all():
        return nearest_center(points, new_centers)
    moved = (new_centers.view(np.uint64) != centers.view(np.uint64)).any(axis=1)
    movers = np.flatnonzero(moved)
    if len(movers) + 3 * d >= k:
        return nearest_center(points, new_centers)
    full = moved[assign] | ~np.isfinite(points).all(axis=1)
    stay = np.flatnonzero(~full)
    full = np.flatnonzero(full)
    assign = assign.copy()
    assign[full] = nearest_center(points[full], new_centers)
    if len(movers):
        X = points[stay]
        own = assign[stay]
        best = movers[nearest_center(X, new_centers[movers])]
        diff = X[:, None, :] - new_centers[np.stack((own, best), axis=1)]
        dist = np.einsum("ijk,ijk->ij", diff, diff)
        wins = (dist[:, 1] < dist[:, 0]) | ((dist[:, 1] == dist[:, 0]) & (best < own))
        assign[stay[wins]] = best[wins]
    return assign


def _reseed_empties(points: np.ndarray, assign: np.ndarray, counts: np.ndarray, centers: np.ndarray) -> None:
    """Move every empty cluster's center, in place, onto a point of the
    largest cluster: the first empty center takes that cluster's farthest
    point from its center, the next the second-farthest, and so on."""
    big = int(np.argmax(counts))
    members = np.flatnonzero(assign == big)
    far = np.argsort(-np.sum((points[members] - centers[big]) ** 2, axis=1), kind="stable")
    for rank, j in enumerate(np.flatnonzero(counts == 0)):
        centers[j] = points[members[far[rank % members.size]]]


@dataclass(frozen=True)
class VocabularyTree:
    """Two-level view of a trained hierarchical vocabulary.

    ``vlad_centers`` are the coarse centers (level ``vlad_level``); the leaves
    are the fine visual words.  Coarse center ``v`` is the parent of the
    ``pool_size`` leaves from ``v * pool_size`` on, and a descriptor's leaf is
    searched among its coarse center's leaves.  An ``M`` that is not a
    multiple of ``N`` raises ``ValueError``.
    """

    dim: int
    branch: int
    levels: int
    vlad_level: int
    vlad_centers: np.ndarray  # (N, dim) float32
    leaf_centers: np.ndarray  # (M, dim) float32

    def __post_init__(self) -> None:
        n, m = self.num_vlad_centers, self.num_leaves
        if n < 1 or m % n:
            raise ValueError(f"(N, M) = ({n}, {m}): the leaves must split into N >= 1 equal pools")

    @property
    def num_vlad_centers(self) -> int:
        return self.vlad_centers.shape[0]

    @property
    def num_leaves(self) -> int:
        return self.leaf_centers.shape[0]

    @property
    def pool_size(self) -> int:
        """``P = M // N``, the leaves under each coarse center."""
        return self.num_leaves // self.num_vlad_centers

    @cached_property
    def parent_of_leaf(self) -> np.ndarray:
        """Each leaf's coarse center, ``leaf // P``, as a read-only ``(M,)`` uint32 array."""
        parents = (np.arange(self.num_leaves) // self.pool_size).astype(np.uint32)
        parents.flags.writeable = False
        return parents

    @cached_property
    def reconstruction_context(self) -> "ReconstructionContext":
        """This tree's cache of per-center difference dictionaries and Grams.

        Created on first access and kept on the instance, so no two trees
        share it; it assumes the tree's arrays are never modified.
        """
        from .reconstruct import ReconstructionContext

        return ReconstructionContext(self)

    @cached_property
    def leaf_pools(self) -> "LeafPools":
        """The float64 leaves grouped by coarse center, for the one-product
        leaf search; built on first access and kept on the instance, like
        ``reconstruction_context``."""
        return LeafPools.of(self)

    def validate(self) -> None:
        if self.vlad_centers.shape[1] != self.dim or self.leaf_centers.shape[1] != self.dim:
            raise ValueError("center dimensionality does not match tree dim")
        shape = (self.num_vlad_centers, self.num_leaves)
        want = tree_shape(self.branch, self.levels, self.vlad_level)
        if shape != want:
            raise ValueError(f"(N, M) = {shape}, but branch, levels and vlad_level make {want}")
        if not (np.all(np.isfinite(self.vlad_centers)) and np.all(np.isfinite(self.leaf_centers))):
            raise ValueError("tree centers must be finite")


def tree_shape(branch: int, levels: int, vlad_level: int) -> tuple[int, int]:
    """``(N, M)``, the coarse centers and leaves of a tree with ``branch``
    children per node, ``levels`` deep, aggregating at ``vlad_level``: the
    one rule for which trees exist.  ``ValueError``, naming the field,
    unless ``branch >= 2`` and ``1 <= vlad_level < levels``."""
    if branch < 2:
        raise ValueError(f"branch must be >= 2, got branch={branch}")
    if not 1 <= vlad_level < levels:
        raise ValueError(
            f"vlad_level must satisfy 1 <= vlad_level < levels, got vlad_level={vlad_level}, levels={levels}"
        )
    return branch**vlad_level, branch**levels


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

    Node ``v`` of level ``l`` (its children are nodes ``v*branch`` to
    ``v*branch + branch - 1`` of level ``l + 1``) is split by :func:`kmeans`
    over the descriptors that reach it, seeded from its own
    ``default_rng([seed, l, v])``.  A node that receives no descriptors
    passes its center down to all children.  All nodes of a level are split
    together (:func:`_split_level`), and every tree equals that of the
    frozen per-node trainer in ``tests/vocabulary_reference.py`` bit for bit.
    """
    tree_shape(branch, levels, vlad_level)
    X = np.asarray(descriptors, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("descriptor set must be a nonempty (n, D) array")
    if not np.all(np.isfinite(X)):
        raise ValueError("descriptors must be finite")

    node_of = np.zeros(X.shape[0], dtype=np.int64)
    centers = X.mean(axis=0)[None, :]
    level_centers: list[np.ndarray] = []
    for level in range(1, levels + 1):
        centers, node_of = _split_level(X, node_of, centers, branch, seed, level)
        level_centers.append(centers)

    tree = VocabularyTree(
        dim=X.shape[1],
        branch=branch,
        levels=levels,
        vlad_level=vlad_level,
        vlad_centers=level_centers[vlad_level - 1].astype(np.float32),
        leaf_centers=level_centers[levels - 1].astype(np.float32),
    )
    tree.validate()
    return tree


def _split_level(
    X: np.ndarray, node_of: np.ndarray, parents: np.ndarray, k: int, seed: int, level: int
) -> tuple[np.ndarray, np.ndarray]:
    """One level of ``train_vocabulary``: node ``v`` of ``parents`` split
    into ``k`` children over the rows ``node_of == v``.  Returns the
    children's ``(len(parents) * k, d)`` centers and each row's child.

    One stable sort groups the rows by node, each node's rows in row order
    as ``X[node_of == v]`` gives them.  :func:`kmeans` then splits many
    nodes at once, a batch of consecutive nodes of at most ``PASS_ROWS``
    rows at a time (:func:`_passes`; a larger node is a batch of its own).
    """
    num_parents, dim = parents.shape
    # The node ids as the smallest unsigned type that holds them: on 8- and
    # 16-bit keys numpy's stable sort is a radix sort.
    order = np.argsort(node_of.astype(np.min_scalar_type(num_parents - 1)), kind="stable")
    sizes = np.bincount(node_of, minlength=num_parents)
    nodes = np.flatnonzero(sizes)
    sizes = sizes[nodes]
    points = X[order]
    rngs = [np.random.default_rng([seed, level, int(v)]) for v in nodes]
    centers = np.empty((len(nodes) * k, dim))
    assign = np.empty(len(points), dtype=np.int64)
    batches = _node_runs(sizes, [run.start for run in _passes(sizes.tolist(), PASS_ROWS)])
    for lo, hi, a, b in batches:
        centers[lo * k : hi * k], assign[a:b] = kmeans(points[a:b], sizes[lo:hi], k, rngs[lo:hi])
    children = np.repeat(parents, k, axis=0)  # a node with no rows passes its center down
    children.reshape(num_parents, k, dim)[nodes] = centers.reshape(len(nodes), k, dim)
    child_of = np.empty_like(node_of)
    child_of[order] = np.repeat(nodes * k, sizes) + assign
    return children, child_of


def _passes(sizes: Sequence[int], limit: int) -> Iterator[slice]:
    """Runs of consecutive groups holding at most ``limit`` rows in all,
    group ``i`` holding ``sizes[i]`` rows, except that a group with more
    rows forms a run of its own."""
    start = rows = 0
    for i, size in enumerate(sizes):
        if rows and rows + size > limit:
            yield slice(start, i)
            start, rows = i, 0
        rows += size
    if rows:
        yield slice(start, len(sizes))


# Rows per product in ``_nearest_in_node``: the nodes whose first rows lie
# within one window of this many rows share a product.
_NODE_PRODUCT_ROWS = 128


def _node_runs(sizes: np.ndarray, firsts: list[int]) -> list[tuple[int, int, int, int]]:
    """The ``(first node, end node, first row, end row)`` of the runs of
    consecutive nodes that start at each of ``firsts``, node ``v`` holding
    the next ``sizes[v]`` rows."""
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    return [(lo, hi, bounds[lo], bounds[hi]) for lo, hi in zip(firsts, firsts[1:] + [len(sizes)])]


@dataclass(frozen=True)
class _NodeRows:
    """Rows grouped by node: node ``v`` holds the ``sizes[v]`` rows from
    ``starts[v]`` on, and ``node`` gives each row's node.  ``runs`` are the
    :func:`_node_runs` that share one product in :func:`_nearest_in_node`:
    the nodes whose first rows lie within one window of
    ``_NODE_PRODUCT_ROWS`` rows."""

    sizes: np.ndarray
    starts: np.ndarray
    node: np.ndarray
    runs: list[tuple[int, int, int, int]]

    @classmethod
    def of(cls, sizes: np.ndarray) -> "_NodeRows":
        starts = np.cumsum(sizes) - sizes
        node = np.repeat(np.arange(len(sizes)), sizes)
        firsts = np.flatnonzero(np.diff(starts // _NODE_PRODUCT_ROWS, prepend=-1)).tolist()
        return cls(sizes, starts, node, _node_runs(sizes, firsts))


def kmeans(
    points: np.ndarray, sizes: Sequence[int], k: int, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding, then Lloyd's iteration, on each group of
    consecutive rows: group ``v`` holds the next ``sizes[v]`` rows of
    ``points`` and draws from ``rngs[v]``.  Returns the groups' ``k``
    centers each, ``(len(sizes) * k, d)`` group by group, and each row's
    center within its group.

    Every group's centers and assignments equal, bit for bit, those of
    ``kmeans_pp_init_reference`` and then ``lloyd_reference`` on its rows
    alone, the frozen per-group k-means in
    ``tests/nearest_center_reference.py``: row-major seeding with
    ``rng.choice``, and ``KMEANS_MAX_ITER`` Lloyd sweeps at most, stopping
    once no center moves ``KMEANS_TOL`` or more.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    groups = _NodeRows.of(np.asarray(sizes))
    return _lloyd_level(points, groups, _seed_level(points, groups, k, rngs))


def _seed_level(
    points: np.ndarray, groups: _NodeRows, k: int, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """k-means++ seeds of every node at once: node ``v`` holds its rows of
    ``points`` in ``groups`` and draws from ``rngs[v]``.  Returns the
    ``(len(rngs) * k, d)`` seeds, node by node.

    A round's squared distances, every row to its node's latest seed, are
    one column-major pass in ``column_sq_distances``' order, which is
    ``np.sum((rows - seed) ** 2, axis=1)`` on a node's C-ordered rows.
    Each node then draws its next seed by ``_weighted_pick`` on its own
    slice of them, as ``rng.choice`` draws: uniformly when its weights are
    all zero, and ``ValueError`` when their total overflows.
    """
    n, dim = points.shape
    sizes, starts = groups.sizes, groups.starts
    columns = np.ascontiguousarray(points.T)
    scratch = np.empty((16, n))

    def sq_distances(rows: np.ndarray) -> np.ndarray:
        seeds = columns[:, rows]  # one node's seed broadcasts along its rows
        if len(sizes) > 1:
            seeds = np.repeat(seeds, sizes, axis=1)

        def squares(lo: int, hi: int, out: np.ndarray) -> None:
            np.subtract(columns[lo:hi], seeds[lo:hi], out=out)
            np.square(out, out=out)

        return pairwise_row_sums(squares, dim, n, scratch)

    picks = np.empty((k, len(sizes)), dtype=np.int64)  # each node's seeds, as rows of the node
    picks[0] = [rng.integers(size) for rng, size in zip(rngs, sizes.tolist())]
    d2 = sq_distances(starts + picks[0])
    parts = np.split(d2, starts[1:])  # each node's distances, as views of d2
    for j in range(1, k):
        picks[j] = [_weighted_pick(part, rng) for part, rng in zip(parts, rngs)]
        if j + 1 < k:
            np.minimum(d2, sq_distances(starts + picks[j]), out=d2)
    return points[(starts + picks).T.ravel()]


def _lloyd_level(points: np.ndarray, groups: _NodeRows, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's iteration of every node at once: node ``v`` holds its rows of
    ``points`` in ``groups`` and starts from centers ``v*k`` to
    ``v*k + k - 1``.  Returns the centers and each row's center within its
    node.

    A sweep sums the clusters of all nodes in one ``cluster_sums`` call
    keyed by (node, center), which adds each node's rows in row order; a
    node's empty clusters are re-seeded within the node by
    ``_reseed_empties``, and its shift is the largest of its centers'
    shifts.  Rows are assigned by :func:`_assign_in_node`.  A node stops
    after the sweep whose shift falls below ``KMEANS_TOL``, or after
    ``KMEANS_MAX_ITER`` sweeps; its rows and centers then leave the arrays
    that later sweeps score.
    """
    n, dim = points.shape
    m = len(groups.sizes)
    k = centers.shape[0] // m
    out_centers = np.empty((m, k, dim))
    out_assign = np.empty(n, dtype=np.int64)
    ids = np.arange(m)  # the nodes still iterating, and their rows
    rows = np.arange(n)
    assign = _assign_in_node(points, groups, centers)
    for sweep in range(1, KMEANS_MAX_ITER + 1):
        labels = groups.node * k + assign
        counts = np.bincount(labels, minlength=len(centers))
        sums = cluster_sums(labels, points, len(centers))
        new_centers = centers.copy()
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            for v in np.unique(np.flatnonzero(~nonempty) // k):
                own = slice(groups.starts[v], groups.starts[v] + groups.sizes[v])
                mine = slice(v * k, (v + 1) * k)
                _reseed_empties(points[own], assign[own], counts[mine], new_centers[mine])
        shift = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).reshape(-1, k).max(axis=1)
        assign = _assign_in_node(points, groups, new_centers, (centers, assign))
        centers = new_centers.reshape(-1, k, dim)
        done = (shift < KMEANS_TOL) | (sweep == KMEANS_MAX_ITER)
        if done.any():
            row_done = done[groups.node]
            out_centers[ids[done]] = centers[done]
            out_assign[rows[row_done]] = assign[row_done]
            if done.all():
                break
            keep, row_keep = ~done, ~row_done
            points, rows, assign = points[row_keep], rows[row_keep], assign[row_keep]
            centers, ids = centers[keep], ids[keep]
            groups = _NodeRows.of(groups.sizes[keep])
        centers = centers.reshape(-1, dim)
    return out_centers.reshape(-1, dim), out_assign


def _assign_in_node(
    points: np.ndarray,
    groups: _NodeRows,
    centers: np.ndarray,
    previous: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Each row's nearest center within its node, as :func:`_nearest_in_node`
    defines it.  ``previous``, when given, holds the centers before the last
    update and every row's nearest among them.

    Nodes of ``k <= 3 d`` centers, every tree node, are scored together by
    ``_nearest_in_node``.  Larger nodes, such as product-quantizer
    codebooks, are scored one at a time: by ``nearest_center`` at first,
    then by ``_reassign``, which re-scores only the centers that moved.
    """
    k = centers.shape[0] // len(groups.sizes)
    if 3 * points.shape[1] >= k:
        return _nearest_in_node(points, groups, centers)
    assign = np.empty(len(points), dtype=np.int64)
    for v, (a, size) in enumerate(zip(groups.starts.tolist(), groups.sizes.tolist())):
        own, mine = slice(a, a + size), slice(v * k, (v + 1) * k)
        if previous is None:
            assign[own] = nearest_center(points[own], centers[mine])
        else:
            old_centers, old_assign = previous
            assign[own] = _reassign(points[own], old_centers[mine], centers[mine], old_assign[own])
    return assign


def _nearest_in_node(points: np.ndarray, groups: _NodeRows, centers: np.ndarray) -> np.ndarray:
    """Each row's nearest center within its own node (lowest index on ties),
    as ``nearest_center`` of the node's rows and centers gives it: node
    ``v`` holds its rows of ``points`` in ``groups`` and centers ``v*k`` to
    ``v*k + k - 1``.

    Each run of ``groups.runs`` shares one product of its rows against its
    nodes' centers, and each row keeps its own node's ``k`` scores;
    :func:`_certified_argmin` then decides every row with its node's
    largest center norm, as ``_leaves_by_product`` decides a leaf within
    its pool, and a row left open is scanned against its node's centers by
    ``_difference_scan``.
    """
    n = points.shape[0]
    m = len(groups.sizes)
    k = centers.shape[0] // m
    own = groups.node
    scaled = -2.0 * centers.T
    sq_norms = np.einsum("ij,ij->i", centers, centers)
    scores = np.empty((n, k))
    for lo, hi, a, b in groups.runs:
        alone = hi - lo == 1  # a node alone in its run scores its rows in place
        block = np.matmul(points[a:b], scaled[:, lo * k : hi * k], out=scores[a:b] if alone else None)
        block += sq_norms[lo * k : hi * k]
        if not alone:
            scores[a:b] = block.reshape(b - a, hi - lo, k)[np.arange(b - a), own[a:b] - lo]
    c_max = np.sqrt(sq_norms.reshape(m, k).max(axis=1))[own]
    best, exact = _certified_argmin(points, scores, c_max, lambda r, cols: centers[own[r] * k + cols])
    if not exact.all():
        scan = np.flatnonzero(~exact)
        for v in np.unique(own[scan]):
            rows = scan[own[scan] == v]
            best[rows] = _difference_scan(points[rows], centers[v * k : (v + 1) * k])
    return best


def _descriptor_rows(tree: VocabularyTree, descriptors: np.ndarray) -> np.ndarray:
    """Descriptors as finite float64 rows of the tree's dimension, else ``ValueError``."""
    X = np.atleast_2d(np.asarray(descriptors, dtype=np.float64))
    if X.shape[1] != tree.dim:
        raise ValueError(f"descriptor dim {X.shape[1]} != tree dim {tree.dim}")
    if not np.isfinite(X).all():
        raise ValueError("descriptors must be finite")
    return X


@dataclass(frozen=True)
class LeafPools:
    """A tree's leaves as float64 arrays for the one-product leaf search;
    every array read-only.

    ``scaled`` is ``-2 c.T`` over the leaves ``c`` in leaf order, so the
    product ``X @ scaled`` holds pool ``v``'s scores at columns ``v*P`` to
    ``v*P + P``; ``sq_norms[v]`` holds ``|c|^2`` of pool ``v``'s leaves and
    ``c_max[v]`` their largest norm; ``centers`` are all leaves.
    """

    centers: np.ndarray  # (M, d)
    scaled: np.ndarray  # (d, M)
    sq_norms: np.ndarray  # (N, P)
    c_max: np.ndarray  # (N,)

    @classmethod
    def of(cls, tree: VocabularyTree) -> "LeafPools":
        centers = np.array(tree.leaf_centers, dtype=np.float64)  # a copy: frozen below
        sq_norms = np.einsum("ij,ij->i", centers, centers).reshape(tree.num_vlad_centers, tree.pool_size)
        c_max = np.sqrt(sq_norms.max(axis=1))
        scaled = np.ascontiguousarray(-2.0 * centers.T)
        for array in (centers, scaled, sq_norms, c_max):
            array.flags.writeable = False
        return cls(centers, scaled, sq_norms, c_max)


def assign_descriptors(
    tree: VocabularyTree, descriptors: np.ndarray, leaves: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The descriptors as float64 rows, each row's coarse-center id and, when
    ``leaves``, its leaf id (lowest id on exact ties at either level).

    The coarse centers are searched once for all rows.  A row's leaf is the
    nearest leaf among its coarse center's leaves (its pool), found one of
    two ways, routed by size:

    * up to ``_LEAF_PRODUCT_MAX_SCORES`` (row, leaf) scores, as one image's
      descriptors give: one product scores every row against every leaf
      (``tree.leaf_pools``), each row's own pool is gathered from it, and
      :func:`_certified_argmin`, the proof ``nearest_center`` rests on,
      decides the row, re-scoring near ties in the difference form;
    * otherwise the rows are grouped by coarse center, one
      ``nearest_center`` call per pool: the product scores every row
      against all ``N`` pools to use one, and past about 600 rows on the
      default tree that costs more than the per-pool calls, so the 16k-row
      passes of ``aggregate_images`` take this route.

    Both give every row the exact argmin of its difference-form distances
    over its pool, so an id does not depend on the route or on which other
    rows share the call.  Non-finite rows or a wrong dimension raise
    ``ValueError``.
    """
    X = _descriptor_rows(tree, descriptors)
    vlad_ids = nearest_center(X, tree.vlad_centers)
    if not leaves:
        return X, vlad_ids, None
    if X.shape[0] * tree.num_leaves > _LEAF_PRODUCT_MAX_SCORES:
        return X, vlad_ids, _leaves_by_pool(tree, X, vlad_ids)
    return X, vlad_ids, _leaves_by_product(tree, X, vlad_ids)


def _leaves_by_product(tree: VocabularyTree, X: np.ndarray, vlad_ids: np.ndarray) -> np.ndarray:
    """Each row's leaf from one product over all leaves (see ``assign_descriptors``)."""
    pools = tree.leaf_pools
    rows = np.arange(X.shape[0])
    scores = (X @ pools.scaled).reshape(len(rows), *pools.sq_norms.shape)[rows, vlad_ids]
    scores += pools.sq_norms[vlad_ids]
    first = vlad_ids * tree.pool_size
    best, exact = _certified_argmin(
        X, scores, pools.c_max[vlad_ids], lambda r, cols: pools.centers[first[r] + cols]
    )
    leaf_ids = first + best
    if not exact.all():
        scan = np.flatnonzero(~exact)
        leaf_ids[scan] = _leaves_by_pool(tree, X[scan], vlad_ids[scan])
    return leaf_ids


def _leaves_by_pool(tree: VocabularyTree, X: np.ndarray, vlad_ids: np.ndarray) -> np.ndarray:
    """Each row's leaf from one ``nearest_center`` call per pool."""
    leaf_ids = np.empty(X.shape[0], dtype=np.int64)
    # The stable sort of the ids as the smallest unsigned type that holds
    # them: on 8- and 16-bit keys numpy sorts by radix.
    keys = vlad_ids.astype(np.min_scalar_type(tree.num_vlad_centers - 1))
    order = np.argsort(keys, kind="stable")
    bounds = np.searchsorted(vlad_ids[order], np.arange(tree.num_vlad_centers + 1))
    p = tree.pool_size
    for v in np.flatnonzero(np.diff(bounds)):
        rows = order[bounds[v] : bounds[v + 1]]
        leaf_ids[rows] = v * p + nearest_center(X[rows], tree.leaf_centers[v * p : (v + 1) * p])
    return leaf_ids


def subtree_leaves(tree: VocabularyTree, vlad_id: int) -> np.ndarray:
    """All leaf ids under a coarse center, ascending."""
    if not 0 <= vlad_id < tree.num_vlad_centers:
        raise ValueError(f"vlad_id {vlad_id} out of range")
    p = tree.pool_size
    return np.arange(vlad_id * p, (vlad_id + 1) * p, dtype=np.int64)
