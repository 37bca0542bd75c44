"""Binary hashing of VLAD vectors and its reversal into approximated VLADs.

Bit k of a code is ``(sgn(w_k^T (x - mean)) + 1) / 2`` with ``sgn(0)`` mapped
to bit 1.  Projection layouts:

* ``joint``        - one (D*N x K) PCA basis over the full vector; an optional
                     random orthogonal rotation can be applied on the PCA
                     coordinates to spread variance across bits.
* ``independent``  - one (D x K/N) PCA basis per sub-vector.
* ``shared``       - a single (D x K/N) basis, trained on all sub-vectors
                     pooled together and reused for each of them.
* ``sign``         - component-wise sign of the raw vector (K = D*N).

``model_layout`` is the one rule for which ``(variant, D, N, K, rotate)``
make a model and what shapes its arrays take; training, the model file and
the report's memory accounting all ask it.

Every variant is one linear map, and ``HashingModel.blocks`` is the one rule
for it: a ``(B, T, K/B)`` stack of blocks ``A`` and a ``(D*N,)`` offset
``c``, projection block ``b`` being ``A[b].T @ (x - c)[b*T:(b+1)*T]``.  Joint
is one block over the whole vector (``T = D*N``, a rotation ``R`` folded in
as ``W @ R.T``), independent its stored ``(N, D, K/N)`` stack, shared a
broadcast view of its one basis with the mean tiled ``N`` times, and sign
``D*N`` blocks of weight 1 with ``c = 0``.  Encoding, batched encoding and
reversal are each one batched product over these blocks.

Because PCA bases are orthonormal, a code reverses to ``c + A s`` where
``s`` carries per-bit signs scaled by the mean absolute projection magnitude
seen in training; re-encoding an approximated VLAD reproduces its code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .aggregate import vlad_rows
from .vocab import _TINY, _U

VARIANTS = ("joint", "independent", "shared", "sign")

_SCALE_FLOOR = 1e-12


@dataclass(eq=False)
class BinaryCode:
    """Bit-packed hash of one image (little-endian bit order); the bits of
    the last byte past ``nbits`` are zero, so equal codes pack equal bytes."""

    packed: np.ndarray  # uint8
    nbits: int

    def __post_init__(self) -> None:
        self.packed = np.asarray(self.packed, dtype=np.uint8)
        if self.packed.shape != ((self.nbits + 7) // 8,):
            raise ValueError("packed length does not match bit count")
        if self.nbits % 8 and self.packed[-1] >> (self.nbits % 8):
            raise ValueError(f"packed code sets bits past its {self.nbits} bits")

    def bits(self) -> np.ndarray:
        return np.unpackbits(self.packed, bitorder="little")[: self.nbits]

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "BinaryCode":
        bits = np.asarray(bits, dtype=np.uint8)
        return cls(np.packbits(bits, bitorder="little"), int(bits.shape[0]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryCode)
            and self.nbits == other.nbits
            and np.array_equal(self.packed, other.packed)
        )


@dataclass(eq=False)
class HashingModel:
    """Trained projection stack; immutable after training."""

    variant: str
    dim: int  # D, per sub-vector
    num_centers: int  # N
    nbits: int  # K
    mean: np.ndarray  # float32; (D*N,) for joint/independent, (D,) shared, (0,) sign
    projections: np.ndarray  # float32; per-variant shape from model_layout
    reversal_scales: np.ndarray  # (K,) float32
    rotation: np.ndarray | None = None  # (K, K) float32, joint only

    @property
    def total_dim(self) -> int:
        return self.dim * self.num_centers

    @cached_property
    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only float64 pair ``(A, c)`` that encoding and reversal
        use: a ``(B, T, K/B)`` stack of blocks and a ``(D*N,)`` offset, block
        ``b`` of the projections being ``A[b].T @ (x - c)[b*T:(b+1)*T]``.
        Derived once per model, never larger than the stored arrays plus
        ``D*N`` floats."""
        w = np.array(self.projections, dtype=np.float64)
        mean = np.array(self.mean, dtype=np.float64)
        if self.variant == "joint":
            if self.rotation is not None:
                w = w @ np.asarray(self.rotation, dtype=np.float64).T
            a, c = w[None], mean
        elif self.variant == "independent":
            a, c = w, mean
        elif self.variant == "shared":
            a, c = np.broadcast_to(w, (self.num_centers, *w.shape)), np.tile(mean, self.num_centers)
        else:  # sign
            a, c = np.broadcast_to(1.0, (self.total_dim, 1, 1)), np.zeros(self.total_dim)
        for array in (a, c):
            array.flags.writeable = False
        return a, c


def _top_eigenvectors(cov: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading eigenpairs of a symmetric matrix, descending, sign-canonicalized."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1][:k]
    vals = eigvals[order]
    vecs = eigvecs[:, order]
    # Deterministic sign: largest-magnitude component of each direction is positive.
    anchor = np.argmax(np.abs(vecs), axis=0)
    flips = np.sign(vecs[anchor, np.arange(vecs.shape[1])])
    flips[flips == 0] = 1.0
    return vecs * flips, vals


def _pca(x_centered: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    cov = (x_centered.T @ x_centered) / x_centered.shape[0]
    return _top_eigenvectors(cov, k)


def random_rotation(k: int, seed: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR of a seeded Gaussian."""
    rng = np.random.default_rng([seed, 0x5254])  # distinct stream from other uses of seed
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def model_layout(
    variant: str, dim: int, num_centers: int, nbits: int, rotate: bool = False
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ``(mean, projections)`` shapes of a ``variant`` model with ``K =
    nbits`` bits over ``N = num_centers`` sub-vectors of ``D = dim``: the one
    rule for which models exist.  ``ValueError`` unless the variant is known,
    ``rotate`` goes with joint only, ``D, N, K >= 1``, and ``K <= D*N``
    (joint), ``K`` is a multiple of ``N`` with at most ``D`` bits per
    sub-vector (independent, shared), or ``K = D*N`` (sign)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if rotate and variant != "joint":
        raise ValueError("rotation is only defined for the joint variant")
    if min(dim, num_centers, nbits) < 1:
        raise ValueError(f"a model needs D, N and K >= 1, got D={dim}, N={num_centers}, K={nbits}")
    total = dim * num_centers
    if variant == "joint":
        if nbits > total:
            raise ValueError(f"joint nbits={nbits} exceeds D*N={total}")
        return (total,), (total, nbits)
    if variant == "sign":
        if nbits != total:
            raise ValueError(f"sign variant emits exactly one bit per component: K={nbits}, D*N={total}")
        return (0,), (0, 0)
    if nbits % num_centers != 0:
        raise ValueError("nbits must be divisible by the number of sub-vectors")
    per = nbits // num_centers
    if per > dim:
        raise ValueError(f"per-sub-vector bits {per} exceed sub-vector dim {dim}")
    if variant == "independent":
        return (total,), (num_centers, dim, per)
    return (dim,), (dim, per)  # shared


def train_hashing(
    training_vlads: np.ndarray | Sequence[np.ndarray],
    variant: str,
    nbits: int,
    seed: int = 0,
    rotate: bool = False,
) -> HashingModel:
    """Fit a hashing model on raw (unnormalized) training VLADs, given as
    ``(N, D)`` arrays or as their ``(n, N, D)`` stack.

    The model must be one ``model_layout`` allows.  PCA bases keep the top
    eigenvectors of the training covariance, so each basis also needs more
    samples than it has directions (``K <= n-1`` for joint, ``K/N <= n-1``
    per sub-vector); that rank bound is enforced rather than silently padded.
    """
    if len(training_vlads) == 0:
        raise ValueError("training set must be nonempty")
    stack = np.array(training_vlads, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError("training VLADs disagree on their (N, D) shape")
    n, n_centers, dim = stack.shape
    model_layout(variant, dim, n_centers, nbits, rotate)
    X = stack.reshape(n, n_centers * dim)
    per = nbits // n_centers
    rotation = None

    if variant == "sign":
        mean, w = np.zeros(0), np.zeros((0, 0))
        scales = np.mean(np.abs(X), axis=0)
    elif variant == "joint":
        if nbits > n - 1:
            raise ValueError(f"joint PCA rank bound: nbits={nbits} exceeds n-1={n - 1}")
        mean = X.mean(axis=0)
        Xc = X - mean
        w, _ = _pca(Xc, nbits)
        proj = Xc @ w
        if rotate:
            rotation = random_rotation(nbits, seed)
            proj = proj @ rotation.T
        scales = np.mean(np.abs(proj), axis=0)
    elif variant == "independent":
        if per > n - 1:
            raise ValueError(f"PCA rank bound: {per} bits need at least {per + 1} samples")
        mean = X.mean(axis=0)
        centered = X.reshape(n, n_centers, dim) - mean.reshape(n_centers, dim)
        w = np.empty((n_centers, dim, per), dtype=np.float64)
        scales = np.empty(nbits, dtype=np.float64)
        for i in range(n_centers):
            w[i], _ = _pca(centered[:, i, :], per)
            scales[i * per : (i + 1) * per] = np.mean(np.abs(centered[:, i, :] @ w[i]), axis=0)
    else:  # shared: pool every sub-vector of every training VLAD as one sample set
        pooled = X.reshape(n * n_centers, dim)
        if per > pooled.shape[0] - 1:
            raise ValueError(f"PCA rank bound: {per} bits need at least {per + 1} pooled samples")
        mean = pooled.mean(axis=0)
        pooled_c = pooled - mean
        w, _ = _pca(pooled_c, per)
        proj = pooled_c @ w  # (n*N, per)
        scales = np.mean(np.abs(proj).reshape(n, n_centers, per), axis=0).reshape(nbits)

    return HashingModel(
        variant=variant,
        dim=dim,
        num_centers=n_centers,
        nbits=nbits,
        mean=mean.astype(np.float32),
        projections=w.astype(np.float32),
        reversal_scales=np.maximum(scales, _SCALE_FLOOR).astype(np.float32),
        rotation=None if rotation is None else rotation.astype(np.float32),
    )


def _project(model: HashingModel, x: np.ndarray) -> np.ndarray:
    """Real-valued projections feeding the sign function, shape (K,): block
    ``b`` is ``A[b].T @ (x - c)[b*T:(b+1)*T]`` (``HashingModel.blocks``)."""
    a, c = model.blocks
    y = (x - c).reshape(len(a), -1, 1)
    return np.matmul(a.transpose(0, 2, 1), y).reshape(model.nbits)


def encode(model: HashingModel, v: np.ndarray) -> BinaryCode:
    """Hash a raw ``(N, D)`` VLAD into its bit-packed code (bit = 1 when
    projection >= 0)."""
    x = vlad_rows(v, (model.num_centers, model.dim)).reshape(-1)
    bits = (_project(model, x) >= 0.0).astype(np.uint8)
    return BinaryCode.from_bits(bits)


def _project_stack(model: HashingModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_project`` of every ``(N*D,)`` row of ``X`` by one batched product,
    as an ``(n, K)`` array, and per entry a radius: where the product lies
    farther than its radius from 0, ``_project`` of the row alone has the
    same sign.  A radius is ``inf`` where the proof below does not hold.

    Both ways subtract ``c`` element by element, bit for bit alike, so they
    differ only in how they sum the ``T``-term dot products of a block ``y``
    of ``x - c`` with each column ``a`` of its ``A[b]`` (``T = N*D`` for
    joint, ``D`` for independent and shared, 1 for sign).  For any summation
    order, with ``g = T u / (1 - T u)``, each sum lies within
    ``g sum_t |y_t a_t| + T tiny`` of the exact value (the last term covers
    products that underflow), and ``sum_t |y_t a_t| <= max_t |y_t| *
    sum_t |a_t| =: S``.  So the two differ by at most ``2 e``, ``e = g S +
    T tiny``.  The radius is twice the bound on the difference, ``4 e``: the
    factor two covers the rounding of the bound itself.  No partial sum can
    overflow while ``4 S`` is finite; an entry where it is not, as where its
    block of the row is not finite, gets radius ``inf``.
    """
    a, c = model.blocks
    n, terms = len(X), a.shape[1]
    y = (X - c).reshape(n, len(a), terms)
    proj = np.matmul(y.transpose(1, 0, 2), a).transpose(1, 0, 2).reshape(n, model.nbits)
    span = (np.abs(y).max(axis=2)[:, :, None] * np.abs(a).sum(axis=1)).reshape(n, model.nbits)
    g = terms * _U / (1 - terms * _U)
    safe = span < np.finfo(np.float64).max / 4  # false for NaN
    return proj, np.where(safe, 4 * (g * span + terms * _TINY), np.inf)


def encode_stack(model: HashingModel, vlads: np.ndarray) -> np.ndarray:
    """The packed codes of an ``(n, N, D)`` stack of raw VLADs, one row each
    as ``encode`` makes it, in an ``(n, ceil(K / 8))`` uint8 matrix.

    The projections come from one batched product (``_project_stack``); a
    row with any projection within its radius of 0 is projected again on its
    own by ``_project``, so every bit is the one ``encode`` gives.
    """
    n = len(vlads)
    X = vlad_rows(vlads, (n, model.num_centers, model.dim)).reshape(n, model.total_dim)
    proj, radius = _project_stack(model, X)
    for r in np.flatnonzero(~(np.abs(proj) > radius).all(axis=1)):
        proj[r] = _project(model, X[r])
    return np.packbits(proj >= 0.0, axis=1, bitorder="little")


def approximate_vlad(model: HashingModel, code: BinaryCode) -> np.ndarray:
    """Reverse a code into a raw-space approximated ``(N, D)`` VLAD, ``c +
    A s`` block by block (``HashingModel.blocks``).

    Signs come from the bits; magnitudes are restored with the stored per-bit
    training scales, so re-encoding the result reproduces ``code``.
    """
    if code.nbits != model.nbits:
        raise ValueError(f"code length {code.nbits} != model bits {model.nbits}")
    a, c = model.blocks
    signs = 2.0 * code.bits().astype(np.float64) - 1.0
    scaled = signs * np.asarray(model.reversal_scales, dtype=np.float64)
    flat = np.matmul(a, scaled.reshape(len(a), -1, 1)).reshape(-1) + c
    return flat.reshape(model.num_centers, model.dim)
