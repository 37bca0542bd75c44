"""Every byte layout the program reads or writes, and the context a query carries.

A file or payload is an 8-byte magic, a ``struct`` header, then arrays in a
fixed order with nothing after them; every number is little-endian and every
array C-ordered.  One writer lays them out and one reader takes them apart:
it checks the magic, checks that each array fits before it copies it, and
rejects a short or a trailing byte with a ``ValueError`` naming the file (or
"payload" for bytes received).

* Vocabulary tree, ``DHTREE01``; header ``<6I``: dim ``D``, coarse centers
  ``N``, leaves ``M``, branch, levels, vlad_level.  Arrays: the coarse
  centers ``(N, D)`` float32, the leaf centers ``(M, D)`` float32, each
  leaf's coarse center ``(M,)`` uint32.  ``(N, M)`` must be
  ``vocab.tree_shape`` of the branch, levels and vlad_level, and leaf ``t``'s
  coarse center must be ``t // (M / N)``; no other tree exists.
* Hashing model, ``DHHASH01``; header ``<B3I``: the variant byte (joint 0,
  independent 1, shared 2, sign 3, joint with a rotation 5; byte 4, once
  the irreversible random-projection variant, is retired and rejected like
  any unknown byte), ``D``, ``N``, bits ``K``.  Float32 arrays: the mean,
  the projections, the ``(K, K)`` rotation (variant 5 only), the ``(K,)``
  reversal scales.  The mean and projections are ``(D*N,)`` and
  ``(D*N, K)`` for joint, ``(D*N,)`` and ``(N, D, K/N)`` for independent,
  ``(D,)`` and ``(D, K/N)`` for shared, ``(0,)`` and ``(0, 0)`` for sign.
  ``hashing.model_layout`` gives these shapes and checks the header: ``D``,
  ``N`` and ``K`` are at least 1 and the variant can take ``K`` bits, so
  ``save_model`` writes, and ``load_model`` reads, only models that exist.
* Descriptors of one image, ``DHDESC01``; header ``<2I``: ``D >= 1``, rows
  ``n >= 1``.  Array: the descriptors ``(n, D)`` float32.
* Query payload, ``DHWIRE01``; header ``<I``: bits ``K``.  Arrays: the
  packed code, ``ceil(K / 8)`` uint8 with bit ``k`` at bit ``k % 8`` of byte
  ``k // 8`` and every bit past ``K`` zero; a flags uint8 (0x01 GPS,
  0x02 category, no other bit); with 0x01 the GPS fix, latitude then
  longitude in degrees, float64 each; with 0x02 the category, uint32.
  ``dehash index`` stores each image's code as a payload without context.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hashing import BinaryCode, HashingModel, model_layout
from .vocab import VocabularyTree

TREE_MAGIC = b"DHTREE01"
MODEL_MAGIC = b"DHHASH01"
DESC_MAGIC = b"DHDESC01"
WIRE_MAGIC = b"DHWIRE01"

# (variant, rotated) per variant byte.
_VARIANT_CODES = {
    ("joint", False): 0, ("independent", False): 1, ("shared", False): 2, ("sign", False): 3,
    ("joint", True): 5,
}
_CODE_VARIANTS = {v: k for k, v in _VARIANT_CODES.items()}

_FLAG_GPS = 0x01
_FLAG_CATEGORY = 0x02
GPS_PAYLOAD_BYTES = 16  # two float64 coordinates
EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True)
class ContextTag:
    """Contextual cues accompanying a transmitted code."""

    gps: tuple[float, float] | None = None  # (lat, lon) degrees
    category: int | None = None


def check_gps(lat, lon) -> tuple[float, float]:
    """``(lat, lon)`` as floats; ``ValueError`` unless the latitude lies in
    [-90, 90] and the longitude in [-180, 180] (so NaN and infinity fail)."""
    lat, lon = float(lat), float(lon)
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise ValueError(f"GPS ({lat}, {lon}) needs a latitude in [-90, 90] and a longitude in [-180, 180]")
    return lat, lon


def _pack(magic: bytes, header: str, fields: tuple, *arrays: tuple[str, object]) -> bytes:
    """``magic``, the ``header`` of ``fields``, then each ``(dtype, array)``."""
    chunks = [magic, struct.pack(header, *fields)]
    chunks += [np.ascontiguousarray(array, dtype=dtype).tobytes() for dtype, array in arrays]
    return b"".join(chunks)


class _Reader:
    """``data`` taken apart front to back: ``fields`` is its header, ``take``
    copies out the next array and ``done`` rejects what is left over; every
    error names ``source``."""

    def __init__(self, data: bytes, source, magic: bytes, header: str) -> None:
        self.data, self.source = data, source
        if data[: len(magic)] != magic:
            raise ValueError(f"{source}: bad magic, expected {magic.decode()}")
        self.offset = len(magic) + struct.calcsize(header)
        if len(data) < self.offset:
            raise ValueError(f"{source}: ends at byte {len(data)}, inside the header")
        self.fields = struct.unpack_from(header, data, len(magic))

    def take(self, dtype: str, *shape: int) -> np.ndarray:
        try:  # a view, so nothing is allocated before the length is checked
            array = np.frombuffer(self.data, dtype, math.prod(shape), self.offset)
        except ValueError:
            where = f"ends at byte {len(self.data)}, inside the array at byte {self.offset}"
            raise ValueError(f"{self.source}: {where}") from None
        self.offset += array.nbytes
        return array.reshape(shape).copy()

    def done(self) -> None:
        extra = len(self.data) - self.offset
        if extra:
            raise ValueError(f"{self.source}: {extra} trailing bytes after byte {self.offset}")


def _read(path, magic: bytes, header: str) -> _Reader:
    with open(path, "rb", buffering=0) as f:  # one read of the whole file, no buffer object
        return _Reader(f.read(), path, magic, header)


def save_tree(tree: VocabularyTree, path) -> None:
    """Write the two persisted levels of the tree."""
    tree.validate()
    fields = (tree.dim, tree.num_vlad_centers, tree.num_leaves, tree.branch, tree.levels, tree.vlad_level)
    arrays = (("<f4", tree.vlad_centers), ("<f4", tree.leaf_centers), ("<u4", tree.parent_of_leaf))
    Path(path).write_bytes(_pack(TREE_MAGIC, "<6I", fields, *arrays))


def load_tree(path) -> VocabularyTree:
    r = _read(path, TREE_MAGIC, "<6I")
    dim, n, m, branch, levels, vlad_level = r.fields
    vlad_centers, leaf_centers, parents = r.take("<f4", n, dim), r.take("<f4", m, dim), r.take("<u4", m)
    r.done()
    tree = _checked(path, VocabularyTree, dim, branch, levels, vlad_level, vlad_centers, leaf_centers)
    _checked(path, tree.validate)
    if not np.array_equal(parents, tree.parent_of_leaf):
        raise ValueError(f"{path}: each leaf's coarse center must be leaf // {tree.pool_size}")
    return tree


def _checked(path, check, *args):
    """``check(*args)``, its ``ValueError`` naming ``path``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_model(model: HashingModel, path) -> None:
    """Write ``model``; one ``load_model`` would reject (no such layout, or an
    array of another shape) raises ``ValueError`` and writes nothing."""
    rotate = model.rotation is not None
    mean_shape, proj_shape = _checked(
        path, model_layout, model.variant, model.dim, model.num_centers, model.nbits, rotate
    )
    k = model.nbits
    arrays = {"mean": (model.mean, mean_shape), "projections": (model.projections, proj_shape)}
    if rotate:
        arrays["rotation"] = (model.rotation, (k, k))
    arrays["reversal_scales"] = (model.reversal_scales, (k,))
    for name, (array, shape) in arrays.items():
        if np.shape(array) != shape:
            raise ValueError(f"{path}: {name} is {np.shape(array)}, the layout needs {shape}")
    fields = (_VARIANT_CODES[model.variant, rotate], model.dim, model.num_centers, k)
    Path(path).write_bytes(_pack(MODEL_MAGIC, "<B3I", fields, *(("<f4", a) for a, _ in arrays.values())))


def load_model(path) -> HashingModel:
    r = _read(path, MODEL_MAGIC, "<B3I")
    variant_code, dim, n_centers, nbits = r.fields
    if variant_code not in _CODE_VARIANTS:
        raise ValueError(f"{path}: unknown variant byte {variant_code}")
    variant, rotate = _CODE_VARIANTS[variant_code]
    mean_shape, proj_shape = _checked(path, model_layout, variant, dim, n_centers, nbits, rotate)
    model = HashingModel(
        variant=variant,
        dim=dim,
        num_centers=n_centers,
        nbits=nbits,
        mean=r.take("<f4", *mean_shape),
        projections=r.take("<f4", *proj_shape),
        rotation=r.take("<f4", nbits, nbits) if rotate else None,
        reversal_scales=r.take("<f4", nbits),
    )
    r.done()
    return model


def save_descriptors(path, descriptors: np.ndarray) -> None:
    """Write one image's descriptors; an empty set or dimension 0 raises, as
    ``load_descriptors`` would."""
    X = np.atleast_2d(np.asarray(descriptors, dtype="<f4"))
    if not len(X):
        raise ValueError(f"{path}: descriptor set must be nonempty")
    if not X.shape[1]:
        raise ValueError(f"{path}: descriptor dimension must be positive")
    Path(path).write_bytes(_pack(DESC_MAGIC, "<2I", (X.shape[1], X.shape[0]), ("<f4", X)))


def load_descriptors(path) -> np.ndarray:
    r = _read(path, DESC_MAGIC, "<2I")
    dim, count = r.fields
    if count == 0:
        raise ValueError(f"{path}: descriptor set must be nonempty")
    if dim == 0:
        raise ValueError(f"{path}: descriptor dimension must be positive")
    X = r.take("<f4", count, dim)
    r.done()
    return X


def wire_encode(code: BinaryCode, context: ContextTag | None = None) -> bytes:
    """The payload of ``code`` and its context cues; a GPS fix ``check_gps``
    rejects, or a category that is not an integer in uint32, raises."""
    context = context or ContextTag()
    flags, cues = 0, []
    if context.gps is not None:
        flags |= _FLAG_GPS
        cues.append(("<f8", check_gps(*context.gps)))
    if context.category is not None:
        flags |= _FLAG_CATEGORY
        cues.append(("<u4", operator.index(context.category)))
    return _pack(WIRE_MAGIC, "<I", (code.nbits,), ("u1", code.packed), ("u1", flags), *cues)


def wire_decode(payload: bytes) -> tuple[BinaryCode, ContextTag]:
    """The code and context of a payload :func:`wire_encode` made; never partial data."""
    return _decode(_Reader(payload, "payload", WIRE_MAGIC, "<I"))


def load_payload(path) -> tuple[BinaryCode, ContextTag]:
    """The code and context of a payload file, such as ``dehash index`` writes."""
    return _decode(_read(path, WIRE_MAGIC, "<I"))


def _decode(r: _Reader) -> tuple[BinaryCode, ContextTag]:
    (nbits,) = r.fields
    packed = r.take("u1", (nbits + 7) // 8)
    (flags,) = r.take("u1", 1).tolist()
    if flags & ~(_FLAG_GPS | _FLAG_CATEGORY):
        raise ValueError(f"{r.source}: unknown context flags 0x{flags:02x}")
    gps = r.take("<f8", 2).tolist() if flags & _FLAG_GPS else None
    category = r.take("<u4", 1).tolist()[0] if flags & _FLAG_CATEGORY else None
    r.done()
    try:
        return BinaryCode(packed, nbits), ContextTag(None if gps is None else check_gps(*gps), category)
    except ValueError as exc:
        raise ValueError(f"{r.source}: {exc}") from None
