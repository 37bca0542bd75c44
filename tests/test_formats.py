"""Every file and payload layout: pinned bytes, byte round trips, and a
ValueError naming the file (or the payload) for a bad magic, every
truncation and a trailing byte."""

import dataclasses
import hashlib
import re
import struct

import numpy as np
import pytest

from dehash.formats import (
    MODEL_MAGIC,
    TREE_MAGIC,
    ContextTag,
    load_descriptors,
    load_model,
    load_payload,
    load_tree,
    save_descriptors,
    save_model,
    save_tree,
    wire_decode,
    wire_encode,
)
from dehash.hashing import BinaryCode, HashingModel
from dehash.vocab import VocabularyTree


def ramp(*shape):
    """Fixed float32 values, exact in binary, so the pins hold on any host."""
    return ((np.arange(int(np.prod(shape))) % 7 - 3) / 4).astype(np.float32).reshape(shape)


# Per model kind: variant, rotated, mean shape, projection shape, bits; D = 3, N = 2.
MODELS = {
    "model": ("joint", False, (6,), (6, 4), 4),
    "rotated-model": ("joint", True, (6,), (6, 4), 4),
    "independent-model": ("independent", False, (6,), (2, 3, 2), 4),
    "shared-model": ("shared", False, (3,), (3, 2), 4),
    "sign-model": ("sign", False, (0,), (0, 0), 6),
}


def fixed_model(kind):
    variant, rotated, mean, projections, nbits = MODELS[kind]
    return HashingModel(
        variant=variant, dim=3, num_centers=2, nbits=nbits, mean=ramp(*mean),
        projections=ramp(*projections), reversal_scales=ramp(nbits) + 1,
        rotation=ramp(nbits, nbits) if rotated else None,
    )


CODE = BinaryCode.from_bits(np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1]))
CONTEXTS = {
    "none": None,
    "gps": ContextTag(gps=(45.0625, 7.125)),
    "category": ContextTag(category=3),
    "gps-category": ContextTag(gps=(-33.5, 151.25), category=2),
}

# Per format: save(value, path), load(path).
FORMATS = {
    "tree": (save_tree, load_tree),
    "model": (save_model, load_model),
    "descriptors": (lambda X, path: save_descriptors(path, X), load_descriptors),
    "payload": (lambda payload, path: path.write_bytes(wire_encode(*payload)), load_payload),
}

# Per kind of file: its format and the value written.  "code" is the file
# ``dehash index`` writes per image: a payload without context.
KINDS = {
    "tree": ("tree", VocabularyTree(
        dim=3, branch=2, levels=2, vlad_level=1, vlad_centers=ramp(2, 3),
        leaf_centers=ramp(4, 3) / 2,
    )),
    **{kind: ("model", fixed_model(kind)) for kind in MODELS},
    "descriptors": ("descriptors", ramp(5, 3)),
    "code": ("payload", (CODE, None)),
    **{f"{name}-payload": ("payload", (CODE, ctx)) for name, ctx in CONTEXTS.items() if ctx},
}

# sha256 of each writer's output on the values above; a layout change fails here.
PINS = {
    "tree": "3fc40ce4ed9735b3b1a4dcb265c3fe787351d4b85aeb8f1728b2e5cf17ac39a2",
    "model": "2d964f73520dc33d3830a4adb6d0d19a34273fbc8dc7fe9a5ffcfc71371528b0",
    "rotated-model": "cf1b749a5a0592e7a368e8af26d19cd2369271de85503903257beae5094eaee2",
    "independent-model": "72b7898990f28923b362dd273157635fb37dcda418bac4fcedad615ed6e694f3",
    "shared-model": "28954971698a238312af7237f322f18e4ba446fb9ab1d7f76afc2e91a953b5b2",
    "sign-model": "2d3b4a2a7b9474a684f7a0acd1c73187f4c37e18f637cb85ffb10ffd7d129fa4",
    "descriptors": "7788aecbfd4ba6520fe82512991aa108ddbd7a822ab36048c5cb5b4d50d2a485",
    "code": "e0bca3adf3707f017325fae57f22d6f0ddba617a038c7d45edebba5b40561a3f",
    "gps-payload": "a5e5a81934bca2f1847fa2610768428d172c62f4f5bf31801e04f517f68db13b",
    "category-payload": "a1ef060415807260fb8d525abb614da305f33ba278131aea391357f297bf67df",
    "gps-category-payload": "6129035ef624435a47408f308b971bff7c60d1d3c392622c4123f9354ac80c54",
}


def written(kind, path):
    fmt, value = KINDS[kind]
    FORMATS[fmt][0](value, path)
    return path.read_bytes()


def loader(kind):
    return FORMATS[KINDS[kind][0]][1]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_writer_output_is_pinned(kind, tmp_path):
    assert hashlib.sha256(written(kind, tmp_path / kind)).hexdigest() == PINS[kind]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_save_load_save_is_byte_identical(kind, tmp_path):
    first = written(kind, tmp_path / "first")
    FORMATS[KINDS[kind][0]][0](loader(kind)(tmp_path / "first"), tmp_path / "again")
    assert (tmp_path / "again").read_bytes() == first


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_truncated_or_padded_file_raises_value_error(kind, tmp_path):
    load, path = loader(kind), tmp_path / f"bad-{kind}.bin"
    good = written(kind, path)
    load(path)  # the untouched file loads
    for payload in [good[:end] for end in range(len(good))] + [good + b"\0"]:
        path.write_bytes(payload)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load(path)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_bad_magic_raises_value_error(kind, tmp_path):
    path = tmp_path / f"bad-{kind}.bin"
    path.write_bytes(b"XXXXXXXX" + written(kind, path)[8:])
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*magic"):
        loader(kind)(path)


@pytest.mark.parametrize("context", sorted(CONTEXTS))
def test_truncated_or_padded_payload_raises_value_error(context):
    good = wire_encode(CODE, CONTEXTS[context])
    assert wire_decode(good) == (CODE, CONTEXTS[context] or ContextTag())
    for payload in [good[:end] for end in range(len(good))] + [good + b"\0", b"XXXXXXXX" + good[8:]]:
        with pytest.raises(ValueError, match="^payload: "):
            wire_decode(payload)


def test_descriptor_header_without_rows_rejected(tmp_path):
    # The writer refuses an empty set and leaves no file; the reader rejects one.
    path = tmp_path / "empty.desc"
    for empty in (np.empty((0, 4)), np.empty((0, 4), dtype=np.float32)):
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*nonempty"):
            save_descriptors(path, empty)
    assert not path.exists()
    path.write_bytes(written("descriptors", path)[:12] + struct.pack("<I", 0))
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*nonempty"):
        load_descriptors(path)


def test_descriptors_of_dimension_zero_rejected(tmp_path):
    # np.atleast_2d makes one row of width 0 from np.empty(0).
    path = tmp_path / "flat.desc"
    for flat in (np.empty(0), np.empty((3, 0)), np.empty((1, 0), dtype=np.float32)):
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*dimension"):
            save_descriptors(path, flat)
    assert not path.exists()
    for rows in (1, 3):
        path.write_bytes(written("descriptors", path)[:8] + struct.pack("<2I", 0, rows))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*dimension"):
            load_descriptors(path)


@pytest.mark.parametrize(
    "header, parents, fault",
    [
        ((3, 2, 4, 2, 2, 1), [1, 0, 1, 1], "leaf // 2"),  # ragged pools
        ((3, 2, 4, 2, 2, 1), [0, 1, 0, 1], "leaf // 2"),  # interleaved pools
        ((3, 3, 4, 2, 2, 1), [0, 0, 1, 1], r"\(N, M\) = \(3, 4\)"),  # branch 2 at level 1 makes N = 2
        ((3, 2, 8, 2, 2, 1), [0] * 4 + [1] * 4, r"\(N, M\) = \(2, 8\)"),  # 2 levels make M = 4
        ((3, 1, 1, 1, 1, 1), [0], "branch must be >= 2"),
    ],
    ids=["ragged", "interleaved", "N", "M", "branch"],
)
def test_tree_off_the_shape_rule_rejected(header, parents, fault, tmp_path):
    # Every array has the length the header asks for, so only the layout is
    # at fault.
    dim, n, m = header[:3]
    path = tmp_path / "bad-tree.bin"
    arrays = ramp(n, dim).tobytes() + ramp(m, dim).tobytes() + np.array(parents, dtype="<u4").tobytes()
    path.write_bytes(TREE_MAGIC + struct.pack("<6I", *header) + arrays)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ": .*" + fault):
        load_tree(path)


def test_model_without_centers_raises_value_error(tmp_path):
    # A shared-projection header with zero centers would divide by zero.
    path = tmp_path / "empty.bin"
    path.write_bytes(MODEL_MAGIC + struct.pack("<B3I", 2, 4, 0, 8))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_model(path)


def test_retired_variant_byte_raises_value_error(tmp_path):
    # Byte 4 was the random-projection variant, which had no reversal: a file
    # in its exact layout (mean (D*N,), projections (D*N, K), scales (K,)) is
    # refused like any unknown byte.
    dim, n_centers, nbits = 3, 2, 5
    path = tmp_path / "rp-model.bin"
    floats = dim * n_centers * (1 + nbits) + nbits
    path.write_bytes(MODEL_MAGIC + struct.pack("<B3I", 4, dim, n_centers, nbits) + ramp(floats).tobytes())
    with pytest.raises(ValueError, match=re.escape(str(path)) + ": unknown variant byte 4"):
        load_model(path)


@pytest.mark.parametrize(
    "variant, dim, n_centers, nbits",
    [
        (2, 4, 2, 3),  # shared: 3 bits do not split over 2 centers
        (1, 4, 2, 3),  # independent, likewise
        (2, 2, 2, 6),  # shared: 3 bits per center exceed D = 2
        (1, 2, 2, 6),  # independent, likewise
        (3, 4, 2, 5),  # sign: one bit per component, D*N = 8
        (3, 4, 2, 9),
        (0, 4, 2, 9),  # joint: 9 bits exceed D*N = 8
        (5, 4, 2, 9),  # joint with a rotation, likewise
        (0, 4, 2, 0),  # no bits
        (0, 0, 2, 1),  # sub-vectors of dimension 0
    ],
)
def test_model_header_train_hashing_cannot_write_rejected(variant, dim, n_centers, nbits, tmp_path):
    # The payload has exactly the length such a header asks for, so only the
    # header itself can be at fault.
    total = dim * n_centers
    floats = {
        0: total + total * nbits + nbits,
        1: total + dim * n_centers * (nbits // n_centers) + nbits,
        2: dim + dim * (nbits // n_centers) + nbits,
        3: nbits,
        5: total + total * nbits + nbits * nbits + nbits,
    }[variant]
    path = tmp_path / "bad-header.bin"
    path.write_bytes(
        MODEL_MAGIC + struct.pack("<B3I", variant, dim, n_centers, nbits) + bytes(4 * floats)
    )
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_model(path)


@pytest.mark.parametrize(
    "kind, change",
    [
        ("model", {"projections": ramp(6, 3)}),  # a 4-bit joint model needs (6, 4)
        ("shared-model", {"projections": ramp(2, 2)}),  # a shared one of D = 3 needs (3, 2)
        ("rotated-model", {"rotation": ramp(3, 3)}),
        ("sign-model", {"reversal_scales": ramp(5)}),
        ("shared-model", {"nbits": 3, "reversal_scales": ramp(3)}),  # 3 bits do not split over N = 2
        ("sign-model", {"nbits": 4, "reversal_scales": ramp(4)}),  # sign takes D*N = 6 bits
        ("shared-model", {"rotation": ramp(4, 4)}),  # a rotation is joint only
    ],
)
def test_save_model_refuses_what_load_model_rejects(kind, change, tmp_path):
    model = dataclasses.replace(fixed_model(kind), **change)
    path = tmp_path / "bad.bin"
    with pytest.raises(ValueError, match=re.escape(str(path))):
        save_model(model, path)
    assert not path.exists()
