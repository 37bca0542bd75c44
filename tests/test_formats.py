"""Every on-disk loader rejects a truncated or padded file with a ValueError naming it."""

import re
import struct

import numpy as np
import pytest

from dehash.aggregate import compute_vlad, load_descriptors, save_descriptors
from dehash.hashing import (
    MODEL_MAGIC,
    encode,
    load_code,
    load_model,
    save_code,
    save_model,
    train_hashing,
)
from dehash.vocab import load_tree, save_tree, train_vocabulary

from test_vocab import gaussian_mixture


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("formats")
    X = gaussian_mixture(400, 4, 4, seed=211)
    tree = train_vocabulary(X, branch=2, levels=2, vlad_level=1, seed=211)
    rng = np.random.default_rng(211)
    vlads = [compute_vlad(tree, X[rng.integers(0, len(X), size=30)]) for _ in range(12)]
    files = {}
    files["tree"] = out / "tree.bin"
    save_tree(tree, files["tree"])
    for name, rotate in (("model", False), ("rotated-model", True)):
        files[name] = out / f"{name}.bin"
        save_model(train_hashing(vlads, "joint", 4, seed=211, rotate=rotate), files[name])
    files["code"] = out / "q.code"
    save_code(encode(load_model(files["model"]), vlads[0]), files["code"])
    files["descriptors"] = out / "q.desc"
    save_descriptors(files["descriptors"], X[:3])
    return {name: path.read_bytes() for name, path in files.items()}


LOADERS = {
    "tree": load_tree,
    "model": load_model,
    "rotated-model": load_model,
    "code": load_code,
    "descriptors": load_descriptors,
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_truncated_or_padded_file_raises_value_error(kind, valid_files, tmp_path):
    load, good = LOADERS[kind], valid_files[kind]
    path = tmp_path / f"bad-{kind}.bin"
    path.write_bytes(good)
    load(path)  # the untouched file loads
    for payload in [good[:end] for end in range(len(good))] + [good + b"\0"]:
        path.write_bytes(payload)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load(path)


def test_model_without_centers_raises_value_error(tmp_path):
    # A shared-projection header with zero centers would divide by zero.
    path = tmp_path / "empty.bin"
    path.write_bytes(MODEL_MAGIC + struct.pack("<B3I", 2, 4, 0, 8))
    with pytest.raises(ValueError, match=re.escape(str(path))):
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
    ],
)
def test_model_header_train_hashing_cannot_write_rejected(variant, dim, n_centers, nbits, tmp_path):
    # The payload has exactly the length such a header asks for, so only the
    # header itself can be at fault.
    total = dim * n_centers
    floats = {
        1: total + dim * n_centers * (nbits // n_centers) + nbits,
        2: dim + dim * (nbits // n_centers) + nbits,
        3: nbits,
    }[variant]
    path = tmp_path / "bad-header.bin"
    path.write_bytes(
        MODEL_MAGIC + struct.pack("<B3I", variant, dim, n_centers, nbits) + bytes(4 * floats)
    )
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_model(path)
