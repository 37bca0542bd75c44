"""``vocab.descriptor_rows`` is the one rule for a descriptor set (at least
one row, a positive width, the tree's width, finite values), and every entry
point that takes one image's descriptors applies it."""

import re
import struct

import numpy as np
import pytest

from dehash.aggregate import aggregate_images, compute_bow, compute_vlad
from dehash.cli import main
from dehash.dataset import ManifestEntry, ingest_dataset, training_blob, write_manifest
from dehash.formats import DESC_MAGIC, load_descriptors, save_descriptors
from dehash.vocab import assign_descriptors, descriptor_rows, train_vocabulary

DIM = 4


@pytest.fixture(scope="module")
def tree():
    return train_vocabulary(training_blob(DIM, 400, 2, seed=29), 2, 2, 1, seed=29)


def with_value(value):
    X = np.ones((3, DIM))
    X[1, 2] = value
    return X


# Each bad set and a fragment of the error it raises.
BAD = {
    "empty": (np.empty((0, DIM)), "nonempty"),
    "zero-width": (np.empty((3, 0)), "dimension"),
    "wrong-width": (np.ones((3, DIM + 1)), "dimension"),
    "nan": (with_value(np.nan), "finite"),
    "inf": (with_value(np.inf), "finite"),
    "-inf": (with_value(-np.inf), "finite"),
    "past-float32": (with_value(1e39), "finite"),  # float64, inf once cast to float32
}


def write_raw(path, X):
    """A descriptor file of ``X`` as float32, laid out by hand: no check runs."""
    X = np.asarray(X, dtype="<f4")
    path.write_bytes(DESC_MAGIC + struct.pack("<2I", X.shape[1], X.shape[0]) + X.tobytes())
    return path


def ingest_with(tmp_path, X):
    """Ingest a manifest of a good file, then ``X`` written by hand."""
    write_raw(tmp_path / "good.desc", np.ones((2, DIM)))
    write_raw(tmp_path / "bad.desc", X)
    entries = [ManifestEntry(name, f"{name}.desc", None, None, ()) for name in ("good", "bad")]
    write_manifest(tmp_path / "m.tsv", entries)
    ingest_dataset(tmp_path / "m.tsv")


# Entry point -> (a call given the tree, a bad set and a directory; the BAD
# sets it can take).  Wrong width needs a width to compare with, and only
# saving casts float64 values to float32.
FILE_CASES = ("empty", "zero-width", "nan", "inf", "-inf")
TREE_CASES = ("empty", "zero-width", "wrong-width", "nan", "inf", "-inf")
ENTRY_POINTS = {
    "save_descriptors": (lambda tree, X, d: save_descriptors(d / "x.desc", X), (*FILE_CASES, "past-float32")),
    "load_descriptors": (lambda tree, X, d: load_descriptors(write_raw(d / "x.desc", X)), FILE_CASES),
    "ingest_dataset": (lambda tree, X, d: ingest_with(d, X), TREE_CASES),
    "compute_vlad": (lambda tree, X, d: compute_vlad(tree, X), TREE_CASES),
    "compute_bow": (lambda tree, X, d: compute_bow(tree, X), TREE_CASES),
    "aggregate_images": (lambda tree, X, d: aggregate_images(tree, [np.ones((2, DIM)), X]), TREE_CASES),
    "assign_descriptors": (lambda tree, X, d: assign_descriptors(tree, X), TREE_CASES),
    "train_vocabulary": (lambda tree, X, d: train_vocabulary(X, 2, 2, 1), FILE_CASES),
}
# The file each file-reading or -writing entry point's error names.
NAMED = {"save_descriptors": "x.desc", "load_descriptors": "x.desc", "ingest_dataset": "bad.desc"}


@pytest.mark.parametrize(
    "entry, case", [(entry, case) for entry, (_, cases) in ENTRY_POINTS.items() for case in cases]
)
def test_every_entry_point_rejects_a_bad_set(tree, tmp_path, entry, case):
    call, _ = ENTRY_POINTS[entry]
    X, fragment = BAD[case]
    with pytest.raises(ValueError, match=fragment) as raised:
        call(tree, X, tmp_path)
    if entry in NAMED:
        assert str(raised.value).startswith(f"{tmp_path / NAMED[entry]}: ")
    if entry == "save_descriptors":
        assert not (tmp_path / "x.desc").exists()


def test_rule_keeps_the_dtype_and_reads_a_vector_as_one_row():
    X = np.ones((2, DIM), dtype=np.float32)
    assert descriptor_rows(X, DIM) is X
    assert descriptor_rows(np.arange(3.0)).shape == (1, 3)
    with pytest.raises(ValueError, match=re.escape("(n, D) array, got shape (1, 2, 3)")):
        descriptor_rows(np.ones((1, 2, 3)))


def test_descriptor_files_round_trip_as_float32(tmp_path):
    X = training_blob(DIM, 5, 2)
    save_descriptors(tmp_path / "x.desc", X)
    loaded = load_descriptors(tmp_path / "x.desc")
    assert loaded.dtype == np.float32 and np.array_equal(loaded, X.astype(np.float32))


def test_manifest_run_with_a_nan_file_fails_at_dataset(tmp_path, capsys):
    good = np.ones((3, 16))
    write_raw(tmp_path / "a.desc", good)
    bad = write_raw(tmp_path / "b.desc", np.where(np.arange(16) == 5, np.nan, good))
    entries = [ManifestEntry("a", "a.desc", None, None, ("b",)), ManifestEntry("b", "b.desc", None, None, ("a",))]
    write_manifest(tmp_path / "m.tsv", entries)
    assert main(["benchmark", "--manifest", str(tmp_path / "m.tsv"), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error [dataset] {bad}: descriptors must be finite\n"
