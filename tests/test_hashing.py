from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from dehash import hashing
from dehash.formats import load_model, save_model
from dehash.hashing import (
    BinaryCode,
    approximate_vlad,
    encode,
    encode_stack,
    model_layout,
    train_hashing,
)
from dehash.pipeline import ExperimentConfig, HashParams, TreeParams, memory_table


def random_vlads(rng, n, num_centers, dim, scale=1.0):
    return [rng.normal(size=(num_centers, dim)) * scale for _ in range(n)]


@pytest.fixture
def rng():
    # Fresh per test, so each test sees the same data alone as in the full file.
    return np.random.default_rng(71)


class TestTraining:
    def test_joint_full_rank_orthonormal(self, rng):
        vlads = random_vlads(rng, 200, 4, 8)
        model = train_hashing(vlads, "joint", nbits=32)
        w = np.asarray(model.projections, dtype=np.float64)
        np.testing.assert_allclose(w.T @ w, np.eye(32), atol=1e-6)

    def test_split_variants_orthonormal(self, rng):
        vlads = random_vlads(rng, 150, 4, 8)
        for variant in ("independent", "shared"):
            model = train_hashing(vlads, variant, nbits=16)
            ws = np.asarray(model.projections, dtype=np.float64)
            blocks = ws if variant == "independent" else ws[None]
            for w in blocks:
                np.testing.assert_allclose(w.T @ w, np.eye(w.shape[1]), atol=1e-6)

    def test_pca_matches_eigensolver_oracle(self, rng):
        vlads = random_vlads(rng, 300, 2, 6)
        model = train_hashing(vlads, "joint", nbits=12)
        X = np.stack([v.reshape(-1) for v in vlads])
        Xc = X - X.mean(axis=0)
        eigvals, eigvecs = np.linalg.eigh(Xc.T @ Xc / X.shape[0])
        order = np.argsort(eigvals)[::-1]
        w = np.asarray(model.projections, dtype=np.float64)
        for k in range(12):
            dot = abs(float(eigvecs[:, order[k]] @ w[:, k]))
            assert dot == pytest.approx(1.0, abs=1e-6)

    def test_variance_per_bit_nonincreasing(self, rng):
        vlads = random_vlads(rng, 250, 2, 8)
        model = train_hashing(vlads, "joint", nbits=16)
        X = np.stack([v.reshape(-1) for v in vlads])
        proj = (X - X.mean(axis=0)) @ np.asarray(model.projections, dtype=np.float64)
        variances = proj.var(axis=0)
        assert np.all(np.diff(variances) <= 1e-9)

    def test_list_and_stack_train_the_same_model(self, rng):
        vlads = random_vlads(rng, 60, 2, 4)
        a = train_hashing(vlads, "joint", nbits=8)
        b = train_hashing(np.stack(vlads), "joint", nbits=8)
        for field in ("mean", "projections", "reversal_scales"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        for ragged in ([np.zeros((2, 4)), np.zeros((3, 4))], [np.zeros(8)] * 5):
            with pytest.raises(ValueError):
                train_hashing(ragged, "joint", nbits=2)

    def test_rank_bound_enforced(self, rng):
        vlads = random_vlads(rng, 10, 2, 8)
        with pytest.raises(ValueError, match="rank"):
            train_hashing(vlads, "joint", nbits=16)  # only 9 usable directions
        with pytest.raises(ValueError, match="divisible"):
            train_hashing(vlads, "shared", nbits=9)
        with pytest.raises(ValueError, match="exceed"):
            train_hashing(vlads, "independent", nbits=20)  # 10 bits per 8-dim block

    def test_sign_variant_requires_full_width(self, rng):
        vlads = random_vlads(rng, 30, 2, 4)
        with pytest.raises(ValueError):
            train_hashing(vlads, "sign", nbits=4)
        model = train_hashing(vlads, "sign", nbits=8)
        assert model.reversal_scales.shape == (8,)

    def test_rotation_only_for_joint(self, rng):
        vlads = random_vlads(rng, 40, 2, 4)
        with pytest.raises(ValueError):
            train_hashing(vlads, "shared", nbits=8, rotate=True)
        model = train_hashing(vlads, "joint", nbits=8, rotate=True)
        r = np.asarray(model.rotation, dtype=np.float64)
        np.testing.assert_allclose(r.T @ r, np.eye(8), atol=1e-6)

    def test_unknown_variant_rejected(self):
        # "rp" (seeded random projections) had no reversal and is no variant.
        with pytest.raises(ValueError, match="unknown variant 'rp'"):
            train_hashing(np.ones((50, 2, 4)), "rp", nbits=8)
        with pytest.raises(ValueError, match="unknown variant 'rp'"):
            model_layout("rp", 4, 2, 8)

    def test_deterministic_per_seed(self, rng):
        vlads = random_vlads(rng, 60, 2, 4)
        a = train_hashing(vlads, "joint", nbits=8, seed=5, rotate=True)
        b = train_hashing(vlads, "joint", nbits=8, seed=5, rotate=True)
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.projections, b.projections)


class TestEncode:
    def test_padding_bits_rejected(self):
        # Bits 10-15 of a 10-bit code are padding; from_bits leaves them zero.
        assert BinaryCode(np.array([0xFF, 0x03], dtype=np.uint8), 10) == BinaryCode.from_bits(np.ones(10))
        for last in (0x04, 0x80, 0xFC):
            with pytest.raises(ValueError, match="bits past"):
                BinaryCode(np.array([0xFF, last], dtype=np.uint8), 10)
        BinaryCode(np.array([0xFF, 0xFF], dtype=np.uint8), 16)  # no padding to check

    def test_sign_convention(self, rng):
        vlads = random_vlads(rng, 50, 1, 2)
        model = train_hashing(vlads, "sign", nbits=2)
        bits = encode(model, np.array([[2.0, -3.0]])).bits()
        assert bits.tolist() == [1, 0]

    def test_zero_projection_maps_to_one(self, rng):
        vlads = random_vlads(rng, 50, 1, 2)
        model = train_hashing(vlads, "sign", nbits=2)
        bits = encode(model, np.zeros((1, 2))).bits()
        assert bits.tolist() == [1, 1]

    def test_mean_input_joint(self, rng):
        vlads = random_vlads(rng, 80, 2, 4)
        model = train_hashing(vlads, "joint", nbits=8)
        mean_v = np.asarray(model.mean, dtype=np.float64).reshape(2, 4)
        bits = encode(model, mean_v).bits()
        assert bits.tolist() == [1] * 8  # all projections are exactly zero

    def test_hamming_tracks_l2(self, rng):
        vlads = random_vlads(rng, 100, 4, 8)
        model = train_hashing(vlads, "joint", nbits=32)
        codes = [encode(model, v) for v in vlads]
        X = np.stack([v.reshape(-1) for v in vlads])
        Xc = X - X.mean(axis=0)
        ham, l2 = [], []
        for i in range(0, 100, 3):
            for j in range(i + 1, 100, 7):
                ham.append(np.count_nonzero(codes[i].bits() != codes[j].bits()))
                l2.append(np.linalg.norm(Xc[i] - Xc[j]))
        rho = spearmanr(ham, l2).statistic
        assert rho > 0

    def test_dimension_mismatch(self, rng):
        vlads = random_vlads(rng, 50, 2, 4)
        model = train_hashing(vlads, "joint", nbits=8)
        # Too long, transposed and flattened VLADs are all refused.
        for shape in ((2, 5), (4, 2), (8,)):
            with pytest.raises(ValueError, match=r"expected \(2, 4\)"):
                encode(model, np.zeros(shape))


def projection_columns(model):
    """Dense ``(A, c)`` with ``_project(model, x) = A.T @ (x - c)`` in exact
    arithmetic, sign's ``A`` the identity about 0."""
    n_c, d, per = model.num_centers, model.dim, model.nbits // model.num_centers
    w = np.asarray(model.projections, dtype=np.float64)
    mean = np.asarray(model.mean, dtype=np.float64)
    if model.variant == "sign":
        return np.eye(n_c * d), np.zeros(n_c * d)
    if model.variant == "joint":
        if model.rotation is not None:
            w = w @ np.asarray(model.rotation, dtype=np.float64).T
        return w, mean
    cols = np.zeros((n_c * d, model.nbits))
    for i in range(n_c):
        block = w[i] if model.variant == "independent" else w
        cols[i * d : (i + 1) * d, i * per : (i + 1) * per] = block
    return cols, mean if model.variant == "independent" else np.tile(mean, n_c)


VARIANT_CASES = [("joint", False), ("joint", True), ("independent", False), ("shared", False), ("sign", False)]


@st.composite
def stacked_vlads(draw):
    """A model of every variant and a stack of rows to encode: free rows,
    rows on a projection hyperplane (``x - mean`` orthogonal to one bit's
    column up to rounding, so the product cannot decide that bit), rows at
    the mean (every projection an exact zero), rows with NaN or inf, all at
    scales 1e-150 to 1e150."""
    variant, rotate = draw(st.sampled_from(VARIANT_CASES))
    n_c, d = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if variant == "sign":
        nbits = n_c * d
    elif variant == "joint":
        nbits = draw(st.integers(1, n_c * d))
    else:
        nbits = n_c * draw(st.integers(1, d))
    model = train_hashing(random_vlads(rng, 40, n_c, d), variant, nbits, seed=3, rotate=rotate)
    kinds = draw(st.lists(st.sampled_from(["free", "plane", "mean", "non-finite"]), max_size=12))
    rows = []
    for kind in kinds:
        scale = 10.0 ** draw(st.integers(-150, 150))
        z = rng.standard_normal(n_c * d)
        if kind == "free":
            rows.append(z * scale)
        elif kind == "non-finite":
            z[rng.integers(z.size)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            rows.append(z * scale)
        elif variant == "sign":
            rows.append(np.where(rng.random(z.size) < 0.5, 0.0, z * scale))
        else:
            cols, center = projection_columns(model)
            if kind == "plane":
                u = cols[:, rng.integers(nbits)]
                z -= u * (u @ z) / (u @ u)
            rows.append(center + z * scale if kind == "plane" else center.copy())
    return model, np.array(rows).reshape(len(rows), n_c, d)


class TestEncodeStack:
    @settings(max_examples=300, deadline=None)
    @given(data=stacked_vlads())
    def test_equals_per_row_encode(self, data):
        model, vlads = data
        with np.errstate(all="ignore"):
            want = np.array([encode(model, v).packed for v in vlads], dtype=np.uint8)
            got = encode_stack(model, vlads)
        assert got.dtype == np.uint8
        assert got.shape == (len(vlads), (model.nbits + 7) // 8)
        assert np.array_equal(got, want.reshape(got.shape))

    @pytest.mark.parametrize("variant,rotate", VARIANT_CASES)
    def test_product_decides_all_but_the_plane_rows(self, rng, variant, rotate):
        nbits = 32
        model = train_hashing(random_vlads(rng, 120, 4, 8), variant, nbits, rotate=rotate)
        vlads = np.array(random_vlads(rng, 50, 4, 8))
        if variant != "sign":
            cols, center = projection_columns(model)
            for r in (7, 30):
                u = cols[:, r % nbits]
                y = vlads[r].reshape(-1) - center
                vlads[r] = (center + y - u * (u @ y) / (u @ u)).reshape(4, 8)
        with mock.patch.object(hashing, "_project", wraps=hashing._project) as spy:
            got = encode_stack(model, vlads)
        redone = [
            int(np.flatnonzero((vlads == call.args[1].reshape(4, 8)).all(axis=(1, 2)))[0])
            for call in spy.call_args_list
        ]
        assert redone == ([] if variant == "sign" else [7, 30])
        assert np.array_equal(got, np.array([encode(model, v).packed for v in vlads]))

    def test_shape_mismatch(self, rng):
        model = train_hashing(random_vlads(rng, 50, 2, 4), "joint", nbits=8)
        for shape in ((3, 2, 5), (3, 4, 2), (3, 8)):
            with pytest.raises(ValueError, match="expected"):
                encode_stack(model, np.zeros(shape))


def dense_blocks(model):
    """``HashingModel.blocks`` laid out as one block-diagonal ``(D*N, K)``
    matrix, with its offset."""
    a, c = model.blocks
    cols = np.zeros((model.total_dim, model.nbits))
    blocks, terms, per = a.shape
    for b in range(blocks):
        cols[b * terms : (b + 1) * terms, b * per : (b + 1) * per] = a[b]
    return cols, c


class TestBlocks:
    @pytest.mark.parametrize("variant,rotate", VARIANT_CASES)
    def test_blocks_equal_the_dense_oracle(self, rng, variant, rotate):
        model = train_hashing(random_vlads(rng, 60, 4, 8), variant, 32, seed=3, rotate=rotate)
        cols, center = projection_columns(model)
        got_cols, got_center = dense_blocks(model)
        assert np.array_equal(got_cols, cols) and np.array_equal(got_center, center)
        a, c = model.blocks
        assert model.blocks[0] is a and not a.flags.writeable and not c.flags.writeable
        # Shared views its one basis for every block, sign its one weight.
        assert (len(a) > 1 and a.strides[0] == 0) == (variant in ("shared", "sign"))


class TestReversal:
    @pytest.mark.parametrize("variant,rotate", VARIANT_CASES)
    def test_reversal_equals_the_dense_oracle(self, rng, variant, rotate):
        model = train_hashing(random_vlads(rng, 60, 4, 8), variant, 32, seed=3, rotate=rotate)
        cols, center = projection_columns(model)
        scales = np.asarray(model.reversal_scales, dtype=np.float64)
        for _ in range(20):
            code = BinaryCode.from_bits(rng.integers(0, 2, size=32))
            want = cols @ ((2.0 * code.bits() - 1.0) * scales) + center
            got = approximate_vlad(model, code)
            assert got.shape == (4, 8)
            np.testing.assert_allclose(got.reshape(-1), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("variant,rotate", VARIANT_CASES)
    def test_reencode_fixed_point(self, rng, variant, rotate):
        vlads = random_vlads(rng, 120, 4, 8)
        nbits = 32 if variant != "sign" else 32
        model = train_hashing(vlads, variant, nbits=nbits, rotate=rotate)
        for _ in range(50):
            code = BinaryCode.from_bits(rng.integers(0, 2, size=nbits))
            assert encode(model, approximate_vlad(model, code)) == code

    def test_full_rank_reversal_before_binarization(self, rng):
        # With every PCA direction kept, projecting down and back recovers the
        # centered input.
        vlads = random_vlads(rng, 300, 4, 8)
        model = train_hashing(vlads, "joint", nbits=32)
        w = np.asarray(model.projections, dtype=np.float64)
        mean = np.asarray(model.mean, dtype=np.float64)
        for v in vlads[:20]:
            xc = v.reshape(-1) - mean
            err = np.linalg.norm(w @ (w.T @ xc) - xc) / np.linalg.norm(xc)
            assert err <= 1e-5

    def test_code_length_mismatch(self, rng):
        vlads = random_vlads(rng, 50, 2, 4)
        model = train_hashing(vlads, "joint", nbits=8)
        with pytest.raises(ValueError):
            approximate_vlad(model, BinaryCode.from_bits(np.ones(16, dtype=np.uint8)))


def projection_bytes(variant, dim, num_centers, nbits):
    return 4 * int(np.prod(model_layout(variant, dim, num_centers, nbits)[1]))


class TestAccounting:
    def test_projection_bytes_formulas(self):
        # 12,800-d signature at 1,024 bits: 50 MiB joint.
        assert projection_bytes("joint", 128, 100, 1024) == 12800 * 1024 * 4 == 52428800
        # The split variants need a whole number of bits per sub-vector.
        for variant in ("independent", "shared"):
            with pytest.raises(ValueError, match="divisible"):
                model_layout(variant, 128, 100, 1024)
        assert projection_bytes("independent", 128, 100, 1000) == 128 * 1000 * 4 == 512000
        assert projection_bytes("shared", 128, 100, 1000) == 128 * 10 * 4 == 5120
        assert projection_bytes("shared", 128, 100, 12800) == 128 * 128 * 4
        assert projection_bytes("sign", 128, 100, 12800) == 0

    def test_memory_ordering(self):
        shared = projection_bytes("shared", 128, 100, 1000)
        independent = projection_bytes("independent", 128, 100, 1000)
        joint = projection_bytes("joint", 128, 100, 1000)
        assert shared < independent < joint

    def test_quantizer_bytes(self):
        # Two-level coarse tree with 10 branches: 10 + 100 nodes of 128 floats.
        config = ExperimentConfig(
            dim=128, tree=TreeParams(branch=10, levels=3, vlad_level=2), hash=HashParams("shared", 12800)
        )
        rows = {row["variant"]: row for row in memory_table(config)}
        assert rows["shared"]["quantizer_bytes"] == 128 * 110 * 4 == 56320
        assert rows["shared"]["mobile_memory_bytes"] == 65536 + 56320 == 121856


class TestSerialization:
    @pytest.mark.parametrize("variant,rotate", VARIANT_CASES)
    def test_model_round_trip(self, rng, variant, rotate, tmp_path):
        vlads = random_vlads(rng, 80, 2, 8)
        model = train_hashing(vlads, variant, nbits=16, seed=3, rotate=rotate)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        save_model(loaded, tmp_path / "again.bin")
        assert path.read_bytes() == (tmp_path / "again.bin").read_bytes()
        code_a = encode(model, vlads[0])
        code_b = encode(loaded, vlads[0])
        assert code_a == code_b
