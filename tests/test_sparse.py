from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dehash.dataset import training_blob
from dehash.sparse import (
    LASSO_TOL,
    Dictionary,
    lasso_kkt_residuals,
    lasso_objective,
    solve_nn_lasso,
    solve_tikhonov,
)
from dehash.vocab import train_vocabulary

from homotopy_reference import homotopy_nn_lasso_reference


def random_dictionary(rng, dim, width, vlad_id=0):
    cols = rng.normal(size=(dim, width))
    return Dictionary(columns=cols, column_ids=np.arange(width), vlad_id=vlad_id)


def solve_tikhonov_direct(dictionary, v, h0, alpha):
    """The prior-anchored blend solved through the (T x T) normal equations:
    the independent cross-check of ``solve_tikhonov``'s (dim x dim) rewrite,
    only sensible for narrow dictionaries."""
    a1 = alpha / float(v @ v)
    a2 = (1.0 - alpha) / float(h0 @ h0)
    cols = dictionary.columns
    system = a1 * (cols.T @ cols) + a2 * np.eye(dictionary.width)
    return np.linalg.solve(system, a1 * (cols.T @ v) + a2 * h0)


def projected_gradient(dictionary, v, lam, iters=4000):
    """Independent first-order oracle for the non-negative L1 problem."""
    cols = dictionary.columns
    lipschitz = 2.0 * np.linalg.norm(cols.T @ cols, 2) + 1e-12
    step = 1.0 / lipschitz
    h = np.zeros(dictionary.width)
    for _ in range(iters):
        grad = -2.0 * cols.T @ (v - cols @ h) + lam
        h = np.maximum(0.0, h - step * grad)
    return h


class TestNonNegativeLasso:
    def test_orthonormal_two_column_soft_threshold(self):
        # For an orthonormal dictionary the solution is the clipped soft
        # threshold of the correlations; checked against a dense grid search
        # and the projected-gradient oracle.
        cols = np.array([[1.0, 0.0], [0.0, 1.0]])
        d = Dictionary(cols, np.array([0, 1]), 0)
        v = np.array([1.0, 0.0])
        lam = 0.1
        result = solve_nn_lasso(d, v, lam, tol=1e-14)
        np.testing.assert_allclose(result.coeffs, [0.95, 0.0], atol=1e-10)

        grid = np.arange(0.0, 2.0 + 1e-9, 1e-3)
        h0g, h1g = np.meshgrid(grid, grid, indexing="ij")
        objective = (v[0] - h0g) ** 2 + (v[1] - h1g) ** 2 + lam * (h0g + h1g)
        best = np.unravel_index(np.argmin(objective), objective.shape)
        np.testing.assert_allclose([grid[best[0]], grid[best[1]]], [0.95, 0.0], atol=5e-4)

        pg = projected_gradient(d, v, lam)
        np.testing.assert_allclose(result.coeffs, pg, atol=1e-8)

    def test_lambda_zero_recovers_exact_solution(self):
        rng = np.random.default_rng(2)
        cols = rng.normal(size=(8, 5))  # linearly independent w.p. 1
        d = Dictionary(cols, np.arange(5), 0)
        h_true = rng.uniform(0.5, 2.0, size=5)
        result = solve_nn_lasso(d, cols @ h_true, lam=0.0, tol=1e-16, max_iter=20000)
        np.testing.assert_allclose(result.coeffs, h_true, atol=1e-6)

    def test_huge_lambda_kills_everything(self):
        rng = np.random.default_rng(3)
        d = random_dictionary(rng, 6, 10)
        v = rng.normal(size=6)
        lam = 2.0 * np.max(np.abs(d.columns.T @ v)) + 1.0
        result = solve_nn_lasso(d, v, lam)
        assert np.all(result.coeffs == 0.0)
        assert result.converged

    def test_objective_never_increases_across_sweeps(self):
        rng = np.random.default_rng(5)
        d = random_dictionary(rng, 6, 12)
        v = rng.normal(size=6) * 3
        lam = 0.3
        prev = lasso_objective(d, v, lam, np.zeros(12))
        for sweeps in range(1, 15):
            result = solve_nn_lasso(d, v, lam, tol=0.0, max_iter=sweeps)
            assert result.objective <= prev + 1e-12
            prev = result.objective

    def test_matches_projected_gradient_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            dim = int(rng.integers(2, 11))
            width = int(rng.integers(2, 21))
            d = random_dictionary(rng, dim, width)
            v = rng.normal(size=dim) * 2
            lam = float(rng.uniform(0.01, 1.0))
            result = solve_nn_lasso(d, v, lam, tol=1e-14, max_iter=5000)
            pg = projected_gradient(d, v, lam)
            assert result.objective <= lasso_objective(d, v, lam, pg) + 1e-6
            stat, viol = lasso_kkt_residuals(d, v, lam, result.coeffs)
            assert stat <= 1e-5
            assert viol <= 1e-5

    def test_nonnegativity_is_exact(self):
        rng = np.random.default_rng(11)
        d = random_dictionary(rng, 5, 15)
        result = solve_nn_lasso(d, rng.normal(size=5), 0.05)
        assert np.all(result.coeffs >= 0.0)

    def test_scaling_homogeneity(self):
        # Scaling v by c and lam by c scales the minimizer by c.
        rng = np.random.default_rng(13)
        d = random_dictionary(rng, 6, 9)
        v = rng.normal(size=6)
        lam, c = 0.2, 3.5
        base = solve_nn_lasso(d, v, lam, tol=1e-14, max_iter=5000)
        scaled = solve_nn_lasso(d, c * v, c * lam, tol=1e-14, max_iter=5000)
        np.testing.assert_allclose(scaled.coeffs, c * base.coeffs, atol=1e-6)

    def test_zero_columns_stay_zero(self):
        cols = np.array([[1.0, 0.0], [0.5, 0.0]])
        d = Dictionary(cols, np.array([3, 7]), 0)
        assert (~np.any(d.columns != 0.0, axis=0)).tolist() == [False, True]
        result = solve_nn_lasso(d, np.array([1.0, 0.5]), 0.01)
        assert result.coeffs[1] == 0.0

    def test_max_iter_flag(self):
        rng = np.random.default_rng(17)
        d = random_dictionary(rng, 6, 12)
        result = solve_nn_lasso(d, rng.normal(size=6) * 5, 0.01, tol=0.0, max_iter=3)
        assert not result.converged
        assert result.sweeps == 3

    def test_rejects_bad_inputs(self):
        d = Dictionary(np.eye(2), np.array([0, 1]), 0)
        with pytest.raises(ValueError):
            solve_nn_lasso(d, np.array([np.nan, 0.0]), 0.1)
        with pytest.raises(ValueError):
            solve_nn_lasso(d, np.zeros(3), 0.1)
        with pytest.raises(ValueError):
            solve_nn_lasso(d, np.zeros(2), -0.1)


class TestTikhonov:
    def test_identity_dictionary_symmetric_average(self):
        # Forced unit normalizers turn alpha=0.5 into an exact average; with
        # +/-1 inputs every intermediate is a dyadic rational, so the result
        # is bit-exact.
        rng = np.random.default_rng(19)
        dim = 8
        d = Dictionary(np.eye(dim), np.arange(dim), 0)
        v = rng.choice([-1.0, 1.0], size=dim)
        h0 = rng.choice([-1.0, 1.0], size=dim)
        h = solve_tikhonov(d, v, h0, alpha=0.5, n1=1.0, n2=1.0)
        assert np.array_equal(h, (v + h0) / 2.0)

    def test_identity_dictionary_equal_norm_inputs(self):
        rng = np.random.default_rng(23)
        dim = 6
        d = Dictionary(np.eye(dim), np.arange(dim), 0)
        v = rng.normal(size=dim)
        h0 = rng.normal(size=dim)
        h0 *= np.linalg.norm(v) / np.linalg.norm(h0)  # equal normalizers
        h = solve_tikhonov(d, v, h0, alpha=0.5)
        np.testing.assert_allclose(h, (v + h0) / 2.0, rtol=1e-14, atol=1e-15)

    def test_rewrite_equals_direct_form(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            dim = int(rng.integers(2, 12))
            width = int(rng.integers(2, 51))
            d = random_dictionary(rng, dim, width)
            v = rng.normal(size=dim)
            h0 = rng.normal(size=width)
            alpha = float(rng.uniform(0.05, 0.95))
            got = solve_tikhonov(d, v, h0, alpha)
            want = solve_tikhonov_direct(d, v, h0, alpha)
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_alpha_near_one_recovers_data_fit(self):
        rng = np.random.default_rng(31)
        d = random_dictionary(rng, 8, 20)
        v = rng.normal(size=8)
        h0 = rng.normal(size=20) * 0.1 + 1.0
        h = solve_tikhonov(d, v, h0, alpha=1.0 - 1e-9)
        assert np.linalg.norm(v - d.columns @ h) <= np.linalg.norm(v - d.columns @ h0) + 1e-9

    def test_rejects_degenerate_inputs(self):
        d = Dictionary(np.eye(3), np.arange(3), 0)
        with pytest.raises(ValueError):
            solve_tikhonov(d, np.zeros(3), np.ones(3), 0.5)
        with pytest.raises(ValueError):
            solve_tikhonov(d, np.ones(3), np.zeros(3), 0.5)
        with pytest.raises(ValueError):
            solve_tikhonov(d, np.ones(3), np.ones(3), 1.0)
        with pytest.raises(ValueError):
            solve_tikhonov(d, np.ones(3), np.ones(3), 0.0)


class TestDictionaryType:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Dictionary(np.eye(2), np.array([1, 1]), 0)

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValueError):
            Dictionary(np.eye(2), np.array([1]), 0)


@cache
def coherent_tree():
    """A trained tree with 64 leaves per center in 16 dimensions: its
    leaf-minus-center columns are the coherent dictionaries the solver meets
    in reconstruction."""
    return train_vocabulary(training_blob(16, 4000, 8, 0), branch=8, levels=3, vlad_level=1, seed=0)


@st.composite
def lasso_instances(draw):
    """(dictionary, v, lam, max_iter, gram) drawn from four families: Gaussian
    columns, a trained tree's full center dictionary (passed with its cached
    Gram), a column subset of one, and Gaussian columns with some zeroed."""
    kind = draw(st.sampled_from(("gaussian", "tree", "tree-subset", "zero-columns")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gram = None
    if kind.startswith("tree"):
        tree = coherent_tree()
        full, full_gram = tree.reconstruction_context.full(int(rng.integers(tree.num_vlad_centers)))
        if kind == "tree":
            d, gram = full, full_gram
        else:
            width = draw(st.integers(1, full.width))
            keep = np.sort(rng.choice(full.width, size=width, replace=False))
            d = Dictionary(full.columns[:, keep], full.column_ids[keep], full.vlad_id)
        # A residual sum, as a VLAD sub-vector is: counts on a few words plus noise.
        counts = np.zeros(d.width)
        support = rng.choice(d.width, size=min(d.width, int(rng.integers(1, 8))), replace=False)
        counts[support] = rng.integers(1, 6, size=support.size)
        v = d.columns @ counts + rng.normal(scale=0.05, size=d.dim)
    else:
        dim = draw(st.integers(2, 16))
        width = draw(st.integers(1, 64))
        cols = rng.normal(size=(dim, width))
        if kind == "zero-columns":
            cols[:, rng.random(width) < 0.3] = 0.0
        d = Dictionary(cols, np.arange(width), 0)
        v = rng.normal(size=dim) * 2.0
    lam = draw(st.sampled_from((0.0, 1e-4, 0.02, 0.3)))
    max_iter = draw(st.sampled_from((1, 2, 5, 500)))
    return d, v, lam, max_iter, gram


class TestHomotopyParity:
    """The vectorized event search walks the same path as the scalar loop
    it replaced, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(instance=lasso_instances())
    def test_matches_scalar_reference(self, instance):
        d, v, lam, max_iter, gram = instance
        want = homotopy_nn_lasso_reference(d, v, lam, LASSO_TOL, max_iter)
        got = solve_nn_lasso(d, v, lam, max_iter=max_iter, gram=gram)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert got.sweeps == want.sweeps
        assert got.converged == want.converged
        assert got.objective == want.objective

    def test_event_cap_returns_the_iterate_at_the_last_event(self):
        d = coherent_tree().reconstruction_context.full(3)[0]
        rng = np.random.default_rng(41)
        v = d.columns @ rng.integers(0, 3, size=d.width).astype(float)
        for cap in range(1, 12):
            want = homotopy_nn_lasso_reference(d, v, 1e-4, LASSO_TOL, cap)
            got = solve_nn_lasso(d, v, 1e-4, max_iter=cap)
            assert got.sweeps == want.sweeps == cap
            assert not got.converged
            assert np.array_equal(got.coeffs, want.coeffs)

    def test_gram_shape_checked(self):
        d = random_dictionary(np.random.default_rng(43), 4, 6)
        with pytest.raises(ValueError, match="gram"):
            solve_nn_lasso(d, np.ones(4), 0.1, gram=np.eye(5))


@st.composite
def nonnegative_targets(draw):
    """v = D h with h >= 0 on a random support, over Gaussian or tree columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        tree = coherent_tree()
        d = tree.reconstruction_context.full(int(rng.integers(tree.num_vlad_centers)))[0]
    else:
        width = draw(st.integers(1, 64))
        d = random_dictionary(rng, draw(st.integers(2, 16)), width)
    h = np.zeros(d.width)
    support = rng.choice(d.width, size=min(d.width, int(rng.integers(1, 10))), replace=False)
    h[support] = rng.uniform(0.0, 5.0, size=support.size)
    lam = draw(st.floats(0.0, 1.0))
    return d, d.columns @ h, lam


class TestKKTProperty:
    @settings(max_examples=200, deadline=None)
    @given(instance=nonnegative_targets())
    def test_converged_solutions_satisfy_kkt(self, instance):
        d, v, lam = instance
        result = solve_nn_lasso(d, v, lam)
        if result.converged:
            scale = max(1.0, float(np.max(np.abs(d.columns.T @ v))))
            bound = max(LASSO_TOL, 1e-7 * scale)
            stationarity, violation = lasso_kkt_residuals(d, v, lam, result.coeffs)
            assert stationarity <= bound
            assert violation <= bound
