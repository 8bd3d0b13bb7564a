"""Tests for the contrastive loss: frozen values, form equivalence, and
finite-difference gradient checks."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tempcl.analysis import aggregate_contribution_curves
from tempcl.encoder import NegativeSource, queue_push
from tempcl.evaluation import knn_classify
from tempcl.loss import (
    _PRODUCT_BLOCK_BYTES,
    _check_unit_rows,
    _row_blocks,
    info_nce,
    info_nce_symmetrized,
    similarity_matrix,
)


def unit_rows(rng, n, d):
    """n Gaussian rows of width d, each scaled to unit norm (also imported by
    the analysis, encoder and evaluation tests)."""
    X = rng.standard_normal((n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def random_similarities(rng, n, m=None):
    m = n if m is None else m
    return rng.uniform(-0.95, 0.95, size=(n, m))


def info_nce_distance_form(S, tau):
    """The per-anchor loss recomputed through distances d_ij = (1 - s_ij)/tau_i,
    log(1 + exp(d_ii) * sum_{j != i} exp(-d_ij)), in log space as
    softplus(d_ii + logsumexp_{j != i}(-d_ij)): a code path apart from
    ``info_nce``'s softmax, and its oracle."""
    S = np.asarray(S, dtype=np.float64)
    n, m = S.shape
    d = (1.0 - S) / np.broadcast_to(np.asarray(tau, dtype=np.float64), (n,))[:, None]
    off = ~np.eye(n, m, dtype=bool)
    neg = np.where(off, -d, -np.inf)
    nmax = neg.max(axis=1)
    lse = nmax + np.log(np.sum(np.exp(neg - nmax[:, None]), axis=1, where=off))
    return np.logaddexp(0.0, np.diag(d) + lse)


def distance_factors(S, tau):
    """(positive_factor, negative_sum) per anchor, with d_ij = (1 - s_ij) / tau_i:
    exp(d_ii) and sum_{j != i} exp(-d_ij)."""
    n = S.shape[0]
    d = (1.0 - S) / np.broadcast_to(np.asarray(tau, dtype=float), (n,))[:, None]
    off = ~np.eye(n, S.shape[1], dtype=bool)
    return np.exp(np.diag(d)), np.sum(np.exp(-d), axis=1, where=off)


class TestSimilarityMatrix:
    def test_orthonormal_basis(self):
        """Identity embeddings give the identity similarity matrix."""
        I = np.eye(2)
        np.testing.assert_array_equal(similarity_matrix(I, I), I)

    def test_antipodal_rows(self):
        """U_i = -V_i puts -1 on the diagonal."""
        rng = np.random.default_rng(7)
        V = rng.standard_normal((2, 3))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        S = similarity_matrix(-V, V)
        np.testing.assert_allclose(np.diag(S), -1.0, atol=1e-12)

    def test_matches_elementwise_dot_oracle(self):
        """Entries equal independently computed dot products."""
        rng = np.random.default_rng(11)
        U = rng.standard_normal((3, 4))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        V = rng.standard_normal((3, 4))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        S = similarity_matrix(U, V)
        for i in range(3):
            for j in range(3):
                expect = sum(U[i, d] * V[j, d] for d in range(4))
                assert abs(S[i, j] - expect) < 1e-12

    def test_entries_clamped(self):
        U = np.eye(3)
        S = similarity_matrix(U, U)
        assert S.min() >= -1.0 and S.max() <= 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            similarity_matrix(np.eye(2), np.eye(3))

    def test_shared_negative_rows_match_clamped_product(self):
        """A V with more rows than U (keys, then a queue) gives the clamped
        U @ V.T."""
        rng = np.random.default_rng(12)
        U = rng.standard_normal((3, 4))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        V = rng.standard_normal((7, 4))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        np.testing.assert_array_equal(similarity_matrix(U, V), np.clip(U @ V.T, -1.0, 1.0))

    @pytest.mark.parametrize("shape", [(2, 4), (3, 3)], ids=["fewer-rows", "other-width"])
    def test_v_needs_a_key_per_row_and_the_same_width(self, shape):
        V = np.eye(*shape)
        with pytest.raises(ValueError, match="shape mismatch"):
            similarity_matrix(np.eye(3, 4), V)

    def test_checked_v_skips_only_the_v_check(self):
        U = np.eye(3)
        V = np.vstack([np.eye(3), np.eye(3)[:2]])  # keys, then a two-row queue
        V[4] *= 1.5
        np.testing.assert_array_equal(similarity_matrix(U, V, v_checked=True),
                                      np.clip(U @ V.T, -1.0, 1.0))
        with pytest.raises(ValueError, match="row 4 of V"):
            similarity_matrix(U, V)
        with pytest.raises(ValueError, match="row 0 of U"):
            similarity_matrix(2.0 * U, V, v_checked=True)

    def test_non_normalized_row_named(self):
        U = np.eye(3)
        V = np.eye(3).copy()
        V[1] *= 1.5
        with pytest.raises(ValueError, match="row 1"):
            similarity_matrix(U, V)


@pytest.mark.parametrize("check", [
    lambda X: similarity_matrix(np.eye(3), X),
    lambda X: knn_classify(np.eye(3), [0, 1, 2], X, [1]),
    lambda X: queue_push(NegativeSource(kind="momentum_queue", queue=np.empty((0, 3))), X),
    lambda X: aggregate_contribution_curves(X, 0.5),
], ids=["similarity_matrix", "knn_classify", "queue_push", "aggregate_contribution_curves"])
def test_nan_row_is_not_unit_norm(check):
    """|nan - 1| > tol is False, so the unit-norm check must not pass it."""
    X = np.eye(3)
    X[1, 2] = np.nan
    with pytest.raises(ValueError, match="row 1 of .* is not unit-norm"):
        check(X)


def test_unit_norm_check_makes_no_copy_of_the_rows():
    """Checking CIFAR-10-LT's 12,406 train rows of width 128 (12.1 MiB) traces
    under 1 MiB: the row norms come without a squared copy of X."""
    X = unit_rows(np.random.default_rng(0), 12_406, 128)
    tracemalloc.start()
    try:
        _check_unit_rows(X, "X")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


class TestRowBlocks:
    """The row blocks of an n x m product: an ordered cover of [0, n) in
    blocks of about ``_PRODUCT_BLOCK_BYTES``, none of 1 row among several."""

    ROW_BYTES = [8, 8 * 722, 8 * 4000, _PRODUCT_BLOCK_BYTES // 3, _PRODUCT_BLOCK_BYTES,
                 4 * _PRODUCT_BLOCK_BYTES]

    @pytest.mark.parametrize("row_bytes", ROW_BYTES)
    def test_ordered_cover_without_a_1_row_block(self, row_bytes):
        step = max(2, _PRODUCT_BLOCK_BYTES // row_bytes)
        for n in sorted({0, 1, 2, 3, 5, step - 1, step, step + 1, step + 2,
                         2 * step + 1, 3 * step, 3 * step + 1}):
            blocks = _row_blocks(n, row_bytes)
            assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]]
            assert blocks[-1][1] == n
            assert all(b - a >= 2 for a, b in blocks) or blocks == [(0, n)]
            # each block is about the budget: a folded remainder adds one row
            assert all(b - a <= step + 1 for a, b in blocks)

    @pytest.mark.parametrize("row_bytes", ROW_BYTES)
    def test_a_product_that_fits_is_one_block(self, row_bytes):
        n = max(2, _PRODUCT_BLOCK_BYTES // row_bytes)
        assert _row_blocks(n, row_bytes) == [(0, n)]
        assert len(_row_blocks(n + 2, row_bytes)) == 2

    def test_a_1_row_remainder_joins_the_block_before(self):
        row_bytes = _PRODUCT_BLOCK_BYTES // 128
        assert _row_blocks(2 * 128 + 1, row_bytes) == [(0, 128), (128, 257)]
        assert _row_blocks(2 * 128 + 2, row_bytes) == [(0, 128), (128, 256), (256, 258)]

    def test_an_empty_product_is_one_empty_block(self):
        assert _row_blocks(0, 8 * 5) == [(0, 0)]


class TestInfoNce:
    def test_two_way_uniform(self):
        """All-zero similarities with two terms give log 2 per anchor."""
        S = np.zeros((2, 2))
        per_anchor, _ = info_nce(S, 1.0)
        np.testing.assert_allclose(per_anchor, math.log(2.0), rtol=1e-12)
        np.testing.assert_allclose(per_anchor.mean(), math.log(2.0), rtol=1e-12)

    def test_shift_invariance_constant_matrix(self):
        """Any constant similarity matrix of size N gives log N."""
        for value in (-0.8, 0.0, 0.37, 1.0):
            for tau in (0.07, 0.5, 2.0):
                per_anchor, _ = info_nce(np.full((4, 4), value), tau)
                np.testing.assert_allclose(per_anchor, math.log(4.0), rtol=1e-12)

    def test_frozen_hard_positive_value(self):
        """s_ii = 1, s_ij = -1, tau = 0.5 gives log(1 + e^-4)."""
        S = np.array([[1.0, -1.0], [-1.0, 1.0]])
        per_anchor, _ = info_nce(S, 0.5)
        np.testing.assert_allclose(per_anchor, 0.01814992791780978, rtol=1e-12)

    def test_breakdown_identity(self):
        """per_anchor equals log(1 + positive_factor * negative_sum)."""
        rng = np.random.default_rng(3)
        for n in (2, 5, 16):
            S = random_similarities(rng, n)
            taus = rng.uniform(0.05, 2.0, size=n)
            per_anchor, _ = info_nce(S, taus)
            positive, negative = distance_factors(S, taus)
            recon = np.log1p(positive * negative)
            np.testing.assert_allclose(per_anchor, recon, rtol=1e-12)

    def test_rejects_bad_tau(self):
        S = np.zeros((2, 2))
        with pytest.raises(ValueError, match="> 0"):
            info_nce(S, 0.0)
        with pytest.raises(ValueError, match="> 0"):
            info_nce(S, [0.5, -0.1])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        S = np.zeros((2, 2))
        S[0, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            info_nce(S, 1.0)

    @pytest.mark.parametrize("value", [1.5, -1.5])
    def test_rejects_similarities_out_of_range(self, value):
        S = np.zeros((2, 3))
        S[1, 2] = value
        with pytest.raises(ValueError, match="out of"):
            info_nce(S, 1.0)

    def test_accepts_rounding_past_the_unit_bound(self):
        S = np.array([[1.0 + 1e-12, 0.0], [0.0, -1.0 - 1e-12]])
        assert np.all(np.isfinite(info_nce(S, 1.0)[0]))

    def test_underflowing_negatives_give_zero_without_warning(self):
        """Negatives 2/tau below the positive underflow to zero weight; the
        loss, below the smallest double, is exactly 0 and nothing warns."""
        S = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            per_anchor, grad = info_nce(S, 0.001)
        np.testing.assert_array_equal(per_anchor, 0.0)
        assert np.all(np.isfinite(grad))

    def test_rejects_single_column(self):
        with pytest.raises(ValueError, match="negative"):
            info_nce(np.ones((1, 1)), 1.0)


def two_softmax_oracle(S, tau):
    """(per_anchor, grad) from two softmaxes over S: a log-sum-exp over each
    row's negatives, shifted by their own maximum, for the loss, and the
    full-row softmax for the gradient."""
    n, m = S.shape
    taus = np.broadcast_to(np.asarray(tau, dtype=np.float64), (n,))
    idx = np.arange(n)
    diag = S[idx, idx]
    z = (S - diag[:, None]) / taus[:, None]
    off = ~np.eye(n, m, dtype=bool)
    z_neg = np.where(off, z, -np.inf)
    zmax = z_neg.max(axis=1)
    lse = zmax + np.log(np.sum(np.exp(z_neg - zmax[:, None]), axis=1, where=off))
    per_anchor = np.logaddexp(0.0, lse)
    z = S / taus[:, None]
    z -= z.max(axis=1, keepdims=True)
    w = np.exp(z)
    w /= w.sum(axis=1, keepdims=True)
    grad = w / taus[:, None]
    grad[idx, idx] = (w[idx, idx] - 1.0) / taus
    grad /= n
    return per_anchor, grad


class TestTwoSoftmaxOracle:
    def test_queue_shaped_with_per_anchor_tau(self):
        """128 anchors against their keys and a 1024-row queue, with a
        temperature per anchor: the gradient is bitwise the oracle's and the
        loss agrees to 1e-13 relative."""
        rng = np.random.default_rng(70)
        U = unit_rows(rng, 128, 32)
        keys = U + 0.3 * unit_rows(rng, 128, 32)
        keys /= np.linalg.norm(keys, axis=1, keepdims=True)
        S = similarity_matrix(U, np.vstack([keys, unit_rows(rng, 1024, 32)]))
        taus = rng.choice([0.07, 0.2, 0.5], size=128)
        per_anchor, grad = two_softmax_oracle(S, taus)
        got, got_grad = info_nce(S, taus)
        assert np.array_equal(got_grad, grad)
        np.testing.assert_allclose(got, per_anchor, rtol=1e-13)
        np.testing.assert_allclose(got.mean(), per_anchor.mean(), rtol=1e-13)

    def test_square_at_a_small_tau_with_vanishing_losses(self):
        """At tau = 0.005 with positives well above every negative the
        losses fall to ~1e-70 and still agree to 1e-13 relative."""
        rng = np.random.default_rng(71)
        S = rng.uniform(-1.0, 0.2, size=(64, 64))
        np.fill_diagonal(S, rng.uniform(0.9, 1.0, size=64))
        per_anchor, grad = two_softmax_oracle(S, 0.005)
        got, got_grad = info_nce(S, 0.005)
        assert per_anchor.min() < 1e-60
        assert np.array_equal(got_grad, grad)
        np.testing.assert_allclose(got, per_anchor, rtol=1e-13)


class TestDistanceForm:
    def test_matches_similarity_form_on_fixtures(self):
        """The two forms agree on the softmax-form test inputs."""
        fixtures = [
            (np.zeros((2, 2)), 1.0),
            (np.full((4, 4), 0.37), 0.5),
            (np.array([[1.0, -1.0], [-1.0, 1.0]]), 0.5),
        ]
        for S, tau in fixtures:
            a = info_nce(S, tau)[0]
            b = info_nce_distance_form(S, tau)
            np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_all_ones_gives_log_n(self):
        """s = 1 everywhere: zero distances, unit factors, loss log N."""
        S = np.ones((5, 5))
        loss = info_nce_distance_form(S, 0.2)
        np.testing.assert_allclose(loss, math.log(5.0), rtol=1e-12)
        positive, negative = distance_factors(S, 0.2)
        np.testing.assert_allclose(positive, 1.0, rtol=1e-12)
        np.testing.assert_allclose(loss, np.log1p(positive * negative), rtol=1e-12)

    def test_hand_evaluated_uniform_half(self):
        """N=2 with every s = 0.5 at tau = 0.5: d = 1 everywhere, loss log 2."""
        S = np.full((2, 2), 0.5)
        loss = info_nce_distance_form(S, 0.5)
        np.testing.assert_allclose(loss, math.log(2.0), rtol=1e-12)
        positive, negative = distance_factors(S, 0.5)
        np.testing.assert_allclose(negative, math.exp(-1.0), rtol=1e-12)
        np.testing.assert_allclose(positive, math.e, rtol=1e-12)
        np.testing.assert_allclose(loss, np.log1p(positive * negative), rtol=1e-12)


class TestFormEquivalence:
    def test_random_instances(self):
        """Both forms agree to 1e-9 relative, per anchor, on random input."""
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.choice([2, 8, 64]))
            S = rng.uniform(-1.0, 1.0, size=(n, n))
            taus = rng.uniform(0.05, 2.0, size=n)
            a = info_nce(S, taus)[0]
            b = info_nce_distance_form(S, taus)
            np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_rectangular_instances(self):
        """Agreement also holds with extra negative columns."""
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.choice([2, 8]))
            S = rng.uniform(-1.0, 1.0, size=(n, n + int(rng.integers(1, 30))))
            tau = float(rng.uniform(0.05, 2.0))
            a = info_nce(S, tau)[0]
            b = info_nce_distance_form(S, tau)
            np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_tiny_loss_still_agrees(self):
        """Near-zero losses keep full relative agreement."""
        S = np.array([[0.999, -0.999], [-0.999, 0.999]])
        a = info_nce(S, 0.05)[0]
        b = info_nce_distance_form(S, 0.05)
        assert a.min() > 0
        np.testing.assert_allclose(a, b, rtol=1e-9)


class TestLossProperties:
    def test_non_negative_and_lower_bound(self):
        """Loss >= log(1 + (N-1) exp(-2/tau)) >= 0 for similarities in range."""
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            S = rng.uniform(-1.0, 1.0, size=(n, n))
            taus = rng.uniform(0.05, 2.0, size=n)
            per = info_nce(S, taus)[0]
            bound = np.log1p((n - 1) * np.exp(-2.0 / taus))
            assert np.all(per >= 0.0)
            assert np.all(per >= bound - 1e-12)

    def test_row_shift_invariance(self):
        """Adding a constant to one row leaves that anchor's loss unchanged."""
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            S = rng.uniform(-0.5, 0.5, size=(n, n))
            taus = rng.uniform(0.05, 2.0, size=n)
            i = int(rng.integers(n))
            shifted = S.copy()
            shifted[i] += float(rng.uniform(-0.4, 0.4))
            a = info_nce(S, taus)[0][i]
            b = info_nce(shifted, taus)[0][i]
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_per_anchor_tau_matches_scalar(self):
        """A constant temperature vector reproduces the scalar result exactly."""
        rng = np.random.default_rng(33)
        S = random_similarities(rng, 6)
        a, _ = info_nce(S, 0.3)
        b, _ = info_nce(S, np.full(6, 0.3))
        np.testing.assert_array_equal(a, b)


class TestInfoNceGrad:
    def test_uniform_matrix_frozen_values(self):
        """All-equal similarities: off-diagonal 0.125, diagonal -0.375."""
        _, G = info_nce(np.full((4, 4), 0.2), 0.5)
        off = G[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 0.125, rtol=1e-12)
        np.testing.assert_allclose(np.diag(G), -0.375, rtol=1e-12)

    def test_row_sums_zero(self):
        """Softmax weights sum to one, so every gradient row sums to zero."""
        rng = np.random.default_rng(40)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            S = random_similarities(rng, n)
            _, G = info_nce(S, rng.uniform(0.05, 2.0, size=n))
            np.testing.assert_allclose(G.sum(axis=1), 0.0, atol=1e-14)

    def test_signs(self):
        """Off-diagonal strictly positive, diagonal strictly negative."""
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            S = random_similarities(rng, n)
            _, G = info_nce(S, float(rng.uniform(0.05, 2.0)))
            off = ~np.eye(n, dtype=bool)
            assert np.all(G[off] > 0.0)
            assert np.all(np.diag(G) < 0.0)

    def test_hardness_awareness(self):
        """Within a row, the gradient grows with the negative's similarity."""
        rng = np.random.default_rng(42)
        S = random_similarities(rng, 8)
        _, G = info_nce(S, 0.2)
        for i in range(8):
            cols = [j for j in range(8) if j != i]
            order = np.argsort(S[i, cols])
            g_sorted = G[i, cols][order]
            assert np.all(np.diff(g_sorted) > 0.0)

    def test_finite_difference_oracle(self):
        """Analytic gradient matches central differences of the mean loss."""
        rng = np.random.default_rng(43)
        h = 1e-5
        cases = [(n, tau) for n in (2, 8, 32) for tau in (0.07, 0.2, 1.0)]
        cases += [(int(rng.choice([2, 8, 32])), float(rng.uniform(0.07, 1.0)))
                  for _ in range(11)]
        for n, tau in cases:
            S = rng.uniform(-0.9, 0.9, size=(n, n))
            _, G = info_nce(S, tau)
            fd = np.zeros_like(G)
            for i in range(n):
                for j in range(n):
                    Sp, Sm = S.copy(), S.copy()
                    Sp[i, j] += h
                    Sm[i, j] -= h
                    up, down = info_nce(Sp, tau)[0].mean(), info_nce(Sm, tau)[0].mean()
                    fd[i, j] = (up - down) / (2 * h)
            err = np.abs(G - fd).max() / np.abs(G).max()
            assert err < 1e-5, f"n={n}, tau={tau}: rel err {err:.2e}"

    def test_symmetrize_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            info_nce_symmetrized(np.zeros((2, 4)), 1.0)


class TestSymmetrized:
    def test_mean_is_average_of_directions(self):
        rng = np.random.default_rng(50)
        S = random_similarities(rng, 5)
        sym, _ = info_nce_symmetrized(S, 0.4)
        fwd, _ = info_nce(S, 0.4)
        rev, _ = info_nce(S.T, 0.4)
        np.testing.assert_allclose(sym.mean(), 0.5 * (fwd.mean() + rev.mean()), rtol=1e-12)

    def test_symmetric_matrix_is_fixed_point(self):
        rng = np.random.default_rng(51)
        A = random_similarities(rng, 4)
        S = 0.5 * (A + A.T)
        np.testing.assert_allclose(
            info_nce_symmetrized(S, 0.3)[0],
            info_nce(S, 0.3)[0],
            rtol=1e-12,
        )

    def test_symmetrized_gradient_finite_difference(self):
        """Symmetrized gradient matches central differences too."""
        rng = np.random.default_rng(52)
        S = rng.uniform(-0.9, 0.9, size=(5, 5))
        tau = 0.3
        _, G = info_nce_symmetrized(S, tau)
        h = 1e-5
        fd = np.zeros_like(G)
        for i in range(5):
            for j in range(5):
                Sp, Sm = S.copy(), S.copy()
                Sp[i, j] += h
                Sm[i, j] -= h
                up, down = info_nce_symmetrized(Sp, tau)[0], info_nce_symmetrized(Sm, tau)[0]
                fd[i, j] = (up.mean() - down.mean()) / (2 * h)
        assert np.abs(G - fd).max() / np.abs(G).max() < 1e-5
