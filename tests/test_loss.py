"""Tests for the contrastive loss: frozen values, form equivalence, the
n x m gradient form as an oracle of the embedding gradients, and
finite-difference gradient checks.

Most loss tests are stated on a similarity matrix S.  :func:`through_rows`
feeds S to :func:`info_nce` as unit rows whose product is S (scaled by
1 / a, with tau scaled alike), and reads the gradient with respect to S off
dU: V's rows are basis vectors, so dU = G @ V holds G in its first m
columns."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tempcl.analysis import aggregate_contribution_curves
import tempcl.loss
from tempcl.encoder import NegativeSource, queue_push
from tempcl.evaluation import knn_classify
from tempcl.loss import (
    _PRODUCT_BLOCK_BYTES,
    _as_tau_vector,
    _check_unit_rows,
    _info_nce,
    _logits,
    _row_blocks,
    info_nce,
    info_nce_symmetrized,
)


def unit_rows(rng, n, d):
    """n Gaussian rows of width d, each scaled to unit norm (also imported by
    the analysis, encoder and evaluation tests)."""
    X = rng.standard_normal((n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def similarity_matrix(U, V):
    """The cosine similarities U @ V.T of unit rows, clipped to [-1, 1]: the
    oracles' S, one float64 rounding apart from the loss's logits (also
    imported by the analysis tests)."""
    return np.clip(np.asarray(U, dtype=np.float64) @ np.asarray(V, dtype=np.float64).T,
                   -1.0, 1.0)


def exact_similarities(U, V):
    """U @ V.T in long double, the float64 rows' products to about 1e-19: a
    reference S apart from any float64 rounding of it."""
    return np.asarray(U, dtype=np.longdouble) @ np.asarray(V, dtype=np.longdouble).T


def unit_logits(U, V, **kw):
    """:func:`_logits` at unit temperature: the similarity matrix."""
    return _logits(U, V, np.ones(len(U)), **kw)


def random_similarities(rng, n, m=None):
    m = n if m is None else m
    return rng.uniform(-0.95, 0.95, size=(n, m))


def rows_for(S):
    """Unit anchors U and keys V with U @ V.T == S exactly, for an S whose
    rows have norm <= 1: U is S with each row padded by one coordinate to
    unit norm, V the first m basis vectors of that width."""
    m = S.shape[1]
    pad = np.sqrt(np.maximum(0.0, 1.0 - np.einsum("ij,ij->i", S, S)))
    return np.hstack([S, pad[:, None]]), np.eye(m, m + 1)


def through_rows(loss, S, tau):
    """``loss`` (:func:`info_nce` or :func:`info_nce_symmetrized`) of the
    similarity matrix S: with a = max(1, the largest row norm of S), the
    rows of :func:`rows_for` (S / a) at temperatures tau / a, whose logits
    are S / tau.  Returns (per_anchor, G), G = dU[:, :m] / a the gradient of
    the mean loss with respect to S."""
    S = np.asarray(S, dtype=np.float64)
    a = max(1.0, float(np.linalg.norm(S, axis=1).max()))
    U, V = rows_for(S / a)
    per_anchor, dU, _ = loss(U, V, np.asarray(tau, dtype=np.float64) / a)
    return per_anchor, dU[:, : S.shape[1]] / a


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
    """The logits at unit temperature are the similarity matrix; a
    temperature per anchor divides its row."""

    def test_orthonormal_basis(self):
        """Identity embeddings give the identity similarity matrix."""
        I = np.eye(2)
        np.testing.assert_array_equal(unit_logits(I, I), I)

    def test_antipodal_rows(self):
        """U_i = -V_i puts -1 on the diagonal."""
        rng = np.random.default_rng(7)
        V = rng.standard_normal((2, 3))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        S = unit_logits(-V, V)
        np.testing.assert_allclose(np.diag(S), -1.0, atol=1e-12)

    def test_matches_elementwise_dot_oracle(self):
        """Entries equal independently computed dot products over each
        anchor's temperature."""
        rng = np.random.default_rng(11)
        U = rng.standard_normal((3, 4))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        V = rng.standard_normal((3, 4))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        taus = np.array([1.0, 0.07, 0.002])
        Z = _logits(U, V, taus)
        for i in range(3):
            for j in range(3):
                expect = sum(U[i, d] * V[j, d] for d in range(4)) / taus[i]
                assert abs(Z[i, j] - expect) < 1e-12 / taus[i]

    def test_entries_clamped(self):
        """No clip: the unit-norm check bounds the entries.  Rows of norm
        1 + 9e-7, inside its tolerance, give logits past 1 / tau and within
        (1 + 1e-6)^2 / tau, the bound the unshifted exponentials rely on."""
        U = np.eye(3) * (1.0 + 9e-7)
        taus = np.array([0.002, 0.5, 1.0])
        Z = _logits(U, U, taus)
        assert np.all(np.diag(Z) > 1.0 / taus)
        assert np.all(np.abs(Z) <= (1.0 + 1e-6) ** 2 / taus[:, None])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            unit_logits(np.eye(2), np.eye(3))

    def test_shared_negative_rows_match_clamped_product(self):
        """A V with more rows than U (keys, then a queue) gives the clamped
        U @ V.T."""
        rng = np.random.default_rng(12)
        U = rng.standard_normal((3, 4))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        V = rng.standard_normal((7, 4))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        np.testing.assert_array_equal(unit_logits(U, V), similarity_matrix(U, V))

    @pytest.mark.parametrize("shape", [(2, 4), (3, 3)], ids=["fewer-rows", "other-width"])
    def test_v_needs_a_key_per_row_and_the_same_width(self, shape):
        V = np.eye(*shape)
        with pytest.raises(ValueError, match="shape mismatch"):
            unit_logits(np.eye(3, 4), V)

    def test_checked_v_skips_only_the_v_check(self):
        """Keys trusted by ``v_checked`` are taken as they are, unclipped."""
        U = np.eye(3)
        V = np.vstack([np.eye(3), np.eye(3)[:2]])  # keys, then a two-row queue
        V[4] *= 1.5
        np.testing.assert_array_equal(unit_logits(U, V, v_checked=True), U @ V.T)
        with pytest.raises(ValueError, match="row 4 of V"):
            unit_logits(U, V)
        with pytest.raises(ValueError, match="row 0 of U"):
            unit_logits(2.0 * U, V, v_checked=True)

    def test_non_normalized_row_named(self):
        U = np.eye(3)
        V = np.eye(3).copy()
        V[1] *= 1.5
        with pytest.raises(ValueError, match="row 1"):
            unit_logits(U, V)


@pytest.mark.parametrize("check", [
    lambda X: unit_logits(np.eye(3), X),
    lambda X: knn_classify(np.eye(3), [0, 1, 2], X, [1]),
    lambda X: queue_push(NegativeSource(kind="momentum_queue", queue=np.empty((0, 3))), X),
    lambda X: aggregate_contribution_curves(X, 0.5),
    lambda X: info_nce(np.eye(3), X, 1.0),
], ids=["similarity_matrix", "knn_classify", "queue_push", "aggregate_contribution_curves",
        "info_nce"])
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
        per_anchor, _, _ = info_nce(np.eye(2, 4), np.eye(4)[2:], 1.0)
        np.testing.assert_allclose(per_anchor, math.log(2.0), rtol=1e-12)
        np.testing.assert_allclose(per_anchor.mean(), math.log(2.0), rtol=1e-12)

    def test_shift_invariance_constant_matrix(self):
        """Any constant similarity matrix of size N gives log N."""
        for value in (-0.8, 0.0, 0.37, 1.0):
            for tau in (0.07, 0.5, 2.0):
                per_anchor, _ = through_rows(info_nce, np.full((4, 4), value), tau)
                np.testing.assert_allclose(per_anchor, math.log(4.0), rtol=1e-12)

    def test_frozen_hard_positive_value(self):
        """s_ii = 1, s_ij = -1, tau = 0.5 gives log(1 + e^-4)."""
        U = np.array([[1.0, 0.0], [-1.0, 0.0]])
        per_anchor, _, _ = info_nce(U, U, 0.5)
        np.testing.assert_allclose(per_anchor, 0.01814992791780978, rtol=1e-12)

    def test_breakdown_identity(self):
        """per_anchor equals log(1 + positive_factor * negative_sum)."""
        rng = np.random.default_rng(3)
        for n in (2, 5, 16):
            S = random_similarities(rng, n)
            taus = rng.uniform(0.05, 2.0, size=n)
            per_anchor, _ = through_rows(info_nce, S, taus)
            positive, negative = distance_factors(S, taus)
            recon = np.log1p(positive * negative)
            np.testing.assert_allclose(per_anchor, recon, rtol=1e-12)

    def test_rejects_bad_tau(self):
        U = np.eye(2)
        with pytest.raises(ValueError, match="> 0"):
            info_nce(U, U, 0.0)
        with pytest.raises(ValueError, match="> 0"):
            info_nce(U, U, [0.5, -0.1])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        """A non-finite similarity needs a non-finite row, and a row's norm
        is then not 1: the unit-norm check refuses it, in U or in V."""
        V = np.eye(2)
        V[0, 1] = value
        with pytest.raises(ValueError, match="row 0 of V is not unit-norm"):
            info_nce(np.eye(2), V, 1.0)
        with pytest.raises(ValueError, match="row 0 of U is not unit-norm"):
            info_nce_symmetrized(V, np.eye(2), 1.0)

    @pytest.mark.parametrize("value", [1.5, -1.5])
    def test_rejects_similarities_out_of_range(self, value):
        """A similarity past [-1, 1] needs a row of norm past 1, which the
        unit-norm check refuses; keys trusted by ``v_checked``, as the queue
        path trusts them, are taken as they are, unclipped, so the loss is
        that of the similarities U @ V.T."""
        U = np.eye(2, 3)
        V = np.eye(3)
        V[1] *= value
        with pytest.raises(ValueError, match="row 1 of V is not unit-norm"):
            info_nce(U, V, 1.0)
        taus = np.ones(2)
        trusted = _info_nce(_logits(U, V, taus, v_checked=True), U, V, taus)[0]
        np.testing.assert_allclose(trusted, info_nce_distance_form(U @ V.T, 1.0), rtol=1e-12)

    def test_accepts_rounding_past_the_unit_bound(self):
        """Rows of norm 1 + 4e-7, inside the unit-norm tolerance, give
        similarities past 1, which are not clipped: a finite loss within
        1e-6 relative of that of exact unit rows."""
        U = np.eye(2) * (1.0 + 4e-7)
        per_anchor = info_nce(U, U, 1.0)[0]
        assert np.all(np.isfinite(per_anchor))
        np.testing.assert_allclose(per_anchor, info_nce(np.eye(2), np.eye(2), 1.0)[0], rtol=1e-6)

    def test_underflowing_negatives_give_zero_without_warning(self):
        """Negatives 2/tau below the positive underflow to zero weight; the
        loss, below the smallest double, is exactly 0 and nothing warns."""
        U = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            per_anchor, dU, dK = info_nce(U, U, 0.001)
        np.testing.assert_array_equal(per_anchor, 0.0)
        assert np.all(np.isfinite(dU)) and np.all(np.isfinite(dK))

    def test_rejects_single_column(self):
        with pytest.raises(ValueError, match="negative"):
            info_nce(np.ones((1, 1)), np.ones((1, 1)), 1.0)

    def test_rejects_fewer_keys_than_anchors(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            info_nce(np.eye(3), np.eye(2, 3), 1.0)


def info_nce_g_form(S, tau):
    """(per_anchor, G): the loss and its gradient G with respect to the
    similarities, worked on an n x m buffer as the softmax's weights; the
    oracle of :func:`info_nce`'s (per_anchor, G @ V, (G.T @ U)[:n])."""
    S = np.asarray(S, dtype=np.float64)
    n = S.shape[0]
    taus = np.broadcast_to(np.asarray(tau, dtype=np.float64), (n,))
    idx = np.arange(n)
    g = S / taus[:, None]
    g -= g.max(axis=1, keepdims=True)
    z_pos = g[idx, idx]
    np.exp(g, out=g)
    total = g.sum(axis=1, keepdims=True)
    positive = g[idx, idx]
    g[idx, idx] = 0.0
    negative = g.sum(axis=1)
    g[idx, idx] = positive
    with np.errstate(divide="ignore"):
        per_anchor = np.logaddexp(0.0, np.log(negative) - z_pos)
    g /= total
    w_pos = g[idx, idx]
    g /= taus[:, None]
    g[idx, idx] = (w_pos - 1.0) / taus
    g /= n
    return per_anchor, g


def info_nce_symmetrized_g_form(S, tau):
    """:func:`info_nce_g_form` averaged over the two directions of a square S."""
    fwd, fwd_grad = info_nce_g_form(S, tau)
    rev, rev_grad = info_nce_g_form(S.T, tau)
    return 0.5 * (fwd + rev), 0.5 * (fwd_grad + rev_grad.T)


def assert_rows_close(got, want, taus, rtol=1e-12):
    """Each row of ``got`` within ``rtol`` of ``want``'s, relative to the
    row's norm plus 1/(tau_i n), the scale of G's diagonal: the G form's
    (w_ii - 1)/(tau_i n) is exact only to that scale, as w_ii - 1 cancels
    when the positive dominates."""
    scale = np.linalg.norm(want, axis=1) + 1.0 / (taus * len(taus))
    assert np.all(np.linalg.norm(got - want, axis=1) <= rtol * scale)


class TestGFormOracle:
    @pytest.mark.parametrize("kind", ["in-batch", "queue", "symmetrized"])
    def test_random_instances_with_per_anchor_tau(self, kind):
        """Over 50 instances with a temperature per anchor, from 0.005 up,
        the loss agrees with the n x m form's per anchor to 1e-12 relative,
        and dU and dK with its G @ V and (G.T @ U)[:n] row by row."""
        rng = np.random.default_rng({"in-batch": 60, "queue": 61, "symmetrized": 62}[kind])
        for _ in range(50):
            n, d = int(rng.choice([2, 8, 64, 128])), int(rng.choice([4, 32]))
            m = n + (int(rng.integers(1, 1100)) if kind == "queue" else 0)
            U, V = unit_rows(rng, n, d), unit_rows(rng, m, d)
            V[:n] = U + rng.uniform(0.1, 1.0) * unit_rows(rng, n, d)  # keys near their anchors
            V[:n] /= np.linalg.norm(V[:n], axis=1, keepdims=True)
            taus = rng.choice([0.005, 0.07, 0.2, 0.5, 1.0], size=n)
            S = similarity_matrix(U, V)
            if kind == "symmetrized":
                (want, G), got = info_nce_symmetrized_g_form(S, taus), info_nce_symmetrized(U, V, taus)
            else:
                (want, G), got = info_nce_g_form(S, taus), info_nce(U, V, taus)
            np.testing.assert_allclose(got[0], want, rtol=1e-12)
            assert_rows_close(got[1], G @ V, taus)
            assert_rows_close(got[2], (G.T @ U)[:n], taus)

    def test_one_n_by_m_array_at_the_queue_shape(self):
        """128 anchors against their keys and a 1,024-row queue at width 32
        peak below 1.5 n x m float64 arrays: S is the call's one n x m
        array, and its buffer holds the exponentials too."""
        rng = np.random.default_rng(63)
        U, V = unit_rows(rng, 128, 32), unit_rows(rng, 1152, 32)
        taus = rng.uniform(0.1, 0.5, size=128)
        tracemalloc.start()
        try:
            info_nce(U, V, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 128 * 1152 * 8


def two_softmax_oracle(S, tau):
    """(per_anchor, grad) from two softmaxes over S, in S's precision: a
    log-sum-exp over each row's negatives, shifted by their own maximum, for
    the loss, and the full-row softmax for the gradient."""
    n, m = S.shape
    taus = np.broadcast_to(np.asarray(tau, dtype=S.dtype), (n,))
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


def summed_diagonal(grad):
    """``grad`` with each diagonal entry set to minus the row's other
    entries, as the softmax's rows sum to 1: the oracle's (w_ii - 1)/tau
    rounds to 0 where the positive dominates."""
    grad = grad.copy()
    np.fill_diagonal(grad, 0.0)
    np.fill_diagonal(grad, -grad.sum(axis=1))
    return grad


class TestTwoSoftmaxOracle:
    """The oracle works in long double on :func:`exact_similarities`, so
    agreement with it is accuracy."""

    def test_queue_shaped_with_per_anchor_tau(self):
        """128 anchors against their keys and a 1024-row queue, with a
        temperature per anchor: the loss agrees to 1e-13 relative and the
        embedding gradients with the oracle's G @ V and (G.T @ U)[:n] to
        1e-12, row by row."""
        rng = np.random.default_rng(70)
        U = unit_rows(rng, 128, 32)
        keys = U + 0.3 * unit_rows(rng, 128, 32)
        keys /= np.linalg.norm(keys, axis=1, keepdims=True)
        V = np.vstack([keys, unit_rows(rng, 1024, 32)])
        taus = rng.choice([0.07, 0.2, 0.5], size=128)
        per_anchor, grad = two_softmax_oracle(exact_similarities(U, V), taus)
        got, dU, dK = info_nce(U, V, taus)
        assert_rows_close(dU, grad @ V, taus)
        assert_rows_close(dK, (grad.T @ U)[:128], taus)
        np.testing.assert_allclose(got, per_anchor, rtol=1e-13)
        np.testing.assert_allclose(got.mean(), per_anchor.mean(), rtol=1e-13)

    def test_square_at_a_small_tau_with_vanishing_losses(self):
        """At tau = 0.005 with every key well above the anchor's negatives
        the losses fall below 1e-60 and still agree to 1e-12 relative: the
        float64 rounding of each similarity at width 256, times 1/tau = 200,
        leaves a few 1e-13 in the logits.  The oracle's diagonal,
        (w_ii - 1)/tau, rounds to 0 there; with it taken as minus the row's
        other entries, as the softmax's rows sum to 1, dU and dK agree with
        G @ V and (G.T @ U)[:n] to 1e-12 of each row's own norm: the
        negatives' weight is summed, not left as 1 - w_ii."""
        rng = np.random.default_rng(71)
        U = unit_rows(rng, 64, 256)
        V = U + 0.1 * unit_rows(rng, 64, 256)
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        per_anchor, grad = two_softmax_oracle(exact_similarities(U, V), 0.005)
        got, dU, dK = info_nce(U, V, 0.005)
        assert per_anchor.max() < 1e-60
        assert np.all(np.diag(grad) == 0.0)
        grad = summed_diagonal(grad)
        for have, want in ((dU, grad @ V), (dK, grad.T @ U)):
            err = np.linalg.norm(have - want, axis=1)
            assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1))
        np.testing.assert_allclose(got, per_anchor, rtol=1e-12)


class TestShiftGuard:
    """The logits are exponentiated with no row-max shift while every
    1/tau is at most ``_UNSHIFTED_INV_TAU``, and shifted past it."""

    @pytest.mark.parametrize("tau_low", [0.0015, 0.0025], ids=["both-sides", "below"])
    def test_per_anchor_tau_about_the_bound_matches_long_double(self, tau_low):
        """128 anchors against their keys and a 1,024-row queue, each at
        tau_low or 0.1: 1/0.0015 is past the bound, 1/0.0025 below it.  The
        loss agrees with the long-double oracle to 1e-12 relative (1/tau up
        to 667 times S's float64 rounding), and dU and dK to 1e-12 of each
        row's own norm."""
        assert 1.0 / 0.0025 < tempcl.loss._UNSHIFTED_INV_TAU < 1.0 / 0.0015
        rng = np.random.default_rng(73)
        U = unit_rows(rng, 128, 32)
        keys = U + 0.3 * unit_rows(rng, 128, 32)
        keys /= np.linalg.norm(keys, axis=1, keepdims=True)
        V = np.vstack([keys, unit_rows(rng, 1024, 32)])
        taus = rng.choice([tau_low, 0.1], size=128)
        per_anchor, grad = two_softmax_oracle(exact_similarities(U, V), taus)
        grad = summed_diagonal(grad)
        got, dU, dK = info_nce(U, V, taus)
        assert np.all(np.isfinite(got)) and np.all(got > 0.0)
        np.testing.assert_allclose(got, per_anchor, rtol=1e-12)
        for have, want in ((dU, grad @ V), (dK, (grad.T @ U)[:128])):
            err = np.linalg.norm(have - want, axis=1)
            assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1))

    def test_a_row_just_past_the_bound_takes_the_shifted_path(self, monkeypatch):
        """One anchor at 1/tau = 500.5 among anchors at tau = 0.1: the outputs
        are finite, and bit for bit those of logits already shifted by their
        row maximum, which a second shift leaves as they are.  With the bound
        lifted, the unshifted exponentials give other bits, so the check can
        tell the paths apart."""
        rng = np.random.default_rng(74)
        U, V = unit_rows(rng, 16, 8), unit_rows(rng, 48, 8)
        taus = np.full(16, 0.1)
        taus[5] = 1.0 / 500.5
        got = info_nce(U, V, taus)
        Z = _logits(U, V, taus)
        Z -= Z.max(axis=1, keepdims=True)
        shifted = _info_nce(Z, U, V, taus)
        for a, b in zip(got, shifted):
            assert np.all(np.isfinite(a)) and a.tobytes() == b.tobytes()
        monkeypatch.setattr(tempcl.loss, "_UNSHIFTED_INV_TAU", np.inf)
        unshifted = info_nce(U, V, taus)
        assert any(a.tobytes() != b.tobytes() for a, b in zip(got, unshifted))


class TestDistanceForm:
    def test_matches_similarity_form_on_fixtures(self):
        """The two forms agree on the softmax-form test inputs."""
        fixtures = [
            (np.zeros((2, 2)), 1.0),
            (np.full((4, 4), 0.37), 0.5),
            (np.array([[1.0, -1.0], [-1.0, 1.0]]), 0.5),
        ]
        for S, tau in fixtures:
            a = through_rows(info_nce, S, tau)[0]
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
            a = through_rows(info_nce, S, taus)[0]
            b = info_nce_distance_form(S, taus)
            np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_rectangular_instances(self):
        """Agreement also holds with extra negative columns."""
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.choice([2, 8]))
            S = rng.uniform(-1.0, 1.0, size=(n, n + int(rng.integers(1, 30))))
            tau = float(rng.uniform(0.05, 2.0))
            a = through_rows(info_nce, S, tau)[0]
            b = info_nce_distance_form(S, tau)
            np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_tiny_loss_still_agrees(self):
        """Near-zero losses keep full relative agreement."""
        U = np.array([[1.0, 0.0], [-1.0, 0.0]])
        V = np.array([[0.999, math.sqrt(1.0 - 0.999**2)], [-0.999, -math.sqrt(1.0 - 0.999**2)]])
        a = info_nce(U, V, 0.05)[0]
        b = info_nce_distance_form(similarity_matrix(U, V), 0.05)
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
            per = through_rows(info_nce, S, taus)[0]
            bound = np.log1p((n - 1) * np.exp(-2.0 / taus))
            assert np.all(per >= 0.0)
            assert np.all(per >= bound - 1e-12)

    def test_row_shift_invariance(self):
        """Adding a constant to one row leaves that anchor's loss unchanged.
        Every key is 0.6 along coordinate 4, so moving anchor i's weight
        there by delta / 0.6 (and coordinate 5, to keep it unit-norm) adds
        delta to row i of S."""
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            V = np.hstack([0.8 * unit_rows(rng, n, 4), np.full((n, 1), 0.6), np.zeros((n, 1))])
            U = np.hstack([0.6 * unit_rows(rng, n, 4), np.zeros((n, 1)), np.full((n, 1), 0.8)])
            taus = rng.uniform(0.05, 2.0, size=n)
            i = int(rng.integers(n))
            shifted = U.copy()
            shifted[i, 4] = float(rng.uniform(-0.4, 0.4)) / 0.6
            shifted[i, 5] = math.sqrt(0.64 - shifted[i, 4] ** 2)
            a = info_nce(U, V, taus)[0][i]
            b = info_nce(shifted, V, taus)[0][i]
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_per_anchor_tau_matches_scalar(self):
        """A constant temperature vector reproduces the scalar result exactly."""
        rng = np.random.default_rng(33)
        U, V = unit_rows(rng, 6, 4), unit_rows(rng, 9, 4)
        for a, b in zip(info_nce(U, V, 0.3), info_nce(U, V, np.full(6, 0.3))):
            np.testing.assert_array_equal(a, b)


class TestInfoNceGrad:
    def test_uniform_matrix_frozen_values(self):
        """All-equal similarities: off-diagonal 0.125, diagonal -0.375."""
        _, G = through_rows(info_nce, np.full((4, 4), 0.2), 0.5)
        off = G[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 0.125, rtol=1e-12)
        np.testing.assert_allclose(np.diag(G), -0.375, rtol=1e-12)

    def test_row_sums_zero(self):
        """Softmax weights sum to one, so every gradient row sums to zero."""
        rng = np.random.default_rng(40)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            S = random_similarities(rng, n)
            _, G = through_rows(info_nce, S, rng.uniform(0.05, 2.0, size=n))
            np.testing.assert_allclose(G.sum(axis=1), 0.0, atol=1e-14)

    def test_signs(self):
        """Off-diagonal strictly positive, diagonal strictly negative."""
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            S = random_similarities(rng, n)
            _, G = through_rows(info_nce, S, float(rng.uniform(0.05, 2.0)))
            off = ~np.eye(n, dtype=bool)
            assert np.all(G[off] > 0.0)
            assert np.all(np.diag(G) < 0.0)

    def test_hardness_awareness(self):
        """Within a row, the gradient grows with the negative's similarity."""
        rng = np.random.default_rng(42)
        S = random_similarities(rng, 8)
        _, G = through_rows(info_nce, S, 0.2)
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
            _, G = through_rows(info_nce, S, tau)
            fd = np.zeros_like(G)
            for i in range(n):
                for j in range(n):
                    Sp, Sm = S.copy(), S.copy()
                    Sp[i, j] += h
                    Sm[i, j] -= h
                    up = through_rows(info_nce, Sp, tau)[0].mean()
                    down = through_rows(info_nce, Sm, tau)[0].mean()
                    fd[i, j] = (up - down) / (2 * h)
            err = np.abs(G - fd).max() / np.abs(G).max()
            assert err < 1e-5, f"n={n}, tau={tau}: rel err {err:.2e}"

    @pytest.mark.parametrize("loss, m", [(info_nce, 6), (info_nce, 11), (info_nce_symmetrized, 6)],
                             ids=["in-batch", "queue", "symmetrized"])
    def test_embedding_gradients_match_central_differences(self, loss, m):
        """dU and dK match central differences of the mean loss in each entry
        of U and of the keys V[:n]; steps of 1e-7 keep the rows inside the
        unit-norm tolerance."""
        rng = np.random.default_rng(44)
        U, V = unit_rows(rng, 6, 5), unit_rows(rng, m, 5)
        taus = rng.uniform(0.1, 1.0, size=6)
        _, dU, dK = loss(U, V, taus)
        h = 1e-7
        for X, grad in ((U, dU), (V, dK)):
            fd = np.zeros_like(grad)
            for i, k in np.ndindex(*grad.shape):
                orig = X[i, k]
                X[i, k] = orig + h
                up = loss(U, V, taus)[0].mean()
                X[i, k] = orig - h
                down = loss(U, V, taus)[0].mean()
                X[i, k] = orig
                fd[i, k] = (up - down) / (2 * h)
            assert np.abs(grad - fd).max() / np.abs(grad).max() < 1e-5

    def test_symmetrize_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            info_nce_symmetrized(np.eye(2, 4), np.eye(4), 1.0)

    def test_the_queue_path_without_key_gradients_keeps_the_bits(self):
        """The momentum queue's keys take no gradient: the private path that
        skips dK, on the logits of keys trusted as checked, gives info_nce's
        loss and dU bit for bit."""
        rng = np.random.default_rng(72)
        U, V = unit_rows(rng, 128, 32), unit_rows(rng, 1152, 32)
        taus = rng.choice([0.07, 0.2, 0.5], size=128)
        per_anchor, dU, _ = info_nce(U, V, taus)
        taus = _as_tau_vector(taus, 128)
        got, got_dU, dK = _info_nce(_logits(U, V, taus, v_checked=True), U, V, taus, keys=False)
        assert dK is None
        assert got.tobytes() == per_anchor.tobytes() and got_dU.tobytes() == dU.tobytes()


class TestSymmetrized:
    def test_mean_is_average_of_directions(self):
        rng = np.random.default_rng(50)
        U, V = unit_rows(rng, 5, 3), unit_rows(rng, 5, 3)
        sym = info_nce_symmetrized(U, V, 0.4)[0]
        fwd = info_nce(U, V, 0.4)[0]
        rev = info_nce(V, U, 0.4)[0]
        np.testing.assert_allclose(sym.mean(), 0.5 * (fwd.mean() + rev.mean()), rtol=1e-12)

    def test_symmetric_matrix_is_fixed_point(self):
        rng = np.random.default_rng(51)
        U = unit_rows(rng, 4, 3)
        np.testing.assert_allclose(
            info_nce_symmetrized(U, U, 0.3)[0],
            info_nce(U, U, 0.3)[0],
            rtol=1e-12,
        )

    def test_symmetrized_gradient_finite_difference(self):
        """Symmetrized gradient matches central differences too."""
        rng = np.random.default_rng(52)
        S = rng.uniform(-0.9, 0.9, size=(5, 5))
        tau = 0.3
        _, G = through_rows(info_nce_symmetrized, S, tau)
        h = 1e-5
        fd = np.zeros_like(G)
        for i in range(5):
            for j in range(5):
                Sp, Sm = S.copy(), S.copy()
                Sp[i, j] += h
                Sm[i, j] -= h
                up = through_rows(info_nce_symmetrized, Sp, tau)[0]
                down = through_rows(info_nce_symmetrized, Sm, tau)[0]
                fd[i, j] = (up.mean() - down.mean()) / (2 * h)
        assert np.abs(G - fd).max() / np.abs(G).max() < 1e-5
