"""Temperature-scaled contrastive (InfoNCE) loss on cosine-similarity matrices.

The loss is computed in two algebraically equivalent forms: directly from
similarities through a softmax, and through exponentiated distances
d_ij = (1 - s_ij) / tau_i.  Both forms reduce to softplus of the same
log-sum-exp; they are kept as genuinely separate code paths so that one can
serve as a cross-check of the other.

Conventions: row i of a similarity matrix belongs to anchor i, column j to
key j, and the diagonal entry (i, i) holds the positive-pair similarity.
A matrix may have more columns than rows, in which case the extra columns
are additional negatives shared by every anchor (queue-style negatives).
All computation is in 64-bit floats.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossBreakdown",
    "similarity_matrix",
    "info_nce",
    "info_nce_distance_form",
    "info_nce_grad",
    "info_nce_symmetrized",
]

_UNIT_NORM_TOL = 1e-6
_SIM_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class LossBreakdown:
    """Per-anchor contrastive loss and its mean.

    per_anchor[i] = -log(exp(s_ii/tau_i) / sum_j exp(s_ij/tau_i)), which
    equals log(1 + exp(d_ii) * sum_{j != i} exp(-d_ij)) with
    d_ij = (1 - s_ij) / tau_i; it is always computed through a stable
    log-space path.  ``mean`` is the arithmetic mean of ``per_anchor``.
    """

    per_anchor: np.ndarray
    mean: float


def _unit_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``X`` divided by their norms, with all-zero rows mapped to the
    first basis vector; returns (rows, norms)."""
    norms = np.linalg.norm(X, axis=1)
    zero = norms == 0.0
    U = X / np.where(zero, 1.0, norms)[:, None]
    if zero.any():
        U[zero] = 0.0
        U[zero, 0] = 1.0
    return U, norms


def _check_unit_rows(X: np.ndarray, name: str) -> None:
    norms = np.linalg.norm(X, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > _UNIT_NORM_TOL)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"row {i} of {name} is not unit-norm (|norm - 1| = {abs(norms[i] - 1.0):.3e})"
        )


def similarity_matrix(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Cosine similarities between two batches of unit-norm row vectors.

    Returns the N x N matrix with entry (i, j) = dot(U[i], V[j]), clamped
    to [-1, 1].  Both inputs must have identical shape and unit-norm rows
    (within 1e-6).
    """
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if U.ndim != 2 or V.ndim != 2 or U.shape != V.shape:
        raise ValueError(f"shape mismatch: U is {U.shape}, V is {V.shape}")
    _check_unit_rows(U, "U")
    _check_unit_rows(V, "V")
    return np.clip(U @ V.T, -1.0, 1.0)


def _validate_similarities(S: np.ndarray) -> np.ndarray:
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2:
        raise ValueError(f"similarity matrix must be 2-D, got shape {S.shape}")
    n, m = S.shape
    if m < n:
        raise ValueError(
            f"similarity matrix needs a key column per anchor: {n} rows but {m} columns"
        )
    if m < 2:
        raise ValueError("loss undefined without at least one negative (need >= 2 columns)")
    if not np.all(np.isfinite(S)):
        raise ValueError("similarity matrix contains non-finite entries")
    if S.min() < -1.0 - _SIM_BOUND_SLACK or S.max() > 1.0 + _SIM_BOUND_SLACK:
        raise ValueError(
            f"similarities out of [-1, 1]: min {S.min():.6g}, max {S.max():.6g}"
        )
    return S


def _as_tau_vector(tau, n: int) -> np.ndarray:
    """Broadcast a scalar temperature or validate a per-anchor vector."""
    taus = np.asarray(tau, dtype=np.float64)
    if taus.ndim == 0:
        taus = np.full(n, float(taus))
    if taus.shape != (n,):
        raise ValueError(f"tau must be scalar or length-{n}, got shape {taus.shape}")
    if not np.all(np.isfinite(taus)) or np.any(taus <= 0.0):
        raise ValueError("temperatures must be finite and > 0")
    return taus


def _offdiag_mask(n: int, m: int) -> np.ndarray:
    mask = np.ones((n, m), dtype=bool)
    mask[np.arange(n), np.arange(n)] = False
    return mask


def info_nce(S: np.ndarray, tau) -> LossBreakdown:
    """Contrastive loss from a similarity matrix, softmax form.

    per_anchor[i] = -log( exp(s_ii/tau_i) / sum_j exp(s_ij/tau_i) ),
    evaluated as softplus of a max-shifted log-sum-exp over the negatives
    so the value stays accurate even when the loss is vanishingly small.
    """
    S = _validate_similarities(S)
    n, m = S.shape
    taus = _as_tau_vector(tau, n)

    diag = S[np.arange(n), np.arange(n)]
    z = (S - diag[:, None]) / taus[:, None]
    off = _offdiag_mask(n, m)
    # log-sum-exp over negatives with row-max subtraction
    z_neg = np.where(off, z, -np.inf)
    zmax = z_neg.max(axis=1)
    lse = zmax + np.log(np.sum(np.exp(z_neg - zmax[:, None]), axis=1, where=off))
    per_anchor = np.logaddexp(0.0, lse)
    return LossBreakdown(per_anchor=per_anchor, mean=float(per_anchor.mean()))


def info_nce_distance_form(S: np.ndarray, tau) -> LossBreakdown:
    """Contrastive loss recomputed through distances d_ij = (1 - s_ij)/tau_i.

    per_anchor[i] = log(1 + exp(d_ii) * sum_{j != i} exp(-d_ij)), carried out
    in log space as softplus(d_ii + logsumexp_j(-d_ij)).  Agrees with
    :func:`info_nce` to better than 1e-9 relative on valid inputs.
    """
    S = _validate_similarities(S)
    n, m = S.shape
    taus = _as_tau_vector(tau, n)

    d = (1.0 - S) / taus[:, None]
    off = _offdiag_mask(n, m)
    neg = np.where(off, -d, -np.inf)
    nmax = neg.max(axis=1)
    lse = nmax + np.log(np.sum(np.exp(neg - nmax[:, None]), axis=1, where=off))
    d_pos = d[np.arange(n), np.arange(n)]
    per_anchor = np.logaddexp(0.0, d_pos + lse)
    return LossBreakdown(per_anchor=per_anchor, mean=float(per_anchor.mean()))


def info_nce_grad(S: np.ndarray, tau, symmetrize: bool = False) -> np.ndarray:
    """Gradient of the mean contrastive loss with respect to each similarity.

    With w_ij the softmax over row i of s_ik/tau_i, the per-anchor gradient
    is (w_ij - [i == j]) / tau_i; the result is divided by the number of
    anchors to match the mean loss.  Off-diagonal entries are positive
    (negatives are repelled in proportion to their softmax weight), diagonal
    entries negative.

    ``symmetrize=True`` (square matrices only) averages with the gradient of
    the transposed-roles loss.
    """
    S = _validate_similarities(S)
    n, m = S.shape
    taus = _as_tau_vector(tau, n)

    z = S / taus[:, None]
    z -= z.max(axis=1, keepdims=True)
    w = np.exp(z)
    w /= w.sum(axis=1, keepdims=True)
    grad = w / taus[:, None]
    idx = np.arange(n)
    grad[idx, idx] = (w[idx, idx] - 1.0) / taus
    grad /= n

    if symmetrize:
        if n != m:
            raise ValueError("symmetrize requires a square similarity matrix")
        grad = 0.5 * (grad + info_nce_grad(S.T, tau).T)
    return grad


def info_nce_symmetrized(S: np.ndarray, tau) -> LossBreakdown:
    """Average of the loss and its transposed-roles counterpart.

    Square matrices only.  ``per_anchor`` and ``mean`` are the per-index
    averages of the two directions.
    """
    S = _validate_similarities(S)
    if S.shape[0] != S.shape[1]:
        raise ValueError("symmetrized loss requires a square similarity matrix")
    fwd = info_nce(S, tau)
    rev = info_nce(S.T, tau)
    per_anchor = 0.5 * (fwd.per_anchor + rev.per_anchor)
    return LossBreakdown(per_anchor=per_anchor, mean=float(per_anchor.mean()))
