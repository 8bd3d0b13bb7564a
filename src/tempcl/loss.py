"""Temperature-scaled contrastive (InfoNCE) loss on cosine-similarity matrices.

:func:`info_nce` returns the loss and its gradient with respect to each
similarity, both from one set of exponentials of the softmax over
similarities.  The gradient is where the temperature acts: a small tau puts
the weight on the hardest negatives, a large one spreads it.

Conventions: row i of a similarity matrix belongs to anchor i, column j to
key j, and the diagonal entry (i, i) holds the positive-pair similarity.
A matrix may have more columns than rows, in which case the extra columns
are additional negatives shared by every anchor (queue-style negatives).
All computation is in 64-bit floats.
"""

import numpy as np

__all__ = [
    "similarity_matrix",
    "info_nce",
    "info_nce_symmetrized",
]

_UNIT_NORM_TOL = 1e-6
_SIM_BOUND_SLACK = 1e-9
# float64 products held at once by a row-blocked product; freed 1 MiB blocks leave
# glibc's mmap threshold below a training step's loss matrix, which then faults
_PRODUCT_BLOCK_BYTES = 2 << 20


def _unit_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``X`` divided by their norms, with all-zero rows mapped to the
    first basis vector; returns (rows, norms).  A norm that overflows is a
    numeric divergence and raises FloatingPointError."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(X, axis=1)
    if not np.all(np.isfinite(norms)):
        raise FloatingPointError(f"the norm of row {np.argmin(np.isfinite(norms))} overflows")
    zero = norms == 0.0
    U = X / np.where(zero, 1.0, norms)[:, None]
    if zero.any():
        U[zero] = 0.0
        U[zero, 0] = 1.0
    return U, norms


def _check_unit_rows(X: np.ndarray, name: str) -> None:
    norms = np.linalg.norm(X, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _UNIT_NORM_TOL))  # NaN norms are bad too
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"row {i} of {name} is not unit-norm (|norm - 1| = {abs(norms[i] - 1.0):.3e})"
        )


def _row_blocks(n: int, row_bytes: int) -> list:
    """(start, stop) pairs covering rows [0, n) in order, each ~``_PRODUCT_BLOCK_BYTES``
    of products of ``row_bytes`` a row; one if they fit.  A 1-row remainder
    joins the block before it: a 1-row product takes gemv, whose sums differ."""
    starts = list(range(0, n, max(2, _PRODUCT_BLOCK_BYTES // row_bytes))) or [0]
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def similarity_matrix(U: np.ndarray, V: np.ndarray, *, v_checked: bool = False) -> np.ndarray:
    """Cosine similarities between two batches of unit-norm row vectors.

    Returns the N x M matrix with entry (i, j) = dot(U[i], V[j]), clamped
    to [-1, 1].  V holds the key of each row of U, then any negatives shared
    by every anchor, so it needs U's width and at least U's rows.  All rows
    must be unit-norm (within 1e-6).  ``v_checked`` says every row of V has
    passed that check already, as keys in a momentum queue have in
    ``queue_push``; only U is checked then.
    """
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[1] or V.shape[0] < U.shape[0]:
        raise ValueError(f"shape mismatch: U is {U.shape}, V is {V.shape}")
    _check_unit_rows(U, "U")
    if not v_checked:
        _check_unit_rows(V, "V")
    S = U @ V.T
    return np.clip(S, -1.0, 1.0, out=S)


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
    # a NaN or an infinity makes the minimum or the maximum non-finite
    lo, hi = S.min(), S.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("similarity matrix contains non-finite entries")
    if lo < -1.0 - _SIM_BOUND_SLACK or hi > 1.0 + _SIM_BOUND_SLACK:
        raise ValueError(f"similarities out of [-1, 1]: min {lo:.6g}, max {hi:.6g}")
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


def info_nce(S: np.ndarray, tau) -> tuple[np.ndarray, np.ndarray]:
    """Contrastive loss from a similarity matrix, softmax form, with its
    gradient: (per_anchor, grad), ``grad`` that of the mean loss.

    per_anchor[i] = -log( exp(s_ii/tau_i) / sum_j exp(s_ij/tau_i) ).  With
    w_ij the softmax over row i of s_ik/tau_i, the per-anchor gradient is
    (w_ij - [i == j]) / tau_i; ``grad`` divides it by the number of
    anchors to match the mean loss.  Off-diagonal entries are positive
    (negatives are repelled in proportion to their softmax weight), diagonal
    entries negative.

    The loss comes from the gradient's exponentials e_ij = exp(z_ij - m_i),
    z = S/tau shifted by its row maximum m_i, as
    softplus(log(sum_{j != i} e_ij) - (z_ii - m_i)).  The negatives are
    summed on their own rather than as the row sum less e_ii, so nothing
    cancels, and softplus of a very negative argument is its exponential:
    a vanishing loss keeps its full relative accuracy.  Only when every
    negative underflows, a loss below the smallest double, is it exactly 0.
    """
    S = _validate_similarities(S)
    return _info_nce(S, _as_tau_vector(tau, S.shape[0]))


def _info_nce(S: np.ndarray, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`info_nce` of a validated S and temperature vector, worked in
    place in one n x m buffer (fresh ones cost more than the arithmetic):
    the shifted logits, their exponentials, the softmax, then the gradient."""
    n = S.shape[0]
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


def info_nce_symmetrized(S: np.ndarray, tau) -> tuple[np.ndarray, np.ndarray]:
    """Average of the loss and its transposed-roles counterpart.

    Square matrices only.  Returns (per_anchor, grad) as :func:`info_nce`
    does, each the per-index average of the two directions.
    """
    S = _validate_similarities(S)
    if S.shape[0] != S.shape[1]:
        raise ValueError("symmetrized loss requires a square similarity matrix")
    taus = _as_tau_vector(tau, S.shape[0])
    fwd, fwd_grad = _info_nce(S, taus)
    rev, rev_grad = _info_nce(S.T, taus)
    return 0.5 * (fwd + rev), 0.5 * (fwd_grad + rev_grad.T)
