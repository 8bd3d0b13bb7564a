"""Temperature-scaled contrastive (InfoNCE) loss of unit embeddings, with
its gradients.

:func:`info_nce` takes the anchors U (n x d) and their keys V (m x d, m >= n):
row i of V is anchor i's positive key, and any rows past n are negatives
shared by every anchor (queue-style negatives).  Row i of the logits
Z = (U / tau) @ V.T, z_ij = s_ij / tau_i for the cosine similarity s_ij,
belongs to anchor i, and (i, i) is its positive pair: tau scales the n x d
anchors, not the n x m product.  The function returns the per-anchor loss
and the gradients of the mean loss with respect to U and to the keys
K = V[:n], all from one set of exponentials of the softmax over Z.  The
gradients are where the temperature acts: a small tau puts the weight on
the hardest negatives, a large one spreads it.

The exponentials E = exp(Z) take no row-max shift while every 1/tau is at
most ``_UNSHIFTED_INV_TAU`` (500): unit rows (within the 1e-6 tolerance,
with no clip to [-1, 1]) bound |z_ij| by 500.001, so each e_ij is a normal
double and a row total overflows only past 10^91 terms.  A smaller tau
takes the shift, under which a negative's weight may underflow to 0.

The gradient with respect to the similarities, G = (W - I) / (tau n) with W
the row softmax, is never formed: it is an n x m array, and every division
or fix-up of it is a pass over n x m entries.  E is worked in Z's own
buffer, with the positives' entries (i, i) zeroed once summed, and the
scalings are applied to the n x d products instead.  With t the row totals
of E, r those of the zeroed E (the negatives'), c = 1 / (t tau n) per row:

    dU = c * (E @ V) - c r * V[:n]            (= G @ V)
    dK = E[:, :n].T @ (c * U) - c r * U       (= (G.T @ U)[:n])

The positive's own weight cancels from G's diagonal, 1 - w_ii being the
negatives' weight r / t, so neither subtracts two near-equal terms when the
positive dominates: a vanishing loss keeps its gradients' relative accuracy.

All computation is in 64-bit floats.
"""

import numpy as np

__all__ = [
    "info_nce",
    "info_nce_symmetrized",
]

_UNIT_NORM_TOL = 1e-6
# the largest 1/tau whose logits are exponentiated with no row-max shift
_UNSHIFTED_INV_TAU = 500.0
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
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))  # no squared copy of X
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


def _logits(U: np.ndarray, V: np.ndarray, taus: np.ndarray,
            v_checked: bool = False) -> np.ndarray:
    """Z = (U / taus) @ V.T, the n x m logits of unit anchors ``U`` against
    keys ``V``: V holds each anchor's key, then any shared negatives, so it
    needs U's width and at least U's rows.  All rows must be unit-norm
    (within 1e-6).  ``v_checked`` says every row of V has passed that check
    already, as keys in a momentum queue have in ``queue_push``; only U is
    checked then."""
    if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[1] or V.shape[0] < U.shape[0]:
        raise ValueError(f"shape mismatch: U is {U.shape}, V is {V.shape}")
    _check_unit_rows(U, "U")
    if not v_checked:
        _check_unit_rows(V, "V")
    return (U * (1.0 / taus)[:, None]) @ V.T


def info_nce(U: np.ndarray, V: np.ndarray, tau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contrastive loss of unit anchors ``U`` against keys ``V``, softmax
    form, with its gradients: (per_anchor, dU, dK), the gradients those of
    the mean loss with respect to U and to the anchors' keys K = V[:n].

    per_anchor[i] = -log( exp(z_ii) / sum_j exp(z_ij) ) for the logits
    Z = (U / tau) @ V.T, unclipped.  ``tau`` is a scalar or one temperature
    per anchor.  dU and dK are G @ V and (G.T @ U)[:n] for G = dmean/dS,
    worked from the softmax's exponentials as the module docstring says.

    The loss comes from the same exponentials e_ij = exp(z_ij), shifted by
    the row maximum only past 1/tau = 500, as
    softplus(log(sum_{j != i} e_ij) - z_ii).  The negatives are summed on
    their own rather than as the row sum less e_ii, so nothing cancels, and
    softplus of a very negative argument is its exponential: a vanishing
    loss keeps its full relative accuracy.  Only when every shifted negative
    underflows, a loss below the smallest double, is it exactly 0.
    """
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    taus = _as_tau_vector(tau, len(U))
    return _info_nce(_logits(U, V, taus), U, V, taus)


def _info_nce(Z: np.ndarray, U: np.ndarray, V: np.ndarray, taus: np.ndarray,
              keys: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`info_nce` of the logits Z = :func:`_logits` (U, V, taus),
    worked in place: shifted by their row maximum only past
    ``_UNSHIFTED_INV_TAU``, then their exponentials E, the diagonal zeroed
    once the positives are read.  With ``keys`` False dK is None, for keys
    that take no gradient (a key encoder's)."""
    n, m = Z.shape
    if m < 2:
        raise ValueError("loss undefined without at least one negative (need >= 2 keys)")
    idx = np.arange(n)
    if 1.0 / taus.min() > _UNSHIFTED_INV_TAU:
        Z -= Z.max(axis=1, keepdims=True)
    z_pos = Z[idx, idx]
    E = np.exp(Z, out=Z)
    positive = E[idx, idx]
    E[idx, idx] = 0.0
    negative = E.sum(axis=1)
    with np.errstate(divide="ignore"):
        per_anchor = np.logaddexp(0.0, np.log(negative) - z_pos)
    c = 1.0 / ((positive + negative) * taus * n)
    cr = c * negative
    dU = E @ V
    dU *= c[:, None]
    dU -= cr[:, None] * V[:n]
    if not keys:
        return per_anchor, dU, None
    dK = E[:, :n].T @ (c[:, None] * U)
    dK -= cr[:, None] * U
    return per_anchor, dU, dK


def info_nce_symmetrized(U: np.ndarray, V: np.ndarray,
                         tau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Average of the loss and its transposed-roles counterpart, in which
    the keys V are the anchors and U their keys.

    One key per anchor only.  Returns (per_anchor, dU, dK) as
    :func:`info_nce` does, each the per-index average of the two
    directions: dU averages the forward dU with the reverse direction's
    gradient of its keys, and dK the other way round.
    """
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if U.shape[0] != V.shape[0]:
        raise ValueError(f"symmetrized loss requires a square similarity matrix: "
                         f"{U.shape[0]} anchors but {V.shape[0]} keys")
    taus = _as_tau_vector(tau, len(U))
    fwd, dU, dV = _info_nce(_logits(U, V, taus), U, V, taus)
    rev, dV_rev, dU_rev = _info_nce(_logits(V, U, taus, v_checked=True), V, U, taus)
    return 0.5 * (fwd + rev), 0.5 * (dU + dU_rev), 0.5 * (dV + dV_rev)
