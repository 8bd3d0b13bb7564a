"""Embedding-space diagnostics.

Hypersphere coverage histograms (how evenly the embeddings fill randomly
sampled directions), individual vs. cumulative negative-contribution
curves as a function of anchor similarity, and PCA projections.  Each
diagnostic has a CSV renderer; plotting is left to external tooling.  Each
n x m product of embeddings is formed in row blocks (``loss._row_blocks``).
"""

from dataclasses import dataclass

import numpy as np

from tempcl.loss import _check_unit_rows, _row_blocks

__all__ = [
    "ContributionCurves",
    "coverage_histogram",
    "uniformity_stat",
    "aggregate_contribution_curves",
    "pca_project",
    "coverage_csv",
    "curves_csv",
    "pca_csv",
]

N_SIM_BINS = 100  # similarity axis split into bins of width 0.02 over [-1, 1]
SIM_BIN_EDGES = np.linspace(-1.0, 1.0, N_SIM_BINS + 1)  # the edges of every curve set
_BIN_CENTERS = 0.5 * (SIM_BIN_EDGES[:-1] + SIM_BIN_EDGES[1:])


def coverage_histogram(embeddings: np.ndarray, B: int = 500, seed: int = 0) -> np.ndarray:
    """Counts of embeddings per direction bin: each embedding goes to the
    bin of maximum cosine similarity; bins are seeded normalized Gaussian
    draws, ties go to the lowest bin index."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[0] == 0:
        raise ValueError("need a non-empty 2-D embedding matrix")
    if B < 1:
        raise ValueError(f"need at least one bin, got B={B}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 4]))
    dirs = rng.standard_normal((B, embeddings.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    assign = np.concatenate([np.argmax(embeddings[a:b] @ dirs.T, axis=1)
                             for a, b in _row_blocks(embeddings.shape[0], 8 * B)])
    return np.bincount(assign, minlength=B)


def uniformity_stat(counts: np.ndarray) -> float:
    """Coefficient of variation of the bin counts; 0 for perfectly even
    coverage, sqrt(B - 1) for a single-bin point mass."""
    counts = np.asarray(counts, dtype=np.float64)
    return float(counts.std() / counts.mean())


@dataclass(frozen=True)
class ContributionCurves:
    """Loss contributions of negatives grouped by similarity to the anchor.

    The bins are those of ``SIM_BIN_EDGES``.  ``individual`` is the weight
    exp((s - 1) / tau) at each bin center, ``histogram`` the negative count
    per bin, and ``cumulative`` the summed weight per bin; the two weight
    curves are normalized to max 1.
    """

    individual: np.ndarray
    cumulative: np.ndarray
    histogram: np.ndarray


def _bin_of(values: np.ndarray) -> np.ndarray:
    """Right-open bins, except the last bin which includes s = 1; values
    beyond the ends go to the end bins.  The arithmetic estimate is off by at
    most one bin near an edge, and one comparison with each edge repairs it."""
    idx = np.floor((values + 1.0) * (N_SIM_BINS / 2))
    idx = np.clip(idx, 0, N_SIM_BINS - 1, out=idx).astype(np.intp)
    idx -= values < SIM_BIN_EDGES[idx]
    idx += values >= SIM_BIN_EDGES[idx + 1]
    return np.clip(idx, 0, N_SIM_BINS - 1, out=idx)


def _curves(hist: np.ndarray, cumulative: np.ndarray, tau: float) -> ContributionCurves:
    """The curve set of the per-bin negative counts and summed weights."""
    individual = np.exp((_BIN_CENTERS - _BIN_CENTERS.max()) / tau)
    return ContributionCurves(individual / individual.max(), cumulative / cumulative.max(), hist)


def aggregate_contribution_curves(emb: np.ndarray, tau: float) -> ContributionCurves:
    """Contribution curves of every anchor's negatives pooled (the
    off-diagonal entries of emb @ emb.T, clipped to [-1, 1]), each weighted
    exp((s - max s) / tau).  They are formed twice in row blocks: pass 1 takes
    the maximum, pass 2 adds weights by ``np.add.at`` in one ``bincount``'s
    row-major order.  A diagonal entry, at -inf, adds 0.0 to bin 0's sum."""
    emb = np.asarray(emb, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] < 2:
        raise ValueError("need a 2-D embedding matrix with N >= 2 rows")
    if not tau > 0:
        raise ValueError(f"temperature must be > 0, got {tau}")
    _check_unit_rows(emb, "embeddings")
    blocks = _row_blocks(emb.shape[0], 8 * emb.shape[0])

    def sims(a, b):
        S = emb[a:b] @ emb.T
        np.clip(S, -1.0, 1.0, out=S)
        S[np.arange(b - a), np.arange(a, b)] = -np.inf
        return S

    top = max(sims(a, b).max() for a, b in blocks)
    hist, cumulative = np.zeros(N_SIM_BINS, dtype=np.int64), np.zeros(N_SIM_BINS)
    for a, b in blocks:
        S = sims(a, b)
        idx = _bin_of(S).ravel()
        hist += np.bincount(idx, minlength=N_SIM_BINS)
        S -= top
        S /= tau
        np.add.at(cumulative, idx, np.exp(S, out=S).ravel())
    hist[0] -= emb.shape[0]  # the diagonal's count
    return _curves(hist, cumulative, tau)


def pca_project(embeddings: np.ndarray, components: int = 3) -> np.ndarray:
    """Coordinates of mean-centered data on its leading principal
    components, ordered by descending eigenvalue of the covariance matrix,
    with each direction's sign fixed so its largest-magnitude loading is
    positive."""
    X = np.asarray(embeddings, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("embeddings must be 2-D")
    n, d = X.shape
    if n <= components:
        raise ValueError(f"need more than {components} samples, got {n}")
    if components < 1 or components > d:
        raise ValueError(f"components must be in [1, {d}], got {components}")
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvecs = eigvecs[:, np.argsort(eigvals)[::-1][:components]]
    for j in range(components):
        i = np.argmax(np.abs(eigvecs[:, j]))
        if eigvecs[i, j] < 0:
            eigvecs[:, j] = -eigvecs[:, j]
    return centered @ eigvecs


def _csv(header: str, rows) -> str:
    """CSV text of ``rows`` of Python ints and floats, each written by repr."""
    return header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


def coverage_csv(counts: np.ndarray) -> str:
    return _csv("bin,count", ((i, int(c)) for i, c in enumerate(counts)))


def curves_csv(c: ContributionCurves) -> str:
    columns = (_BIN_CENTERS, c.histogram, c.individual, c.cumulative)
    return _csv("bin_center,histogram,individual,cumulative", zip(*(a.tolist() for a in columns)))


def pca_csv(coords: np.ndarray, labels) -> str:
    return _csv("index,label,pc1,pc2,pc3",
                ((i, int(lab), float(row[0]), float(row[1]), float(row[2]))
                 for i, (row, lab) in enumerate(zip(coords, np.asarray(labels)))))
