"""Embedding-space diagnostics.

Hypersphere coverage histograms (how evenly the embeddings fill randomly
sampled directions), individual vs. cumulative negative-contribution
curves as a function of anchor similarity, and PCA projections.  Each
diagnostic has a CSV renderer; plotting is left to external tooling.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ContributionCurves",
    "coverage_histogram",
    "uniformity_stat",
    "contribution_curves",
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
    assign = np.argmax(embeddings @ dirs.T, axis=1)
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


def contribution_curves(similarities: np.ndarray, tau: float) -> ContributionCurves:
    """Contribution curves for one anchor's negatives.

    Weights are computed with the maximum similarity shifted out of the
    exponent, which cancels under max-normalization and avoids underflow at
    small temperatures.
    """
    s = np.asarray(similarities, dtype=np.float64).ravel()
    if s.size == 0:
        raise ValueError("need at least one negative similarity")
    if not (s.min() >= -1.0 and s.max() <= 1.0):  # also refuses NaN
        raise ValueError("similarities must lie in [-1, 1]")
    if not tau > 0:
        raise ValueError(f"temperature must be > 0, got {tau}")

    individual = np.exp((_BIN_CENTERS - _BIN_CENTERS.max()) / tau)
    individual /= individual.max()

    idx = _bin_of(s)
    hist = np.bincount(idx, minlength=N_SIM_BINS)
    weights = np.exp((s - s.max()) / tau)
    cumulative = np.bincount(idx, weights=weights, minlength=N_SIM_BINS)
    cumulative /= cumulative.max()
    return ContributionCurves(individual=individual, cumulative=cumulative, histogram=hist)


def aggregate_contribution_curves(S: np.ndarray, tau: float) -> ContributionCurves:
    """Curves of a square similarity matrix: every off-diagonal similarity
    of every anchor pooled into one curve set."""
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] < 2:
        raise ValueError("need a square similarity matrix with N >= 2")
    return contribution_curves(S[~np.eye(S.shape[0], dtype=bool)], tau)


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
