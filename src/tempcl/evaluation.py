"""Embedding evaluation: kNN classification and linear probes, each scored
on the test set as (metric, scope, value) rows, the rows of metrics.csv:
the overall accuracy, the mean class accuracy of the head, mid and tail
groups, then each class's accuracy.

kNN operates on l2-normalized embeddings; for unit vectors ranking by
ascending Euclidean distance equals ranking by descending cosine
similarity, and the implementation uses the cosine form.  Tie handling is
fully deterministic: neighbours are ranked by (descending similarity,
ascending train index); vote ties go to the tied class whose nearest
voting member is closest, then to the smallest class id.

Ranking is partition-then-repair: one row-wise ``argpartition`` of the
similarity matrix picks k candidates per test row, and a lexsort by
(similarity desc, index asc) orders them.  The candidates are the exact top
k unless the k-th similarity also occurs outside them, in which case the
partition may have kept a larger train index than the rule allows; those
rare rows are re-ranked with a full stable sort.  One ranking serves every
k: the exact top k under that order is the first k columns of the exact
top max(k), so the similarity product is formed, checked and ranked once
and each k votes on its prefix.  Votes for all rows are counted at once.
"""

from dataclasses import dataclass

import numpy as np

from tempcl.data import _class_draws, head_mid_tail_split
from tempcl.loss import _check_unit_rows

__all__ = [
    "ProbeConfig",
    "knn_classify",
    "knn_report",
    "fewshot_subset",
    "linear_probe",
]


@dataclass(frozen=True)
class ProbeConfig:
    """Linear-probe settings: FS_LP trains on a balanced few-shot subset,
    LT_LP on the full long-tail training set."""

    mode: str = "LT_LP"
    epochs: int = 500
    lr: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("FS_LP", "LT_LP"):
            raise ValueError(f"probe mode must be FS_LP or LT_LP, got {self.mode!r}")
        if self.epochs < 1 or self.lr <= 0:
            raise ValueError("need epochs >= 1 and lr > 0")


def _rank_neighbours(sims: np.ndarray, k: int) -> tuple:
    """(indices, similarities) of each row's k nearest train rows, ordered
    by (similarity desc, train index asc)."""
    m = sims.shape[1]
    idx = np.argpartition(sims, m - k, axis=1)[:, m - k:]
    top = np.take_along_axis(sims, idx, axis=1)
    order = np.lexsort((idx, -top), axis=1)
    idx = np.take_along_axis(idx, order, axis=1)
    top = np.take_along_axis(top, order, axis=1)
    # a k-th similarity shared with a row outside the candidates: re-rank fully
    for i in np.flatnonzero((sims >= top[:, -1:]).sum(axis=1) > k):
        idx[i] = np.argsort(-sims[i], kind="stable")[:k]
        top[i] = sims[i, idx[i]]
    return idx, top


def knn_classify(
    train_emb: np.ndarray,
    train_labels: np.ndarray,
    test_emb: np.ndarray,
    k_values,
) -> list:
    """Majority vote over the k nearest training embeddings per test row:
    one prediction array for each k in ``k_values``, in order."""
    train_emb = np.asarray(train_emb, dtype=np.float64)
    test_emb = np.asarray(test_emb, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    if train_emb.shape[1] != test_emb.shape[1]:
        raise ValueError(
            f"dimension mismatch: train D={train_emb.shape[1]}, test D={test_emb.shape[1]}"
        )
    for k in k_values:
        if not (1 <= k <= train_emb.shape[0]):
            raise ValueError(f"k={k} outside [1, {train_emb.shape[0]}]")
    _check_unit_rows(train_emb, "train embeddings")
    _check_unit_rows(test_emb, "test embeddings")
    idx, top = _rank_neighbours(test_emb @ train_emb.T, max(k_values))
    votes = train_labels[idx]
    rows = np.arange(idx.shape[0])
    shape = (idx.shape[0], int(train_labels.max()) + 1)
    preds = []
    for k in k_values:  # the first k of the ranked neighbours
        counts = np.zeros(shape, dtype=np.int64)
        nearest = np.full(shape, -np.inf)
        # last to first, so each class keeps the similarity of its nearest member
        for j in reversed(range(k)):
            counts[rows, votes[:, j]] += 1
            nearest[rows, votes[:, j]] = top[:, j]
        # among the most-voted classes: the nearest member, then the smaller id
        tied = counts == counts.max(axis=1, keepdims=True)
        preds.append(np.argmax(np.where(tied, nearest, -np.inf), axis=1))
    return preds


def _rows(name, true_labels, pred, partition, n_classes) -> list:
    """The (metric, scope, value) rows of one metric's predictions; each
    group of ``partition`` (class -> group id) scores its tested classes."""
    hits = pred == true_labels
    # sums of 0/1 are exact, so each class mean equals hits[mask].mean()
    sizes = np.bincount(true_labels, minlength=n_classes)
    per_class = np.full(n_classes, np.nan)
    np.divide(np.bincount(true_labels, weights=hits, minlength=n_classes), sizes,
              out=per_class, where=sizes > 0)
    rows = [(name, "all", float(hits.mean()))]
    groups = np.asarray(partition)[:n_classes]
    accs = per_class[:groups.size]
    for g, group in enumerate(("head", "mid", "tail")):
        mine = accs[(groups == g) & ~np.isnan(accs)]
        rows.append((name, group, float(mine.mean()) if mine.size else float("nan")))
    return rows + [(name, f"class_{k}", float(acc)) for k, acc in enumerate(per_class)]


def knn_report(
    train_emb,
    train_labels,
    test_emb,
    test_labels,
    k_values=(1, 10),
    partition: np.ndarray | None = None,
) -> list:
    """Rows of the kNN accuracy at each requested k (metric ``knn<k>``), in
    order, on the (balanced) test set."""
    train_labels = np.asarray(train_labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    K = int(max(train_labels.max(), test_labels.max())) + 1
    if partition is None:
        partition = head_mid_tail_split(np.bincount(train_labels, minlength=K))
    preds = knn_classify(train_emb, train_labels, test_emb, k_values)
    return [row for k, pred in zip(k_values, preds)
            for row in _rows(f"knn{k}", test_labels, pred, partition, K)]


def fewshot_subset(labels, seed: int) -> np.ndarray:
    """Class-balanced index subset: exactly min-class-size samples per
    class, drawn by a per-class seeded shuffle."""
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels)
    if counts.min() == 0:
        raise ValueError("every class must be non-empty")
    return np.concatenate(_class_draws(labels, range(len(counts)),
                                       [counts.min()] * len(counts), seed))


def _probe_grads(W, b, X, onehot):
    """Gradients (dW, db) of the mean softmax cross-entropy of a linear
    classifier.  The softmax and then the logit gradient are built in place
    in one buffer."""
    P = X @ W
    P += b
    P -= P.max(axis=1, keepdims=True)
    np.exp(P, out=P)
    P /= P.sum(axis=1, keepdims=True)
    P -= onehot
    P /= X.shape[0]
    return X.T @ P, P.sum(axis=0)


def linear_probe(
    embeddings,
    labels,
    test_emb,
    test_labels,
    cfg: ProbeConfig,
    partition: np.ndarray,
) -> list:
    """Multinomial logistic regression on frozen embeddings by full-batch
    gradient descent; the rows of its balanced-test accuracy under the
    metric name 'fs_lp' or 'lt_lp'."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    test_emb = np.asarray(test_emb, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    K = int(max(labels.max(), test_labels.max())) + 1

    if cfg.mode == "FS_LP":
        idx = fewshot_subset(labels, cfg.seed)
        X, y = embeddings[idx], labels[idx]
    else:
        X, y = embeddings, labels
    if np.unique(y).size < 2:
        raise ValueError("degenerate training data: only one class present")

    D = X.shape[1]
    W = np.zeros((D, K))
    b = np.zeros(K)
    onehot = np.zeros((X.shape[0], K))
    onehot[np.arange(X.shape[0]), y] = 1.0
    for _ in range(cfg.epochs):
        dW, db = _probe_grads(W, b, X, onehot)
        dW *= cfg.lr
        db *= cfg.lr
        W -= dW
        b -= db

    pred = np.argmax(test_emb @ W + b, axis=1)
    name = "fs_lp" if cfg.mode == "FS_LP" else "lt_lp"
    return _rows(name, test_labels, pred, partition, K)
