"""Embedding evaluation: kNN classification, linear probes, and per-group
accuracy breakdowns.

kNN operates on l2-normalized embeddings; for unit vectors ranking by
ascending Euclidean distance equals ranking by descending cosine
similarity, and the implementation uses the cosine form.  Tie handling is
fully deterministic: neighbours are ranked by (descending similarity,
ascending train index); vote ties go to the tied class whose nearest
voting member is closest, then to the smallest class id.
"""

from dataclasses import dataclass

import numpy as np

from tempcl.data import GroupPartition, head_mid_tail_split
from tempcl.loss import _check_unit_rows

__all__ = [
    "ProbeConfig",
    "MetricBreakdown",
    "EvalReport",
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


@dataclass(frozen=True)
class MetricBreakdown:
    """One metric with its per-class and head/mid/tail decomposition."""

    overall: float
    per_class: np.ndarray
    group_means: dict


@dataclass
class EvalReport:
    """Named metric breakdowns from one evaluation snapshot."""

    metrics: dict

    @property
    def knn1(self):
        return self.metrics["knn1"].overall if "knn1" in self.metrics else None

    @property
    def knn10(self):
        return self.metrics["knn10"].overall if "knn10" in self.metrics else None

    @property
    def probe_accuracy(self):
        for name in ("fs_lp", "lt_lp"):
            if name in self.metrics:
                return self.metrics[name].overall
        return None

    def rows(self):
        """(metric, scope, value) triples: overall, groups, then classes."""
        out = []
        for name, m in self.metrics.items():
            out.append((name, "all", m.overall))
            for g in ("head", "mid", "tail"):
                out.append((name, g, m.group_means[g]))
            for k, acc in enumerate(m.per_class):
                out.append((name, f"class_{k}", float(acc)))
        return out

    def merged_with(self, other: "EvalReport") -> "EvalReport":
        merged = dict(self.metrics)
        merged.update(other.metrics)
        return EvalReport(metrics=merged)


def _vote(row_sims: np.ndarray, train_labels: np.ndarray, k: int) -> int:
    order = np.argsort(-row_sims, kind="stable")[:k]
    votes = train_labels[order]
    counts = np.bincount(votes)
    best = counts.max()
    tied = np.flatnonzero(counts == best)
    if tied.size == 1:
        return int(tied[0])
    # nearest voting member decides; similarity ties fall to the smaller id
    choices = []
    for c in tied:
        pos = int(np.flatnonzero(votes == c)[0])
        choices.append((-row_sims[order[pos]], int(c)))
    return min(choices)[1]


def knn_classify(
    train_emb: np.ndarray,
    train_labels: np.ndarray,
    test_emb: np.ndarray,
    k: int,
) -> np.ndarray:
    """Majority vote over the k nearest training embeddings per test row."""
    train_emb = np.asarray(train_emb, dtype=np.float64)
    test_emb = np.asarray(test_emb, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    if train_emb.shape[1] != test_emb.shape[1]:
        raise ValueError(
            f"dimension mismatch: train D={train_emb.shape[1]}, test D={test_emb.shape[1]}"
        )
    if not (1 <= k <= train_emb.shape[0]):
        raise ValueError(f"k={k} outside [1, {train_emb.shape[0]}]")
    _check_unit_rows(train_emb, "train embeddings")
    _check_unit_rows(test_emb, "test embeddings")
    sims = test_emb @ train_emb.T
    return np.array([_vote(s, train_labels, k) for s in sims], dtype=np.int64)


def _breakdown(
    true_labels: np.ndarray, pred: np.ndarray, partition: GroupPartition, n_classes: int
) -> MetricBreakdown:
    hits = pred == true_labels
    per_class = np.full(n_classes, np.nan)
    for c in range(n_classes):
        mask = true_labels == c
        if mask.any():
            per_class[c] = hits[mask].mean()
    groups = {}
    for name, ids in (("head", partition.head), ("mid", partition.mid), ("tail", partition.tail)):
        accs = [per_class[c] for c in sorted(ids) if c < n_classes and not np.isnan(per_class[c])]
        groups[name] = float(np.mean(accs)) if accs else float("nan")
    return MetricBreakdown(overall=float(hits.mean()), per_class=per_class, group_means=groups)


def knn_report(
    train_emb,
    train_labels,
    test_emb,
    test_labels,
    k_values=(1, 10),
    partition: GroupPartition | None = None,
) -> EvalReport:
    """kNN accuracy at each requested k, overall and per head/mid/tail
    group, on the (balanced) test set."""
    train_labels = np.asarray(train_labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    K = int(max(train_labels.max(), test_labels.max())) + 1
    if partition is None:
        partition = head_mid_tail_split(np.bincount(train_labels, minlength=K))
    metrics = {}
    for k in k_values:
        pred = knn_classify(train_emb, train_labels, test_emb, k)
        metrics[f"knn{k}"] = _breakdown(test_labels, pred, partition, K)
    return EvalReport(metrics=metrics)


def fewshot_subset(labels, seed: int) -> np.ndarray:
    """Class-balanced index subset: exactly min-class-size samples per
    class, drawn by a per-class seeded shuffle."""
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels)
    if counts.min() == 0:
        raise ValueError("every class must be non-empty")
    shots = int(counts.min())
    picks = []
    for c in range(len(counts)):
        idx = np.flatnonzero(labels == c)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(c)]))
        picks.append(idx[rng.permutation(idx.size)][:shots])
    return np.concatenate(picks)


def _probe_loss_grad(W, b, X, onehot):
    """Mean softmax cross-entropy and its gradients for a linear classifier."""
    logits = X @ W + b
    logits = logits - logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    P = expl / expl.sum(axis=1, keepdims=True)
    n = X.shape[0]
    loss = -np.log(np.maximum(P[onehot.astype(bool)], 1e-300)).mean()
    G = (P - onehot) / n
    return loss, X.T @ G, G.sum(axis=0)


def linear_probe(
    embeddings,
    labels,
    test_emb,
    test_labels,
    cfg: ProbeConfig,
    partition: GroupPartition | None = None,
) -> EvalReport:
    """Multinomial logistic regression on frozen embeddings by full-batch
    gradient descent; reports balanced-test accuracy with per-class and
    group breakdowns under the metric name 'fs_lp' or 'lt_lp'."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    test_emb = np.asarray(test_emb, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    K = int(max(labels.max(), test_labels.max())) + 1
    if partition is None:
        partition = head_mid_tail_split(np.bincount(labels, minlength=K))

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
        _, dW, db = _probe_loss_grad(W, b, X, onehot)
        W -= cfg.lr * dW
        b -= cfg.lr * db

    pred = np.argmax(test_emb @ W + b, axis=1)
    name = "fs_lp" if cfg.mode == "FS_LP" else "lt_lp"
    return EvalReport(metrics={name: _breakdown(test_labels, pred, partition, K)})
