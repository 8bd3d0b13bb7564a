"""Long-tail dataset construction and ingestion.

Covers exponential-decay class sizing, deterministic subsampling of a
balanced dataset into a long-tail one, a synthetic Gaussian mixture with
unit-sphere class means, CIFAR-10/100 binary ingestion with bit-exact
re-serialization, view augmentation, and the head/mid/tail class split
used by the evaluation breakdowns.
"""

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DataFormatError",
    "LongTailDataset",
    "AugmentationPolicy",
    "GroupPartition",
    "longtail_sizes",
    "subsample_longtail",
    "synth_mixture",
    "synth_balanced",
    "load_cifar10_bin",
    "load_cifar100_bin",
    "serialize_cifar10_bin",
    "serialize_cifar100_bin",
    "channel_stats",
    "standardize_pixels",
    "destandardize_pixels",
    "augment",
    "augment_batch",
    "head_mid_tail_split",
    "save_dataset",
    "load_dataset",
]

CIFAR10_RECORD = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes
CIFAR100_RECORD = 3074  # coarse byte + fine byte + pixels
_PIXELS = 3072

TCLD_MAGIC = b"TCLD"


class DataFormatError(ValueError):
    """Raised for malformed dataset files."""


@dataclass(frozen=True)
class LongTailDataset:
    """A feature matrix with integer class labels and per-class counts.

    ``class_sizes[k]`` is the number of samples labelled ``k``.  The
    long-tail constructors order classes by decreasing frequency (class 0
    largest); raw file loaders keep the file's labelling.
    """

    features: np.ndarray
    labels: np.ndarray
    class_sizes: np.ndarray
    provenance: str = ""
    coarse_labels: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "class_sizes", np.asarray(self.class_sizes, dtype=np.int64))
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be one per feature row")
        K = len(self.class_sizes)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= K):
            raise ValueError(f"labels must lie in [0, {K})")
        hist = np.bincount(self.labels, minlength=K)
        if not np.array_equal(hist, self.class_sizes):
            raise ValueError("class_sizes does not match the label histogram")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.class_sizes)

    @property
    def imbalance_ratio(self) -> float:
        """Size of the largest class over the smallest (first over last)."""
        if self.class_sizes[-1] <= 0:
            raise ValueError("imbalance ratio undefined: last class is empty")
        return float(self.class_sizes[0]) / float(self.class_sizes[-1])


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def longtail_sizes(K: int, n_max: int, imb: float) -> np.ndarray:
    """Exponentially decaying class sizes.

    sizes[k] = max(1, round(n_max * imb ** (-k / (K - 1)))), so the first
    class keeps ``n_max`` samples and the last roughly ``n_max / imb``.
    """
    if K < 2:
        raise ValueError(f"need at least 2 classes, got K={K}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if imb < 1.0:
        raise ValueError(f"imbalance ratio must be >= 1, got {imb}")
    sizes = [max(1, _round_half_up(n_max * imb ** (-k / (K - 1)))) for k in range(K)]
    return np.array(sizes, dtype=np.int64)


def subsample_longtail(
    balanced: LongTailDataset,
    sizes,
    seed: int,
    class_permutation_seed: int | None = None,
) -> LongTailDataset:
    """Retain ``sizes[k]`` samples of each class under a seeded shuffle.

    When ``class_permutation_seed`` is given, a seeded permutation decides
    which source class becomes output class k; output classes are always
    labelled so that class 0 receives ``sizes[0]`` samples.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    K = balanced.num_classes
    if len(sizes) != K:
        raise ValueError(f"sizes has length {len(sizes)}, dataset has {K} classes")
    if class_permutation_seed is None:
        perm = np.arange(K)
    else:
        perm = np.random.default_rng(
            np.random.SeedSequence([int(class_permutation_seed)])
        ).permutation(K)

    keep = []
    new_labels = []
    for k in range(K):
        src = int(perm[k])
        idx = np.flatnonzero(balanced.labels == src)
        if sizes[k] > idx.size:
            raise ValueError(
                f"requested {sizes[k]} samples of class {src} but only {idx.size} available"
            )
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), src]))
        chosen = idx[rng.permutation(idx.size)][: sizes[k]]
        keep.append(chosen)
        new_labels.append(np.full(sizes[k], k, dtype=np.int64))
    keep = np.concatenate(keep)
    coarse = None if balanced.coarse_labels is None else balanced.coarse_labels[keep]
    return LongTailDataset(
        features=balanced.features[keep],
        labels=np.concatenate(new_labels),
        class_sizes=sizes,
        provenance=f"{balanced.provenance}|longtail(seed={seed})",
        coarse_labels=coarse,
    )


def _class_means(K: int, D: int, class_separation: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    means = rng.standard_normal((K, D))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    return means * class_separation


def synth_mixture(
    K: int,
    D: int,
    n_max: int,
    imb: float,
    class_separation: float = 1.0,
    within_sigma: float = 0.25,
    seed: int = 0,
) -> LongTailDataset:
    """Long-tail Gaussian mixture with unit-sphere class means.

    Class k contributes ``longtail_sizes(K, n_max, imb)[k]`` samples drawn
    as mean_k + within_sigma * N(0, I).  Deterministic in ``seed``.
    """
    if K < 2 or D < 2:
        raise ValueError(f"need K >= 2 and D >= 2, got K={K}, D={D}")
    if class_separation <= 0 or within_sigma < 0:
        raise ValueError("class_separation must be > 0 and within_sigma >= 0")
    means = _class_means(K, D, class_separation, seed)
    sizes = longtail_sizes(K, n_max, imb)
    feats = []
    labels = []
    for k in range(K):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1, k]))
        noise = rng.standard_normal((int(sizes[k]), D))
        feats.append(means[k] + within_sigma * noise)
        labels.append(np.full(int(sizes[k]), k, dtype=np.int64))
    return LongTailDataset(
        features=np.vstack(feats),
        labels=np.concatenate(labels),
        class_sizes=sizes,
        provenance=f"synth(K={K},D={D},n_max={n_max},imb={imb:g},seed={seed})",
    )


def synth_balanced(
    K: int,
    D: int,
    n_per_class: int,
    class_separation: float = 1.0,
    within_sigma: float = 0.25,
    seed: int = 0,
) -> LongTailDataset:
    """Class-balanced companion set sharing the class means of
    :func:`synth_mixture` for the same (K, D, class_separation, seed)."""
    if K < 2 or D < 2 or n_per_class < 1:
        raise ValueError("need K >= 2, D >= 2, n_per_class >= 1")
    means = _class_means(K, D, class_separation, seed)
    feats = []
    labels = []
    for k in range(K):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2, k]))
        noise = rng.standard_normal((n_per_class, D))
        feats.append(means[k] + within_sigma * noise)
        labels.append(np.full(n_per_class, k, dtype=np.int64))
    return LongTailDataset(
        features=np.vstack(feats),
        labels=np.concatenate(labels),
        class_sizes=np.full(K, n_per_class, dtype=np.int64),
        provenance=f"synth-balanced(K={K},D={D},n={n_per_class},seed={seed})",
    )


def _standardize(pixels01: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel standardization of [0, 1] pixel rows; returns
    (features, mean, std) with degenerate channels falling back to std 1."""
    planes = pixels01.reshape(-1, 3, 1024)
    mean = planes.mean(axis=(0, 2))
    std = planes.std(axis=(0, 2))
    std = np.where(std > 0.0, std, 1.0)
    feats = (planes - mean[None, :, None]) / std[None, :, None]
    return feats.reshape(-1, _PIXELS), mean, std


def _stats_tag(mean: np.ndarray, std: np.ndarray) -> str:
    ms = ",".join(repr(float(v)) for v in mean)
    ss = ",".join(repr(float(v)) for v in std)
    return f"mean=({ms})|std=({ss})"


def channel_stats(provenance: str) -> tuple[np.ndarray, np.ndarray]:
    """Recover the per-channel standardization constants recorded by the
    CIFAR loaders in a dataset's provenance string."""
    try:
        mean_part = provenance.split("mean=(")[1].split(")")[0]
        std_part = provenance.split("std=(")[1].split(")")[0]
    except IndexError:
        raise ValueError(f"no channel statistics recorded in provenance {provenance!r}")
    mean = np.array([float(v) for v in mean_part.split(",")])
    std = np.array([float(v) for v in std_part.split(",")])
    return mean, std


def standardize_pixels(pixels01: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    planes = np.asarray(pixels01, dtype=np.float64).reshape(-1, 3, 1024)
    return ((planes - mean[None, :, None]) / std[None, :, None]).reshape(-1, _PIXELS)

def destandardize_pixels(features: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    planes = np.asarray(features, dtype=np.float64).reshape(-1, 3, 1024)
    return (planes * std[None, :, None] + mean[None, :, None]).reshape(-1, _PIXELS)


def _read_records(path, record_size: int) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) == 0 or len(raw) % record_size != 0:
        raise DataFormatError(
            f"{path}: length {len(raw)} not a multiple of {record_size}"
        )
    return np.frombuffer(raw, dtype=np.uint8).reshape(-1, record_size)


def _check_labels(raw_labels: np.ndarray, limit: int, record_size: int, offset_in_record: int, path) -> None:
    bad = np.flatnonzero(raw_labels > limit)
    if bad.size:
        i = int(bad[0])
        raise DataFormatError(
            f"{path}: label byte {raw_labels[i]} out of range [0, {limit}] "
            f"at offset {i * record_size + offset_in_record}"
        )


def load_cifar10_bin(paths) -> LongTailDataset:
    """Parse CIFAR-10 binary batches (3073-byte records: label byte then
    3072 channel-major pixel bytes).

    Pixels are scaled to [0, 1] and standardized per channel; the
    standardization constants are recorded in the provenance string so the
    dataset can be re-serialized bit-exactly.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    chunks = []
    for p in paths:
        recs = _read_records(p, CIFAR10_RECORD)
        _check_labels(recs[:, 0], 9, CIFAR10_RECORD, 0, p)
        chunks.append(recs)
    recs = np.vstack(chunks)
    labels = recs[:, 0].astype(np.int64)
    feats, mean, std = _standardize(recs[:, 1:].astype(np.float64) / 255.0)
    K = int(labels.max()) + 1
    names = ",".join(Path(p).name for p in paths)
    return LongTailDataset(
        features=feats,
        labels=labels,
        class_sizes=np.bincount(labels, minlength=K),
        provenance=f"cifar10-bin({names})|{_stats_tag(mean, std)}",
    )


def load_cifar100_bin(path) -> LongTailDataset:
    """Parse a CIFAR-100 binary file (3074-byte records: coarse byte, fine
    byte, 3072 pixel bytes).  Fine labels become the dataset labels; coarse
    labels are retained for re-serialization."""
    recs = _read_records(path, CIFAR100_RECORD)
    _check_labels(recs[:, 0], 19, CIFAR100_RECORD, 0, path)
    _check_labels(recs[:, 1], 99, CIFAR100_RECORD, 1, path)
    labels = recs[:, 1].astype(np.int64)
    feats, mean, std = _standardize(recs[:, 2:].astype(np.float64) / 255.0)
    K = int(labels.max()) + 1
    return LongTailDataset(
        features=feats,
        labels=labels,
        class_sizes=np.bincount(labels, minlength=K),
        provenance=f"cifar100-bin({Path(path).name})|{_stats_tag(mean, std)}",
        coarse_labels=recs[:, 0].astype(np.int64),
    )


def _pixel_bytes(ds: LongTailDataset) -> np.ndarray:
    mean, std = channel_stats(ds.provenance)
    px = destandardize_pixels(ds.features, mean, std)
    return np.clip(np.rint(px * 255.0), 0, 255).astype(np.uint8)


def serialize_cifar10_bin(ds: LongTailDataset) -> bytes:
    """Inverse of :func:`load_cifar10_bin`: byte-identical for datasets it
    produced."""
    px = _pixel_bytes(ds)
    out = np.empty((ds.n, CIFAR10_RECORD), dtype=np.uint8)
    out[:, 0] = ds.labels
    out[:, 1:] = px
    return out.tobytes()


def serialize_cifar100_bin(ds: LongTailDataset) -> bytes:
    if ds.coarse_labels is None:
        raise ValueError("dataset carries no coarse labels; not a CIFAR-100 parse")
    px = _pixel_bytes(ds)
    out = np.empty((ds.n, CIFAR100_RECORD), dtype=np.uint8)
    out[:, 0] = ds.coarse_labels
    out[:, 1] = ds.labels
    out[:, 2:] = px
    return out.tobytes()


@dataclass(frozen=True)
class AugmentationPolicy:
    """Random view generation parameters.

    ``embedding_noise`` adds isotropic Gaussian noise and independent
    coordinate dropout to a feature row.  ``pixel`` operates on [0, 1]
    pixel rows of shape 3x32x32: horizontal flip, random crop after
    reflect-padding, Gaussian noise, then a clamp back to [0, 1]
    (standardization, when used, happens downstream).
    """

    mode: str = "embedding_noise"
    noise_sigma: float = 0.0
    dropout_prob: float = 0.0
    flip_prob: float = 0.5
    crop_padding: int = 0
    pixel_noise_sigma: float = 0.0

    def __post_init__(self):
        if self.mode not in ("embedding_noise", "pixel"):
            raise ValueError(f"unknown augmentation mode {self.mode!r}")
        if self.noise_sigma < 0 or self.pixel_noise_sigma < 0:
            raise ValueError("noise sigmas must be >= 0")
        if not (0.0 <= self.dropout_prob < 1.0):
            raise ValueError("dropout_prob must be in [0, 1)")
        if not (0.0 <= self.flip_prob <= 1.0):
            raise ValueError("flip_prob must be in [0, 1]")
        if self.crop_padding < 0:
            raise ValueError("crop_padding must be >= 0")


def augment(policy: AugmentationPolicy, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One random view of a single feature row; deterministic in the
    generator state."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"augment expects a single row, got shape {x.shape}")
    return augment_batch(policy, x[None], rng)[0]


def _augment_pixel_row(policy: AugmentationPolicy, x: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    img = x.reshape(3, 32, 32)
    if rng.random() < policy.flip_prob:
        img = img[:, :, ::-1]
    p = policy.crop_padding
    if p > 0:
        padded = np.pad(img, ((0, 0), (p, p), (p, p)), mode="reflect")
        r, c = rng.integers(0, 2 * p + 1, size=2)
        img = padded[:, r : r + 32, c : c + 32]
    img = np.ascontiguousarray(img, dtype=np.float64)
    if policy.pixel_noise_sigma > 0:
        img += policy.pixel_noise_sigma * rng.standard_normal(img.shape)
    return np.clip(img, 0.0, 1.0).reshape(_PIXELS)


def augment_batch(policy: AugmentationPolicy, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized augmentation of a feature matrix (embedding mode) or a
    row-by-row application (pixel mode), consuming ``rng`` sequentially."""
    X = np.asarray(X, dtype=np.float64)
    if policy.mode == "embedding_noise":
        Y = X.copy()
        if policy.noise_sigma > 0:
            Y += policy.noise_sigma * rng.standard_normal(X.shape)
        if policy.dropout_prob > 0:
            Y *= rng.random(X.shape) >= policy.dropout_prob
        return Y
    if X.shape[1] != _PIXELS:
        raise ValueError(f"pixel augmentation needs D={_PIXELS}, got {X.shape[1]}")
    return np.stack([_augment_pixel_row(policy, row, rng) for row in X])


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint head/mid/tail class-id sets covering all classes."""

    head: frozenset
    mid: frozenset
    tail: frozenset

    def __post_init__(self):
        object.__setattr__(self, "head", frozenset(int(c) for c in self.head))
        object.__setattr__(self, "mid", frozenset(int(c) for c in self.mid))
        object.__setattr__(self, "tail", frozenset(int(c) for c in self.tail))
        groups = [self.head, self.mid, self.tail]
        total = sum(len(g) for g in groups)
        union = self.head | self.mid | self.tail
        if len(union) != total:
            raise ValueError("head/mid/tail sets must be disjoint")


def head_mid_tail_split(class_sizes) -> GroupPartition:
    """Split classes into head/mid/tail groups by descending size.

    10 classes split 4/3/3 and 100 classes 34/33/33 (the reference splits);
    other K put roughly 40% of classes in the head and divide the rest
    evenly, mid taking any odd remainder.  Size ties are broken by class id.
    """
    sizes = np.asarray(class_sizes, dtype=np.int64)
    K = len(sizes)
    if K < 3:
        raise ValueError(f"need at least 3 classes to split, got {K}")
    if K == 10:
        n_head, n_mid = 4, 3
    elif K == 100:
        n_head, n_mid = 34, 33
    else:
        n_head = max(1, min(K - 2, _round_half_up(K * 0.4)))
        rem = K - n_head
        n_mid = (rem + 1) // 2
    order = np.lexsort((np.arange(K), -sizes))
    head = order[:n_head]
    mid = order[n_head : n_head + n_mid]
    tail = order[n_head + n_mid :]
    return GroupPartition(head=frozenset(head), mid=frozenset(mid), tail=frozenset(tail))


def save_dataset(ds: LongTailDataset, path) -> None:
    """Write the flat binary dataset format: 16-byte header (magic "TCLD",
    u32 K, u32 D, u32 n, little-endian) then n records of u16 label +
    D little-endian float32 features."""
    if ds.num_classes > 0xFFFF:
        raise ValueError("too many classes for u16 labels")
    rec_dtype = np.dtype([("label", "<u2"), ("feat", "<f4", (ds.dim,))])
    recs = np.empty(ds.n, dtype=rec_dtype)
    recs["label"] = ds.labels.astype("<u2")
    recs["feat"] = ds.features.astype("<f4")
    header = TCLD_MAGIC + struct.pack("<III", ds.num_classes, ds.dim, ds.n)
    Path(path).write_bytes(header + recs.tobytes())


def load_dataset(path) -> LongTailDataset:
    """Read a dataset written by :func:`save_dataset`."""
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != TCLD_MAGIC:
        raise DataFormatError(f"{path}: missing TCLD header")
    K, D, n = struct.unpack("<III", raw[4:16])
    rec_dtype = np.dtype([("label", "<u2"), ("feat", "<f4", (D,))])
    expected = 16 + n * rec_dtype.itemsize
    if len(raw) != expected:
        raise DataFormatError(
            f"{path}: expected {expected} bytes for n={n}, D={D}, found {len(raw)}"
        )
    recs = np.frombuffer(raw[16:], dtype=rec_dtype)
    labels = recs["label"].astype(np.int64)
    if labels.size and labels.max() >= K:
        raise DataFormatError(f"{path}: label {labels.max()} exceeds K={K}")
    return LongTailDataset(
        features=recs["feat"].astype(np.float64),
        labels=labels,
        class_sizes=np.bincount(labels, minlength=K),
        provenance=f"tcld({Path(path).name})",
    )
