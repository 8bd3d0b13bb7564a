"""Long-tail dataset construction and ingestion.

Covers exponential-decay class sizing, deterministic subsampling of a
balanced dataset into a long-tail one, a synthetic Gaussian mixture with
unit-sphere class means, CIFAR-10/100 binary ingestion (CIFAR-10 with
bit-exact re-serialization), view augmentation, and the head/mid/tail
class split used by the evaluation breakdowns.

A dataset holds its ``num_classes``; its ``class_sizes`` are counted from
its labels.  A CIFAR parse keeps its per-channel standardization
constants (``channel_stats``): they write a CIFAR-10 parse back byte for
byte and let :func:`augment_batch` make pixel views of its standardized
rows.  A parse holds one float64 pixel buffer and keeps NumPy's own std
reduction order.  A CIFAR-100 record's coarse byte is range-checked and
dropped.
"""

import math
import os
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

__all__ = [
    "DataFormatError",
    "LongTailDataset",
    "AugmentationPolicy",
    "longtail_sizes",
    "subsample_longtail",
    "synth_mixture",
    "load_cifar10_bin",
    "load_cifar100_bin",
    "serialize_cifar10_bin",
    "augment_batch",
    "head_mid_tail_split",
    "save_dataset",
    "load_dataset",
    "write_atomic",
]

_PIXELS = 3072  # 3 * 32 * 32 channel-major pixel bytes of a CIFAR record
_SERIALIZE_ROWS = 256  # rows de-standardized at a time when writing CIFAR records

TCLD_MAGIC = b"TCLD"
_MAX_TCLD_DIM = (0x7FFFFFFF - 2) // 4  # NumPy sizes a record (u16 + D f32) by a C int


class DataFormatError(ValueError):
    """Raised for malformed dataset files."""


@dataclass(frozen=True)
class LongTailDataset:
    """A feature matrix with integer class labels in [0, ``num_classes``).

    ``class_sizes[k]``, counted from the labels, is the number of samples
    labelled ``k``.  The long-tail constructors order classes by
    decreasing frequency (class 0 largest); raw file loaders keep the
    file's labelling.  ``channel_stats`` is the (mean, std) pair of
    per-channel constants that standardized a CIFAR parse's pixels, and
    None for other data.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    channel_stats: tuple | None = None
    class_sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be one per feature row")
        K = self.num_classes
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= K):
            raise ValueError(f"labels must lie in [0, {K})")
        object.__setattr__(self, "class_sizes", np.bincount(self.labels, minlength=K))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


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


def _class_draws(labels, classes, sizes, seed: int) -> list:
    """For each class ``c`` of ``classes``, the indices of its first
    ``sizes[i]`` rows under a shuffle of its rows seeded by (seed, c)."""
    draws = []
    for c, size in zip(classes, sizes):
        idx = np.flatnonzero(labels == c)
        if size > idx.size:
            raise ValueError(f"requested {size} samples of class {c} but only {idx.size} available")
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(c)]))
        draws.append(idx[rng.permutation(idx.size)][:size])
    return draws


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

    keep = np.concatenate(_class_draws(balanced.labels, perm, sizes, seed))
    return LongTailDataset(
        features=balanced.features[keep],
        labels=np.repeat(np.arange(K, dtype=np.int64), sizes),
        num_classes=K,
        channel_stats=balanced.channel_stats,
    )


def synth_mixture(
    K: int,
    D: int,
    n_max: int,
    imb: float,
    class_separation: float = 1.0,
    within_sigma: float = 0.25,
    seed: int = 0,
    stream: int = 1,
) -> LongTailDataset:
    """Long-tail Gaussian mixture with class means on the sphere of radius
    ``class_separation``.

    Class k draws ``longtail_sizes(K, n_max, imb)[k]`` rows mean_k +
    within_sigma * N(0, I) from the stream keyed (seed, stream, k).  The
    means come from stream 0, so every mixture of one (K, D,
    class_separation, seed) shares them: a balanced companion set is
    ``imb = 1`` on another ``stream``.  Deterministic in ``seed``.
    """
    if D < 2:
        raise ValueError(f"need D >= 2, got D={D}")
    if class_separation <= 0 or within_sigma < 0:
        raise ValueError("class_separation must be > 0 and within_sigma >= 0")
    sizes = longtail_sizes(K, n_max, imb)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    means = rng.standard_normal((K, D))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    means *= class_separation
    feats = []
    for k in range(K):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), stream, k]))
        feats.append(means[k] + within_sigma * rng.standard_normal((int(sizes[k]), D)))
    return LongTailDataset(features=np.vstack(feats), num_classes=K,
                           labels=np.repeat(np.arange(K, dtype=np.int64), sizes))


def _pixel_rows(mean: np.ndarray, std: np.ndarray) -> tuple:
    """The per-channel constants repeated to one (mean, std) value per pixel
    of a channel-major row: standardizing is (x - mean) / std and its
    inverse x * std + mean.  Whole rows broadcast faster than (3, 1)
    columns over channel planes."""
    return np.repeat(mean, 1024), np.repeat(std, 1024)


def _load_cifar_bin(paths, label_limits) -> LongTailDataset:
    """Parse CIFAR binary files whose records are one byte per label
    (``label_limits`` gives each byte's largest value; the last is the
    dataset label, a leading one the coarse label) then 3072 channel-major
    pixel bytes.  Pixels are scaled to [0, 1] and standardized per channel;
    the dataset keeps the constants as ``channel_stats``, so it can be
    re-serialized bit-exactly.  One float64 buffer holds the squared
    deviations, then the standardized pixels: the std sums them with the
    ``np.add.reduce`` of ``planes.std(axis=(0, 2))``, in its order and so to
    its bits (a per-channel sum would differ)."""
    if isinstance(paths, (str, Path)):
        paths = [paths]
    n_labels = len(label_limits)
    record = n_labels + _PIXELS
    chunks = []
    for p in paths:
        raw = Path(p).read_bytes()
        if len(raw) == 0 or len(raw) % record != 0:
            raise DataFormatError(f"{p}: length {len(raw)} not a multiple of {record}")
        recs = np.frombuffer(raw, dtype=np.uint8).reshape(-1, record)
        for j, limit in enumerate(label_limits):
            bad = np.flatnonzero(recs[:, j] > limit)
            if bad.size:
                i = int(bad[0])
                raise DataFormatError(
                    f"{p}: label byte {recs[i, j]} out of range [0, {limit}] "
                    f"at offset {i * record + j}"
                )
        chunks.append(recs)
    recs = chunks[0] if len(chunks) == 1 else np.vstack(chunks)
    labels = recs[:, n_labels - 1].astype(np.int64)
    pixels = np.divide(recs[:, n_labels:], 255.0)  # uint8 -> float64 is exact
    planes = pixels.reshape(-1, 3, 1024)
    mean = planes.mean(axis=(0, 2))
    pixels -= np.repeat(mean, 1024)
    np.square(pixels, out=pixels)
    std = np.sqrt(np.add.reduce(planes, axis=(0, 2)) / (planes.shape[0] * 1024))
    std = np.where(std > 0.0, std, 1.0)  # a constant channel keeps std 1
    row_mean, row_std = _pixel_rows(mean, std)
    np.divide(recs[:, n_labels:], 255.0, out=pixels)
    pixels -= row_mean
    pixels /= row_std
    return LongTailDataset(
        features=pixels,
        labels=labels,
        num_classes=int(labels.max()) + 1,
        channel_stats=(mean, std),
    )


def load_cifar10_bin(paths) -> LongTailDataset:
    """Parse CIFAR-10 binary batches (3073-byte records: label byte then
    3072 channel-major pixel bytes), concatenated in order."""
    return _load_cifar_bin(paths, (9,))


def load_cifar100_bin(paths) -> LongTailDataset:
    """Parse CIFAR-100 binary files (3074-byte records: coarse byte, fine
    byte, 3072 pixel bytes), concatenated in order.  Fine labels become the
    dataset labels; the coarse byte is range-checked, then dropped."""
    return _load_cifar_bin(paths, (19, 99))


def serialize_cifar10_bin(ds: LongTailDataset) -> bytes:
    """Inverse of :func:`load_cifar10_bin`: byte-identical for datasets it
    produced."""
    if ds.channel_stats is None:
        raise ValueError("dataset carries no channel statistics; not a CIFAR parse")
    row_mean, row_std = _pixel_rows(*ds.channel_stats)
    out = np.empty((ds.n, 1 + _PIXELS), dtype=np.uint8)
    out[:, 0] = ds.labels
    for start in range(0, ds.n, _SERIALIZE_ROWS):
        px = ds.features[start:start + _SERIALIZE_ROWS] * row_std
        px += row_mean
        px *= 255.0
        np.clip(np.rint(px, out=px), 0, 255, out=px)
        out[start:start + _SERIALIZE_ROWS, -_PIXELS:] = px
    return out.tobytes()


@dataclass(frozen=True)
class AugmentationPolicy:
    """Random view generation parameters; the ``data.*`` config keys of
    the same names, with the same defaults.

    ``embedding_noise`` adds isotropic Gaussian noise (``noise_sigma``) and
    independent coordinate dropout (``dropout_prob``) to a feature row.
    ``pixel`` makes a view of a standardized CIFAR row in [0, 1] pixel
    space: horizontal flip, random crop after reflect-padding, Gaussian
    noise, a clamp back to [0, 1], then standardization again.
    """

    augment: Literal["embedding_noise", "pixel"] = "embedding_noise"
    noise_sigma: float = 0.1
    dropout_prob: float = 0.0
    flip_prob: float = 0.5
    crop_padding: int = 4
    pixel_noise_sigma: float = 0.02

    def __post_init__(self):
        if self.augment not in ("embedding_noise", "pixel"):
            raise ValueError(f"unknown augmentation {self.augment!r}")
        if self.noise_sigma < 0 or self.pixel_noise_sigma < 0:
            raise ValueError("noise sigmas must be >= 0")
        if not (0.0 <= self.dropout_prob < 1.0):
            raise ValueError("dropout_prob must be in [0, 1)")
        if not (0.0 <= self.flip_prob <= 1.0):
            raise ValueError("flip_prob must be in [0, 1]")
        if self.crop_padding < 0:
            raise ValueError("crop_padding must be >= 0")


def _pixel_views(policy: AugmentationPolicy, X: np.ndarray, rng: np.random.Generator,
                 mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    n, p = X.shape[0], policy.crop_padding
    planes = X.reshape(n, 3, 1024)
    # reflect-padding is an index map, so each view gathers its crop and
    # flip straight from the standardized row
    pad = np.pad(np.arange(32), p, mode="reflect")
    views = np.empty((n, _PIXELS))
    noise = np.empty((n, _PIXELS)) if policy.pixel_noise_sigma > 0 else None
    for i in range(n):
        flip = rng.random() < policy.flip_prob
        r, c = rng.integers(0, 2 * p + 1, size=2) if p > 0 else (0, 0)
        if noise is not None:
            rng.standard_normal(out=noise[i])
        # the crop at column c of the flipped padded image
        cols = pad[2 * p - c : 2 * p - c + 32][::-1] if flip else pad[c : c + 32]
        index = (pad[r : r + 32, None] * 32 + cols).ravel()
        np.take(planes[i], index, axis=1, out=views[i].reshape(3, 1024), mode="clip")
    mean, std = _pixel_rows(mean, std)
    views *= std
    views += mean
    if noise is not None:
        noise *= policy.pixel_noise_sigma
        views += noise
    np.clip(views, 0.0, 1.0, out=views)
    views -= mean
    views /= std
    return views


def augment_batch(policy: AugmentationPolicy, X: np.ndarray, rng: np.random.Generator,
                  channel_stats: tuple | None = None) -> np.ndarray:
    """One random view of each row of ``X``, consuming ``rng``
    sequentially: vectorized in embedding mode.  In pixel mode the draws
    are per row, in row order (flip, then two crop offsets, then noise).
    Each view's flip and crop is one gather from its standardized row into
    a single batch buffer, in which destandardization, noise, the clamp
    and standardization then run in place.  Pixel mode needs the (mean,
    std) ``channel_stats`` that standardized the rows."""
    X = np.asarray(X, dtype=np.float64)
    if policy.augment == "embedding_noise":
        Y = X.copy()
        if policy.noise_sigma > 0:
            Y += policy.noise_sigma * rng.standard_normal(X.shape)
        if policy.dropout_prob > 0:
            Y *= rng.random(X.shape) >= policy.dropout_prob
        return Y
    if X.shape[1] != _PIXELS:
        raise ValueError(f"pixel augmentation needs D={_PIXELS}, got {X.shape[1]}")
    if channel_stats is None:
        raise ValueError("pixel augmentation needs the channel statistics of a CIFAR parse")
    return _pixel_views(policy, X, rng, *channel_stats)


def _by_size(class_sizes) -> np.ndarray:
    """Class ids by descending size, ties broken by the smaller id."""
    sizes = np.asarray(class_sizes, dtype=np.int64)
    return np.lexsort((np.arange(sizes.size), -sizes))


def head_mid_tail_split(class_sizes) -> np.ndarray:
    """Each class's group id (0 head, 1 mid, 2 tail), the groups taking
    classes in order of descending size.

    100 classes split 34/33/33 (the reference split); other K put roughly
    40% of classes in the head and divide the rest evenly, mid taking any
    odd remainder (10 classes split 4/3/3).  Size ties are broken by class
    id.
    """
    K = len(class_sizes)
    if K < 3:
        raise ValueError(f"need at least 3 classes to split, got {K}")
    if K == 100:
        n_head, n_mid = 34, 33
    else:
        n_head = max(1, min(K - 2, _round_half_up(K * 0.4)))
        n_mid = (K - n_head + 1) // 2
    groups = np.empty(K, dtype=np.int64)
    groups[_by_size(class_sizes)] = np.repeat([0, 1, 2], [n_head, n_mid, K - n_head - n_mid])
    return groups


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
    write_atomic(path, header + recs.tobytes())


def load_dataset(path) -> LongTailDataset:
    """Read a dataset written by :func:`save_dataset`.  A malformed file,
    or one holding a non-finite feature, raises :class:`DataFormatError`."""
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != TCLD_MAGIC:
        raise DataFormatError(f"{path}: missing TCLD header")
    K, D, n = struct.unpack("<III", raw[4:16])
    if K > 0xFFFF:  # before np.bincount sizes an array by it
        raise DataFormatError(f"{path}: K={K} exceeds the 65535 classes that u16 labels hold")
    if not 1 <= D <= _MAX_TCLD_DIM:
        raise DataFormatError(f"{path}: D={D} is outside the 1..{_MAX_TCLD_DIM} features "
                              f"that a record holds")
    expected = 16 + n * (2 + 4 * D)  # before a dtype or an array is sized by n and D
    if len(raw) != expected:
        raise DataFormatError(
            f"{path}: expected {expected} bytes for n={n}, D={D}, found {len(raw)}"
        )
    recs = np.frombuffer(raw[16:], dtype=[("label", "<u2"), ("feat", "<f4", (D,))])
    labels = recs["label"].astype(np.int64)
    if labels.size and labels.max() >= K:
        raise DataFormatError(f"{path}: label {labels.max()} exceeds K={K}")
    features = recs["feat"].astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise DataFormatError(f"{path}: non-finite feature in record {bad[0]}")
    return LongTailDataset(features=features, labels=labels, num_classes=K)


def write_atomic(path, content) -> None:
    """Write ``content`` (str as UTF-8, or bytes) to ``path`` through a
    temporary file in the same directory and ``os.replace``: a reader sees
    the earlier file or the whole new one, never a partial write, and a
    failed write leaves no temporary file behind.  The temporary name is per
    process and thread, so that writers of one path on two threads do not
    share it."""
    path = Path(path)
    data = content.encode() if isinstance(content, str) else content
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
