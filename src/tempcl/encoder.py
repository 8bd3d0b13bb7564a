"""Small unit-sphere MLP encoder with manual backpropagation.

The encoder is a stack of linear layers with ReLU between them (the
"backbone", whose last activation is the evaluation representation),
followed by a projection stack whose final output is l2-normalized row by
row.  Training uses SGD with Nesterov-free momentum, decoupled-free weight
decay (added to the gradient), a linear-warmup + cosine learning-rate
schedule, and either in-batch negatives or a momentum encoder feeding a
FIFO key queue.

All arrays are float64 and every update is performed in a fixed order, so
training is bitwise reproducible for a given seed.
"""

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tempcl.data import AugmentationPolicy, DataFormatError, LongTailDataset, augment_batch
from tempcl.loss import (
    _check_unit_rows,
    _unit_rows,
    info_nce,
    info_nce_grad,
    info_nce_symmetrized,
    similarity_matrix,
)
from tempcl.schedule import CoarseTauConfig, ScheduleConfig, per_anchor_tau, tau_at

__all__ = [
    "EncoderParams",
    "ForwardResult",
    "OptimState",
    "NegativeSource",
    "init_encoder",
    "forward",
    "backward",
    "init_optim_state",
    "lr_at",
    "sgd_step",
    "momentum_update",
    "queue_push",
    "queue_negatives",
    "train_epoch",
    "save_checkpoint",
    "load_checkpoint",
]

TCLP_MAGIC = b"TCLP"


@dataclass
class EncoderParams:
    """Weights and biases: ``backbone`` layers (ReLU after each) and
    ``projection`` layers (ReLU between, none after the last).  The same
    container holds parameter gradients."""

    backbone: list
    projection: list

    def layers(self):
        """All (W, b) pairs in declaration order."""
        return list(self.backbone) + list(self.projection)

    def arrays(self):
        out = []
        for W, b in self.layers():
            out.append(W)
            out.append(b)
        return out

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            backbone=[(W.copy(), b.copy()) for W, b in self.backbone],
            projection=[(W.copy(), b.copy()) for W, b in self.projection],
        )

    def zeros_like(self) -> "EncoderParams":
        return EncoderParams(
            backbone=[(np.zeros_like(W), np.zeros_like(b)) for W, b in self.backbone],
            projection=[(np.zeros_like(W), np.zeros_like(b)) for W, b in self.projection],
        )

    @property
    def embed_dim(self) -> int:
        return self.projection[-1][0].shape[1]


def init_encoder(
    in_dim: int,
    hidden_dims=(256, 128),
    embed_dim: int = 32,
    projection_layers: int = 1,
    seed: int = 0,
) -> EncoderParams:
    """He-initialized encoder.  A two-layer projection head uses a hidden
    width equal to the feature width."""
    if projection_layers not in (1, 2):
        raise ValueError(f"projection_layers must be 1 or 2, got {projection_layers}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 3]))
    dims = [int(in_dim)] + [int(h) for h in hidden_dims]
    backbone = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        W = rng.standard_normal((d_in, d_out)) * np.sqrt(2.0 / d_in)
        backbone.append((W, np.zeros(d_out)))
    feat = dims[-1]
    proj_dims = [feat, embed_dim] if projection_layers == 1 else [feat, feat, embed_dim]
    projection = []
    for d_in, d_out in zip(proj_dims[:-1], proj_dims[1:]):
        W = rng.standard_normal((d_in, d_out)) * np.sqrt(2.0 / d_in)
        projection.append((W, np.zeros(d_out)))
    return EncoderParams(backbone=backbone, projection=projection)


@dataclass
class ForwardResult:
    """Projected unit-norm embeddings plus the pre-projection features used
    for evaluation.  ``zero_rows`` flags rows whose projection output was
    exactly zero and was replaced by the first basis vector."""

    embeddings: np.ndarray
    features: np.ndarray
    zero_rows: np.ndarray
    cache: dict = field(default_factory=dict, repr=False)


def _linear_checked(a, W, b, label):
    if a.shape[1] != W.shape[0]:
        raise ValueError(
            f"{label}: input width {a.shape[1]} does not match weight shape {W.shape}"
        )
    z = a @ W + b
    if not np.all(np.isfinite(z)):
        raise FloatingPointError(f"non-finite activations in {label}")
    return z


def forward(params: EncoderParams, X: np.ndarray) -> ForwardResult:
    """Forward pass returning embeddings (training head) and features
    (evaluation representation) with the intermediate cache for backprop."""
    a = np.asarray(X, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D input batch, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("input contains non-finite values")

    backbone_in = []
    backbone_pre = []
    for i, (W, b) in enumerate(params.backbone):
        backbone_in.append(a)
        z = _linear_checked(a, W, b, f"backbone layer {i}")
        backbone_pre.append(z)
        a = np.maximum(z, 0.0)
    features = a

    proj_in = []
    proj_pre = []
    p = features
    n_proj = len(params.projection)
    for i, (W, b) in enumerate(params.projection):
        proj_in.append(p)
        y = _linear_checked(p, W, b, f"projection layer {i}")
        proj_pre.append(y)
        p = np.maximum(y, 0.0) if i < n_proj - 1 else y

    U, norms = _unit_rows(p)
    zero_rows = norms == 0.0
    cache = {
        "backbone_in": backbone_in,
        "backbone_pre": backbone_pre,
        "proj_in": proj_in,
        "proj_pre": proj_pre,
        "norms": norms,
        "U": U,
    }
    return ForwardResult(embeddings=U, features=features, zero_rows=zero_rows, cache=cache)


def backward(
    params: EncoderParams,
    X: np.ndarray,
    upstream: np.ndarray,
    result: ForwardResult | None = None,
) -> EncoderParams:
    """Reverse-mode gradients of a scalar loss through the encoder.

    ``upstream`` is dLoss/dEmbeddings.  The normalization backward projects
    onto the tangent space: dz = (du - (du . u) u) / ||z||; rows flagged as
    zero-projections propagate no gradient.  Returns parameter gradients in
    an :class:`EncoderParams` container.
    """
    if result is None:
        result = forward(params, X)
    cache = result.cache
    dU = np.asarray(upstream, dtype=np.float64)
    U = cache["U"]
    if dU.shape != U.shape:
        raise ValueError(f"upstream shape {dU.shape} does not match embeddings {U.shape}")

    safe = np.where(result.zero_rows, 1.0, cache["norms"])
    dz = (dU - np.sum(dU * U, axis=1, keepdims=True) * U) / safe[:, None]
    dz[result.zero_rows] = 0.0

    grads = params.zeros_like()
    d = dz
    for i in range(len(params.projection) - 1, -1, -1):
        W, _ = params.projection[i]
        if i < len(params.projection) - 1:
            d = d * (cache["proj_pre"][i] > 0.0)
        grads.projection[i] = (cache["proj_in"][i].T @ d, d.sum(axis=0))
        d = d @ W.T
    for i in range(len(params.backbone) - 1, -1, -1):
        W, _ = params.backbone[i]
        d = d * (cache["backbone_pre"][i] > 0.0)
        grads.backbone[i] = (cache["backbone_in"][i].T @ d, d.sum(axis=0))
        d = d @ W.T
    return grads


def _accumulate(into: EncoderParams, other: EncoderParams) -> EncoderParams:
    for (W, b), (dW, db) in zip(into.layers(), other.layers()):
        W += dW
        b += db
    return into


@dataclass
class OptimState:
    """SGD-with-momentum state and the learning-rate schedule parameters."""

    buffers: EncoderParams
    base_lr: float = 0.5
    warmup_epochs: int = 10
    total_epochs: int = 400
    weight_decay: float = 1e-4
    sgd_momentum: float = 0.9
    epoch: int = 0


def init_optim_state(
    params: EncoderParams,
    base_lr: float = 0.5,
    warmup_epochs: int = 10,
    total_epochs: int = 400,
    weight_decay: float = 1e-4,
    sgd_momentum: float = 0.9,
) -> OptimState:
    if base_lr <= 0 or total_epochs < 1 or warmup_epochs < 0:
        raise ValueError("need base_lr > 0, total_epochs >= 1, warmup_epochs >= 0")
    if weight_decay < 0 or not (0.0 <= sgd_momentum < 1.0):
        raise ValueError("need weight_decay >= 0 and sgd_momentum in [0, 1)")
    return OptimState(
        buffers=params.zeros_like(),
        base_lr=base_lr,
        warmup_epochs=warmup_epochs,
        total_epochs=total_epochs,
        weight_decay=weight_decay,
        sgd_momentum=sgd_momentum,
    )


def lr_at(state: OptimState, epoch: int) -> float:
    """Linear warmup to ``base_lr`` followed by cosine annealing to 0."""
    if not (0 <= epoch < state.total_epochs):
        raise ValueError(f"epoch {epoch} outside [0, {state.total_epochs})")
    if epoch < state.warmup_epochs:
        return state.base_lr * (epoch + 1) / state.warmup_epochs
    span = state.total_epochs - state.warmup_epochs
    return 0.5 * state.base_lr * (1.0 + np.cos(np.pi * (epoch - state.warmup_epochs) / span))


def sgd_step(params: EncoderParams, grads: EncoderParams, state: OptimState) -> EncoderParams:
    """In-place SGD update: g <- grad + wd * p; buf <- mom * buf + g;
    p <- p - lr * buf."""
    lr = lr_at(state, state.epoch)
    for (p_W, p_b), (g_W, g_b), (m_W, m_b) in zip(
        params.layers(), grads.layers(), state.buffers.layers()
    ):
        for p, g, m in ((p_W, g_W, m_W), (p_b, g_b, m_b)):
            if p.shape != g.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
            m *= state.sgd_momentum
            m += g + state.weight_decay * p
            p -= lr * m
    return params


def momentum_update(f_params: EncoderParams, key_params: EncoderParams, m: float) -> EncoderParams:
    """key <- m * key + (1 - m) * f, elementwise and in place."""
    if not (0.0 < m <= 1.0):
        raise ValueError(f"momentum must be in (0, 1], got {m}")
    for (f_W, f_b), (k_W, k_b) in zip(f_params.layers(), key_params.layers()):
        if f_W.shape != k_W.shape or f_b.shape != k_b.shape:
            raise ValueError("parameter shapes of the two encoders differ")
        for f, k in ((f_W, k_W), (f_b, k_b)):
            k *= m
            k += (1.0 - m) * f
    return key_params


@dataclass
class NegativeSource:
    """Where negatives come from: the other in-batch view, or a momentum
    encoder whose keys are kept in a FIFO queue."""

    kind: str = "in_batch"
    capacity: int = 1024
    momentum_m: float = 0.99
    key_params: EncoderParams | None = None
    queue: np.ndarray | None = None

    @classmethod
    def in_batch(cls) -> "NegativeSource":
        return cls(kind="in_batch")

    @classmethod
    def momentum_queue(
        cls, params: EncoderParams, capacity: int = 1024, momentum_m: float = 0.99
    ) -> "NegativeSource":
        return cls(
            kind="momentum_queue",
            capacity=int(capacity),
            momentum_m=float(momentum_m),
            key_params=params.copy(),
            queue=np.empty((0, params.embed_dim)),
        )


def queue_push(source: NegativeSource, keys: np.ndarray) -> None:
    """FIFO append, evicting the oldest entries beyond capacity."""
    if source.kind != "momentum_queue":
        raise ValueError("queue_push needs a momentum_queue source")
    keys = np.asarray(keys, dtype=np.float64)
    _check_unit_rows(keys, "keys")
    source.queue = np.vstack([source.queue, keys])[-source.capacity :]


def queue_negatives(source: NegativeSource) -> np.ndarray:
    """Current queue contents, oldest first."""
    if source.kind != "momentum_queue":
        raise ValueError("queue_negatives needs a momentum_queue source")
    return source.queue


def _batch_gradients(params, v1, v2, tau, source, symmetrize):
    """Loss and parameter gradients for one batch; returns (grads, loss,
    keys) where keys is None for in-batch mode."""
    r1 = forward(params, v1)
    U = r1.embeddings
    if source.kind == "in_batch":
        r2 = forward(params, v2)
        V = r2.embeddings
        S = similarity_matrix(U, V)
        bd = info_nce_symmetrized(S, tau) if symmetrize else info_nce(S, tau)
        G = info_nce_grad(S, tau, symmetrize=symmetrize)
        grads = backward(params, v1, G @ V, r1)
        grads = _accumulate(grads, backward(params, v2, G.T @ U, r2))
        return grads, bd.mean, None

    keys = forward(source.key_params, v2).embeddings
    negs = queue_negatives(source)
    cols = keys if negs.shape[0] == 0 else np.vstack([keys, negs])
    S = np.clip(U @ cols.T, -1.0, 1.0)
    bd = info_nce(S, tau)
    G = info_nce_grad(S, tau)
    grads = backward(params, v1, G @ cols, r1)
    return grads, bd.mean, keys


def train_epoch(
    dataset: LongTailDataset,
    params: EncoderParams,
    state: OptimState,
    schedule,
    negative_source: NegativeSource,
    policy: AugmentationPolicy,
    seed: int,
    epoch: int,
    batch_size: int = 128,
    symmetrize: bool = False,
    view_transform=None,
) -> tuple[EncoderParams, float]:
    """One pass over the dataset; returns the updated parameters and the
    mean batch loss.

    ``schedule`` is either a :class:`ScheduleConfig` (one scalar temperature
    for the epoch) or a :class:`CoarseTauConfig` (per-anchor temperatures
    from the batch labels).  Shuffling and augmentation are keyed by
    (seed, epoch); the final undersized batch is dropped.  An optional
    ``view_transform`` maps each augmented view before the encoder (used to
    standardize pixel views, which are augmented in [0, 1] space).
    """
    n = dataset.n
    n_batches = n // batch_size
    if n_batches == 0:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {n}")
    if symmetrize and negative_source.kind != "in_batch":
        raise ValueError("symmetrized loss requires in-batch negatives")

    state.epoch = epoch
    coarse = isinstance(schedule, CoarseTauConfig)
    if not coarse and not isinstance(schedule, ScheduleConfig):
        raise TypeError(f"schedule must be ScheduleConfig or CoarseTauConfig, got {type(schedule)}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(epoch)]))
    order = rng.permutation(n)

    losses = []
    for b in range(n_batches):
        idx = order[b * batch_size : (b + 1) * batch_size]
        X = dataset.features[idx]
        v1 = augment_batch(policy, X, rng)
        v2 = augment_batch(policy, X, rng)
        if view_transform is not None:
            v1 = view_transform(v1)
            v2 = view_transform(v2)
        if coarse:
            tau = per_anchor_tau(dataset.labels[idx], schedule)
        else:
            tau = tau_at(schedule, epoch)
        grads, loss, keys = _batch_gradients(params, v1, v2, tau, negative_source, symmetrize)
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite loss at epoch {epoch}, batch {b}")
        sgd_step(params, grads, state)
        if keys is not None:
            momentum_update(params, negative_source.key_params, negative_source.momentum_m)
            queue_push(negative_source, keys)
        losses.append(loss)
    return params, float(np.mean(losses))


def save_checkpoint(params: EncoderParams, path) -> None:
    """Binary checkpoint: magic "TCLP", u32 backbone and projection layer
    counts, per-layer (u32 d_in, u32 d_out), then all weights and biases as
    little-endian float64 in declaration order."""
    header = [TCLP_MAGIC, struct.pack("<II", len(params.backbone), len(params.projection))]
    for W, _ in params.layers():
        header.append(struct.pack("<II", W.shape[0], W.shape[1]))
    body = [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in params.arrays()]
    Path(path).write_bytes(b"".join(header) + b"".join(body))


def load_checkpoint(path) -> EncoderParams:
    """Read a checkpoint written by :func:`save_checkpoint`; a malformed
    file raises :class:`DataFormatError`."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != TCLP_MAGIC:
        raise DataFormatError(f"{path}: missing TCLP header")
    n_back, n_proj = struct.unpack("<II", raw[4:12])
    off = 12 + 8 * (n_back + n_proj)
    if off > len(raw):
        raise DataFormatError(f"{path}: table of {n_back + n_proj} layers overruns the file")
    dims = list(struct.iter_unpack("<II", raw[12:off]))
    if n_proj == 0 or any(a[1] != b[0] for a, b in zip(dims, dims[1:])):
        raise DataFormatError(f"{path}: layer shapes {dims} do not chain into an encoder")
    expected = off + sum(8 * (d_in + 1) * d_out for d_in, d_out in dims)
    if expected > len(raw):
        raise DataFormatError(f"{path}: weights need {expected} bytes, file has {len(raw)}")
    if expected < len(raw):
        raise DataFormatError(f"{path}: trailing bytes in checkpoint")
    layers = []
    for d_in, d_out in dims:
        W = np.frombuffer(raw, dtype="<f8", count=d_in * d_out, offset=off).reshape(d_in, d_out)
        off += 8 * d_in * d_out
        b = np.frombuffer(raw, dtype="<f8", count=d_out, offset=off)
        off += 8 * d_out
        layers.append((W.copy(), b.copy()))
    return EncoderParams(backbone=layers[:n_back], projection=layers[n_back:])
