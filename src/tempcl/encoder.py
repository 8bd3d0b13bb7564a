"""Small unit-sphere MLP encoder with manual backpropagation.

The encoder is one chain of linear layers, ReLU after every layer but the
last, with an l2-normalized output.  The activation after the first
``n_backbone`` layers (the backbone) is the feature tap that evaluation
scores; the remaining layers are the projection head.  Training uses SGD
with Nesterov-free momentum, decoupled-free weight decay (added to the
gradient), a linear-warmup + cosine learning-rate schedule, and either
in-batch negatives or a momentum encoder feeding a FIFO key queue.

All arrays are float64 and every update is performed in a fixed order, so
training is bitwise reproducible for a given seed.  Views come from one RNG
per (seed, epoch) and never read the parameters, so making them ahead on
another thread (as the runner does for pixel views) keeps the bits.  The
SGD update is memory-bound: at D=3072 the first layer, its momentum buffer
and each view's gradient are 6.3 MB apiece, larger than a core's L2, and
each update operation is one multiply or add per element.
:func:`sgd_step` therefore works through every array in row blocks that
fit in L2, doing all of its operations on one block before the next.

A forward pass keeps one tape for backprop: each layer's input, the output's
row norms and the embeddings.  Layer i's ReLU mask is ``> 0`` on layer i + 1's
input, where the (finite) pre-activation is; a zero row is one of norm 0.
"""

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tempcl.data import (
    AugmentationPolicy,
    DataFormatError,
    LongTailDataset,
    augment_batch,
    write_atomic,
)
from tempcl.loss import (
    _check_unit_rows,
    _unit_rows,
    info_nce,
    info_nce_symmetrized,
    similarity_matrix,
)
from tempcl.schedule import ScheduleConfig, class_tau

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
    "train_epoch",
    "save_checkpoint",
    "load_checkpoint",
]

TCLP_MAGIC = b"TCLP"
# sgd_step's block size.  Five blocks are live at once (parameter, momentum,
# two gradients, scratch), within a core's L2; on the 3072 x 256 layer,
# 64-row blocks ran faster than both 32-row blocks and whole arrays.
_BLOCK_BYTES = 128 * 1024


@dataclass
class EncoderParams:
    """The chain's (W, b) pairs in order, ReLU after every layer but the
    last; the first ``n_backbone`` layers are the backbone, the rest the
    projection head.  The same container holds parameter gradients."""

    layers: list
    n_backbone: int

    def arrays(self):
        return [a for pair in self.layers for a in pair]

    def copy(self) -> "EncoderParams":
        return EncoderParams([(W.copy(), b.copy()) for W, b in self.layers], self.n_backbone)

    def zeros_like(self) -> "EncoderParams":
        return EncoderParams([(np.zeros_like(W), np.zeros_like(b)) for W, b in self.layers],
                             self.n_backbone)

    @property
    def embed_dim(self) -> int:
        return self.layers[-1][0].shape[1]


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
    dims += [dims[-1]] * (projection_layers - 1) + [embed_dim]
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        W = rng.standard_normal((d_in, d_out)) * np.sqrt(2.0 / d_in)
        layers.append((W, np.zeros(d_out)))
    return EncoderParams(layers, len(hidden_dims))


@dataclass
class ForwardResult:
    """A forward pass's tape: ``inputs[i]`` is layer i's input (the batch, then
    each ReLU output), so layer i's ReLU mask is ``inputs[i + 1] > 0``; a row of
    ``norms`` 0 is a zero projection row, whose embedding is the first basis
    vector.  ``features``, evaluation's tap, is the array ``inputs[n_backbone]``."""

    embeddings: np.ndarray
    features: np.ndarray
    inputs: list
    norms: np.ndarray


def _layer_name(params: EncoderParams, i: int) -> str:
    n = params.n_backbone
    return f"backbone layer {i}" if i < n else f"projection layer {i - n}"


def forward(params: EncoderParams, X: np.ndarray) -> ForwardResult:
    """Forward pass returning embeddings (training head) and features
    (evaluation representation) with what backprop needs."""
    a = np.asarray(X, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D input batch, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("input contains non-finite values")

    inputs = []
    last = len(params.layers) - 1
    # an overflow is reported by the finiteness check after its layer
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (W, b) in enumerate(params.layers):
            if a.shape[1] != W.shape[0]:
                raise ValueError(f"{_layer_name(params, i)}: input width {a.shape[1]} "
                                 f"does not match weight shape {W.shape}")
            inputs.append(a)
            z = a @ W + b
            if not np.all(np.isfinite(z)):
                raise FloatingPointError(f"non-finite activations in {_layer_name(params, i)}")
            a = np.maximum(z, 0.0) if i < last else z

    U, norms = _unit_rows(a)
    return ForwardResult(embeddings=U, features=inputs[params.n_backbone], inputs=inputs,
                         norms=norms)


def backward(params: EncoderParams, upstream: np.ndarray, result: ForwardResult) -> EncoderParams:
    """Reverse-mode gradients of a scalar loss through the encoder.

    ``result`` is the batch's forward pass and ``upstream`` is
    dLoss/dEmbeddings.  The normalization backward projects onto the
    tangent space: dz = (du - (du . u) u) / ||z||; zero projection rows
    propagate no gradient.  Returns parameter gradients in an
    :class:`EncoderParams` container.
    """
    dU = np.asarray(upstream, dtype=np.float64)
    U = result.embeddings
    if dU.shape != U.shape:
        raise ValueError(f"upstream shape {dU.shape} does not match embeddings {U.shape}")

    zero_rows = result.norms == 0.0
    safe = np.where(zero_rows, 1.0, result.norms)
    dz = (dU - np.sum(dU * U, axis=1, keepdims=True) * U) / safe[:, None]
    dz[zero_rows] = 0.0

    last = len(params.layers) - 1
    grads = [None] * (last + 1)
    d = dz
    for i in range(last, -1, -1):
        if i < last:
            d = d * (result.inputs[i + 1] > 0.0)
        grads[i] = (result.inputs[i].T @ d, d.sum(axis=0))
        if i > 0:  # the gradient of the encoder's input is never used
            d = d @ params.layers[i][0].T
    return EncoderParams(grads, params.n_backbone)


@dataclass
class OptimState:
    """SGD-with-momentum state and the learning-rate schedule parameters;
    ``scratch`` is :func:`sgd_step`'s block buffer, made by its first call."""

    buffers: EncoderParams
    base_lr: float = 0.5
    warmup_epochs: int = 10
    total_epochs: int = 400
    weight_decay: float = 1e-4
    sgd_momentum: float = 0.9
    scratch: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.base_lr <= 0 or self.total_epochs < 1 or self.warmup_epochs < 0:
            raise ValueError("need base_lr > 0, total_epochs >= 1, warmup_epochs >= 0")
        if self.weight_decay < 0 or not (0.0 <= self.sgd_momentum < 1.0):
            raise ValueError("need weight_decay >= 0 and sgd_momentum in [0, 1)")


def init_optim_state(params: EncoderParams, **hyper) -> OptimState:
    """Zero momentum buffers shaped like ``params``; ``hyper`` takes the
    :class:`OptimState` hyper-parameters by name."""
    return OptimState(buffers=params.zeros_like(), **hyper)


def lr_at(state: OptimState, epoch: int) -> float:
    """Linear warmup to ``base_lr`` followed by cosine annealing to 0."""
    if not (0 <= epoch < state.total_epochs):
        raise ValueError(f"epoch {epoch} outside [0, {state.total_epochs})")
    if epoch < state.warmup_epochs:
        return state.base_lr * (epoch + 1) / state.warmup_epochs
    span = state.total_epochs - state.warmup_epochs
    return 0.5 * state.base_lr * (1.0 + np.cos(np.pi * (epoch - state.warmup_epochs) / span))


def sgd_step(params: EncoderParams, grads: list, state: OptimState, lr: float) -> EncoderParams:
    """In-place SGD update from the sum of the batch's gradient sets:
    g <- grad_1 + grad_2 + ... + wd * p; buf <- mom * buf + g;
    p <- p - lr * buf.

    ``grads`` holds one :class:`EncoderParams` per view that carries a
    gradient; the sum is formed in place in the first.  Each array is worked
    through in row blocks of about ``_BLOCK_BYTES`` with the block-sized
    ``state.scratch``, so it crosses memory about once per step rather than
    once per operation, with the same operations, in the same order, on
    every element.
    """
    arrays = params.arrays()
    for g in grads:
        g_arrays = g.arrays()
        if len(g_arrays) != len(arrays):
            raise ValueError(f"{len(g_arrays)} gradient arrays for {len(arrays)} parameters")
        for p, g_a in zip(arrays, g_arrays):
            if p.shape != g_a.shape:
                raise ValueError(f"gradient shape {g_a.shape} does not match parameter {p.shape}")
    wd, mom = state.weight_decay, state.sgd_momentum
    size = max([_BLOCK_BYTES // 8] + [p[:1].size for p in arrays])
    if state.scratch is None or state.scratch.size < size:
        state.scratch = np.empty(size)
    for p, m, gs in zip(arrays, state.buffers.arrays(), zip(*(g.arrays() for g in grads))):
        row = p[:1].size
        rows = max(1, min(len(p), state.scratch.size // max(row, 1)))
        block = state.scratch[: rows * row].reshape((rows,) + p.shape[1:])
        for i in range(0, len(p), rows):
            g, pb, mb = gs[0][i : i + rows], p[i : i + rows], m[i : i + rows]
            for other in gs[1:]:
                g += other[i : i + rows]
            s = block[: len(pb)]
            np.multiply(pb, wd, out=s)
            np.add(g, s, out=s)
            mb *= mom
            mb += s
            np.multiply(mb, lr, out=s)
            pb -= s
    return params


def momentum_update(f_params: EncoderParams, key_params: EncoderParams, m: float) -> EncoderParams:
    """key <- m * key + (1 - m) * f, elementwise and in place."""
    if not (0.0 < m <= 1.0):
        raise ValueError(f"momentum must be in (0, 1], got {m}")
    for f, k in zip(f_params.arrays(), key_params.arrays()):
        if f.shape != k.shape:
            raise ValueError("parameter shapes of the two encoders differ")
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


def _batch_gradients(params, v1, v2, tau, source, symmetrize):
    """Loss and parameter gradients for one batch; returns (grad_sets,
    loss) with one gradient set per view that carries one.  Anchor i's key
    is row i of the other view (in-batch) or of the key encoder's output,
    whose rows are followed by the queued keys (momentum queue).  The
    momentum queue takes the batch's keys here, after the loss's V is
    built from the queue as it was."""
    r1 = forward(params, v1)
    U = r1.embeddings
    if source.kind == "in_batch":
        r2 = forward(params, v2)
        V = r2.embeddings
        S = similarity_matrix(U, V)
        per_anchor, G = info_nce_symmetrized(S, tau) if symmetrize else info_nce(S, tau)
        grads = [backward(params, G @ V, r1), backward(params, G.T @ U, r2)]
        return grads, float(per_anchor.mean())

    keys = forward(source.key_params, v2).embeddings
    V = np.vstack([keys, source.queue])
    queue_push(source, keys)  # checks the keys; the queued rows were checked when pushed
    per_anchor, G = info_nce(similarity_matrix(U, V, v_checked=True), tau)
    return [backward(params, G @ V, r1)], float(per_anchor.mean())


def _epoch_views(dataset, policy, seed, epoch, batch_size):
    """The epoch's (idx, v1, v2) batches, all drawn from one RNG keyed by
    (seed, epoch): the shuffle, then each batch's two views from
    :func:`augment_batch` with the dataset's ``channel_stats``, which pixel
    views need.  The final undersized batch is dropped."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(epoch)]))
    order = rng.permutation(dataset.n)
    for b in range(dataset.n // batch_size):
        idx = order[b * batch_size : (b + 1) * batch_size]
        X = dataset.features[idx]
        v1 = augment_batch(policy, X, rng, dataset.channel_stats)
        v2 = augment_batch(policy, X, rng, dataset.channel_stats)
        yield idx, v1, v2


def train_epoch(
    dataset: LongTailDataset,
    params: EncoderParams,
    state: OptimState,
    schedule: ScheduleConfig,
    negative_source: NegativeSource,
    policy: AugmentationPolicy,
    seed: int,
    epoch: int,
    batch_size: int = 128,
    symmetrize: bool = False,
    views=None,
) -> tuple[EncoderParams, float]:
    """One pass over the dataset, every step at ``lr_at(state, epoch)``;
    returns the updated parameters and the mean batch loss.

    ``schedule`` gives each class its temperature at this epoch
    (:func:`class_tau`), and each anchor takes its class's.  ``views``
    yields the epoch's batches, as :func:`_epoch_views` does; by default
    that runs here, making each batch's views between steps.
    """
    n = dataset.n
    n_batches = n // batch_size
    if n_batches == 0:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {n}")
    if symmetrize and negative_source.kind != "in_batch":
        raise ValueError("symmetrized loss requires in-batch negatives")
    if views is None:
        views = _epoch_views(dataset, policy, seed, epoch, batch_size)

    lr = lr_at(state, epoch)
    taus = class_tau(schedule, dataset.class_sizes, epoch)
    losses = []
    for b, (idx, v1, v2) in enumerate(views):
        grads, loss = _batch_gradients(params, v1, v2, taus[dataset.labels[idx]],
                                       negative_source, symmetrize)
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite loss at epoch {epoch}, batch {b}")
        sgd_step(params, grads, state, lr)
        if negative_source.kind == "momentum_queue":
            momentum_update(params, negative_source.key_params, negative_source.momentum_m)
        losses.append(loss)
    return params, float(np.mean(losses))


def save_checkpoint(params: EncoderParams, path) -> None:
    """Binary checkpoint: magic "TCLP", u32 backbone and projection layer
    counts, per-layer (u32 d_in, u32 d_out), then all weights and biases as
    little-endian float64 in declaration order."""
    n_proj = len(params.layers) - params.n_backbone
    header = [TCLP_MAGIC, struct.pack("<II", params.n_backbone, n_proj)]
    for W, _ in params.layers:
        header.append(struct.pack("<II", W.shape[0], W.shape[1]))
    body = [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in params.arrays()]
    write_atomic(path, b"".join(header) + b"".join(body))


def load_checkpoint(path) -> EncoderParams:
    """Read a checkpoint written by :func:`save_checkpoint`; a malformed
    file, or one holding a non-finite value, raises :class:`DataFormatError`."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != TCLP_MAGIC:
        raise DataFormatError(f"{path}: missing TCLP header")
    n_back, n_proj = struct.unpack("<II", raw[4:12])
    off = 12 + 8 * (n_back + n_proj)
    if off > len(raw):
        raise DataFormatError(f"{path}: table of {n_back + n_proj} layers overruns the file")
    dims = list(struct.iter_unpack("<II", raw[12:off]))
    chained = all(a[1] == b[0] for a, b in zip(dims, dims[1:]))
    if n_proj == 0 or not chained or any(0 in d for d in dims):
        raise DataFormatError(f"{path}: layer shapes {dims} do not chain into an encoder "
                              f"of nonzero widths")
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
    params = EncoderParams(layers, n_back)
    for i, (W, b) in enumerate(layers):
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise DataFormatError(f"{path}: non-finite weight or bias in {_layer_name(params, i)}")
    return params
