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
another thread (as the runner does for pixel views) keeps the bits.  Each
parameter set (the weights, a gradient set, the momentum buffers, the key
encoder) is one float64 vector in the checkpoint body's order, and its
layers are views into it.  The SGD update is memory-bound: at D=3072 the
vector, its momentum buffer and each view's gradient are 6.3 MB apiece,
larger than a core's L2, and each update operation is one multiply or add
per element.  :func:`sgd_step` therefore works through the vectors in
blocks that fit in L2, doing all of its operations on one block before the
next.

A forward pass keeps one tape for backprop: each layer's input, the output's
row norms and the embeddings.  Layer i's ReLU mask is ``> 0`` on layer i + 1's
input, where the (finite) pre-activation is; a zero row is one of norm 0.
"""

import struct
from dataclasses import dataclass, field
from itertools import chain
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
# 64-row (128 KiB) blocks ran faster than both 32-row blocks and whole arrays.
_BLOCK_BYTES = 128 * 1024


@dataclass(frozen=True, eq=False)
class EncoderParams:
    """One parameter set (weights, a gradient set, momentum buffers) as the
    float64 vector ``flat``: each layer's W (row-major, of shape ``dims[i]``,
    a tuple of (d_in, d_out) tuples), then its b, in chain order, which is
    the TCLP body's order.  ``layers`` holds each (W, b) as views into
    ``flat``.  The chain has ReLU after every layer but the last; the first
    ``n_backbone`` layers are the backbone, the rest the projection head."""

    flat: np.ndarray
    dims: tuple
    n_backbone: int
    layers: tuple = field(init=False, repr=False)

    def __post_init__(self):
        size = sum((d_in + 1) * d_out for d_in, d_out in self.dims)
        if self.flat.shape != (size,):
            raise ValueError(f"flat of shape {self.flat.shape} does not fit dims {self.dims}")
        layers, i = [], 0
        for d_in, d_out in self.dims:
            j = i + d_in * d_out
            layers.append((self.flat[i:j].reshape(d_in, d_out), self.flat[j : j + d_out]))
            i = j + d_out
        object.__setattr__(self, "layers", tuple(layers))

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.flat.copy(), self.dims, self.n_backbone)

    def zeros_like(self) -> "EncoderParams":
        return EncoderParams(np.zeros_like(self.flat), self.dims, self.n_backbone)


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
    widths = [int(in_dim)] + [int(h) for h in hidden_dims]
    widths += [widths[-1]] * (projection_layers - 1) + [embed_dim]
    dims = tuple(zip(widths[:-1], widths[1:]))
    params = EncoderParams(np.zeros(sum((i + 1) * o for i, o in dims)), dims, len(hidden_dims))
    for W, _ in params.layers:
        W[...] = rng.standard_normal(W.shape) * np.sqrt(2.0 / W.shape[0])
    return params


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
    propagate no gradient.  Returns the parameter gradients as an
    :class:`EncoderParams` of ``params``' dims.
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
    grads = EncoderParams(np.empty_like(params.flat), params.dims, params.n_backbone)
    d = dz
    for i in range(last, -1, -1):  # the views tile grads.flat, so each value is written
        if i < last:
            d = d * (result.inputs[i + 1] > 0.0)
        np.matmul(result.inputs[i].T, d, out=grads.layers[i][0])
        np.sum(d, axis=0, out=grads.layers[i][1])
        if i > 0:  # the gradient of the encoder's input is never used
            d = d @ params.layers[i][0].T
    return grads


@dataclass
class OptimState:
    """SGD-with-momentum state and the learning-rate schedule parameters;
    ``scratch`` is :func:`sgd_step`'s block buffer."""

    buffers: EncoderParams
    base_lr: float = 0.5
    warmup_epochs: int = 10
    total_epochs: int = 400
    weight_decay: float = 1e-4
    sgd_momentum: float = 0.9
    scratch: np.ndarray = field(default_factory=lambda: np.empty(_BLOCK_BYTES // 8),
                                init=False, repr=False, compare=False)

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
    gradient; the sum is formed in place in the first.  The vectors are
    worked through in blocks of ``_BLOCK_BYTES`` with the block-sized
    ``state.scratch``, so each crosses memory about once per step rather
    than once per operation, with the same operations, in the same order,
    on every element.
    """
    if any(g.dims != params.dims for g in grads):
        raise ValueError(f"a gradient set's dims differ from the parameters' {params.dims}")
    wd, mom, n = state.weight_decay, state.sgd_momentum, state.scratch.size
    p, m, gs = params.flat, state.buffers.flat, [g.flat for g in grads]
    for i in range(0, p.size, n):
        g, pb, mb = gs[0][i : i + n], p[i : i + n], m[i : i + n]
        s = state.scratch[: len(pb)]
        for other in gs[1:]:
            g += other[i : i + n]
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
    if f_params.dims != key_params.dims:
        raise ValueError("parameter shapes of the two encoders differ")
    k = key_params.flat
    k *= m
    k += (1.0 - m) * f_params.flat
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
            queue=np.empty((0, params.dims[-1][1])),
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
    counts, per-layer (u32 d_in, u32 d_out), then ``params.flat`` (each
    layer's weights, then its biases) as little-endian float64."""
    counts = (params.n_backbone, len(params.dims) - params.n_backbone)
    header = struct.pack(f"<{2 + 2 * len(params.dims)}I", *counts, *chain(*params.dims))
    write_atomic(path, TCLP_MAGIC + header + params.flat.astype("<f8", copy=False).tobytes())


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
    flat = np.frombuffer(raw, "<f8", offset=off).astype(np.float64)  # a native, writable copy
    params = EncoderParams(flat, tuple(dims), n_back)
    for i, (W, b) in enumerate(params.layers):
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise DataFormatError(f"{path}: non-finite weight or bias in {_layer_name(params, i)}")
    return params
