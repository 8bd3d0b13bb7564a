"""The benchmark's workloads: one tempcl config each, plus the seeded
CIFAR-10-format inputs that the pixel workload trains on.

Every workload runs at least 100 epochs so that the epoch-latency p90 has
at least ten samples beyond it.  ``knn10_floor`` is the lowest overall
kNN-10 accuracy at the final snapshot that a run may report and still
count as correct; each floor sits well above chance (1/K).
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

CIFAR10_RECORD = 3073  # label byte + 3 * 32 * 32 channel-major pixel bytes
PIXEL_CLASSES = 10
PIXEL_TRAIN_PER_CLASS = 100  # balanced source file; the config takes n_max of each
PIXEL_TEST_PER_CLASS = 200
PROTO_SIDE = 8  # prototypes are drawn at 8x8 and upsampled, so crops keep them
PROTO_SPREAD = 24.0  # RMS of each class's offset from the grey base image
TRAIN_NOISE = 60.0  # per-image noise sigma of training images, 0..255 units
TEST_NOISE = 115.0  # test images are noisier, so kNN accuracy sits below 1


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # config text; ``{data_dir}`` is replaced by the input directory
    knn10_floor: float

    @property
    def pixel_inputs(self) -> bool:
        """Whether the config reads the seeded CIFAR files."""
        return "{data_dir}" in self.config


# The default synthetic config with in-batch negatives is not a workload of
# its own: on a two-vCPU shared host a third workload left each one too short
# a measurement to be steady, and every layer it exercises is also exercised
# by one of these two.
WORKLOADS = {
    w.name: w
    for w in (
        # D=3072 pixel rows: wide GEMMs and the per-row augmentation loop.
        # One batch of 40 (of ~75 rows) per epoch keeps a run near 3-4 s, so
        # that several repeats fit one measurement; the noisier test
        # images (TEST_NOISE) hold kNN accuracy well below 1, with the tail
        # classes (4-5 training rows) below the head.
        Workload(
            name="pixel-inbatch",
            config="""\
run.epochs = 100
run.eval_every = 50
data.kind = cifar10
data.path = {data_dir}/train.bin
data.test_path = {data_dir}/test.bin
data.n_max = 12
data.imbalance = 3
data.augment = pixel
encoder.batch_size = 40
schedule.period_T = 100
""",
            knn10_floor=0.5,
        ),
        # K=100 with a momentum encoder and a key queue: 128x1152 loss
        # matrices, per-anchor temperatures, and snapshots whose probes and
        # kNN over 100 classes cost nearly as much as the training.
        Workload(
            name="k100-moco",
            config="""\
run.epochs = 100
run.eval_every = 50
data.classes = 100
data.n_max = 10
data.imbalance = 2
data.within_sigma = 0.18
data.test_per_class = 10
eval.probe_epochs = 100
encoder.negatives = momentum_queue
schedule.coarse = true
schedule.period_T = 100
""",
            knn10_floor=0.3,
        ),
    )
}


def _pixel_records(prototypes: np.ndarray, per_class: int, noise: float,
                   rng: np.random.Generator) -> bytes:
    K = prototypes.shape[0]
    labels = np.tile(np.arange(K), per_class)
    draws = rng.standard_normal((labels.size, prototypes.shape[1]))
    pixels = np.clip(np.rint(prototypes[labels] + noise * draws), 0, 255)
    records = np.empty((labels.size, CIFAR10_RECORD), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = pixels
    return records.tobytes()


def pixel_inputs(seed: int) -> tuple[bytes, bytes]:
    """(train, test) CIFAR-10 binary files for ``seed``.

    Both files draw their images from the same per-class prototypes (smooth,
    mirror-symmetric 8x8 colour fields upsampled to 32x32) plus independent
    per-image Gaussian noise, so test images are new, noisier samples of the
    training classes.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    # Orthonormal offsets: every pair of classes is equally far apart, so
    # the difficulty of the task does not vary with the seed.  The fields are
    # mirror-symmetric, so a horizontal flip (one of the augmentations)
    # never maps one class onto another.
    half = (3, PROTO_SIDE, PROTO_SIDE // 2)
    offsets, _ = np.linalg.qr(rng.standard_normal((int(np.prod(half)), PIXEL_CLASSES)))
    left = offsets.T.reshape(PIXEL_CLASSES, *half)
    fields = np.concatenate([left, left[..., ::-1]], axis=-1) / np.sqrt(2.0)
    coarse = 127.5 + PROTO_SPREAD * np.sqrt(3 * PROTO_SIDE * PROTO_SIDE) * fields
    scale = 32 // PROTO_SIDE
    prototypes = coarse.repeat(scale, axis=2).repeat(scale, axis=3).reshape(PIXEL_CLASSES, -1)
    train = _pixel_records(prototypes, PIXEL_TRAIN_PER_CLASS, TRAIN_NOISE,
                           np.random.default_rng(np.random.SeedSequence([int(seed), 1])))
    test = _pixel_records(prototypes, PIXEL_TEST_PER_CLASS, TEST_NOISE,
                          np.random.default_rng(np.random.SeedSequence([int(seed), 2])))
    return train, test


def write_inputs(workload: Workload, seed: int, work_dir: Path) -> Path:
    """Write the workload's config (and pixel inputs) under ``work_dir``;
    returns the config path."""
    data_dir = work_dir / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    if workload.pixel_inputs:
        train, test = pixel_inputs(seed)
        (data_dir / "train.bin").write_bytes(train)
        (data_dir / "test.bin").write_bytes(test)
    path = work_dir / f"{workload.name}.cfg"
    path.write_text(workload.config.replace("{data_dir}", str(data_dir)))
    return path
