"""Experiment orchestration.

Assembles datasets from a parsed config, runs the training loop with
evaluation snapshots (kNN, probes, coverage), writes analysis CSVs and
checkpoints, and emits a deterministic metrics.csv.  Also provides the
checkpoint-based evaluation and analysis entry points used by the CLI.

A run owns one worker thread (a one-worker executor) for work that spends
its time in NumPy calls that release the GIL, so that it overlaps the main
thread's.  Each probe fit of a snapshot, a full-batch fit that is mostly
GEMMs, runs there (LT_LP, then FS_LP) while the main thread runs kNN and
the analysis dump, if BLAS runs one thread with a CPU to spare
(``PROBE_WORKER``) and the fit is at least ``PROBE_WORKER_MACS`` wide.  A
mid-run snapshot's fits go on while the next epochs train: its rows are
joined at the next snapshot, and a fit not started by then is fitted on the
main thread, as FS_LP is at the final snapshot and in ``eval``.  Otherwise
a fit runs inline after the dump: more BLAS threads already fill the CPUs,
and a narrower fit (a pixel run's) is made of short GIL-bound calls, and
both ran slower beside the main thread's work.  Under the same rule the
worker also takes half of the rows of a snapshot forward pass of
``FORWARD_WORKER_MACS`` or more (a pixel run's test set).  Pixel runs also
make their views on the worker, one batch ahead of the encoder step (wide
normal fills and gathers), and so join each snapshot at once;
embedding-noise views are short GIL-bound calls that slowed the step when
made ahead, so other runs make them inline.  Views depend only on (seed,
epoch) and the data, and a probe only on its inputs, so the outputs keep
their bits.  A failure cancels the worker's queued work.  Every file is
written on the main thread: ``write_atomic``'s temporary name is per
process, not per thread.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from tempcl.analysis import (
    aggregate_contribution_curves,
    coverage_csv,
    coverage_histogram,
    curves_csv,
    pca_csv,
    pca_project,
    uniformity_stat,
)
from tempcl.config import ConfigError, ExperimentConfig, render_config
from tempcl.data import (
    DataFormatError,
    load_cifar10_bin,
    load_cifar100_bin,
    load_dataset,
    longtail_sizes,
    head_mid_tail_split,
    subsample_longtail,
    synth_mixture,
    write_atomic,
)
from tempcl.encoder import (
    NegativeSource,
    _epoch_views,
    forward,
    init_encoder,
    init_optim_state,
    load_checkpoint,
    save_checkpoint,
    train_epoch,
)
from tempcl.evaluation import knn_report, linear_probe
from tempcl.loss import _unit_rows, similarity_matrix
from tempcl.schedule import recommended_eval_epoch, tau_at

__all__ = [
    "build_datasets",
    "synthetic_datasets",
    "run_experiment",
    "eval_checkpoint",
    "analyze_checkpoint",
    "snapshot_epochs",
]


KNN_K = (1, 10)  # the neighbour counts of every snapshot's kNN accuracy
PCA_COMPONENTS = 3  # the columns of every pca_<epoch>.csv


def _blas_leaves_a_cpu() -> bool:
    """Whether BLAS runs one thread and another CPU is free for the worker.
    OpenBLAS, which NumPy's wheels ship, runs the first positive count of
    these variables, else one thread per CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value) == 1 and cpus > 1
    return False


# A probe is fitted on the worker only where that ran faster than inline: with
# one BLAS thread and a CPU to spare (two BLAS threads on two CPUs made
# k100-moco snapshots slower, the two fits oversubscribing the cores), and
# with GEMMs (rows x feature dims x classes) this wide (alongside kNN and
# FS_LP, fits of 0.5 M or less ran slower there, and fits of 1 M or more faster)
PROBE_WORKER = _blas_leaves_a_cpu()
PROBE_WORKER_MACS = 1 << 20
# A snapshot forward pass is split from this many multiply-adds (rows x weight sizes): halves
# repack every weight, and splits broke even at 7-16 M and gained on every measured shape from 17 M
FORWARD_WORKER_MACS = 1 << 24


@contextmanager
def _one_worker():
    """A one-worker executor whose queued work is cancelled as its block
    ends, so that no fit starts after a failure; running work is awaited."""
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _paths(value: str) -> list:
    return [p.strip() for p in value.split(",") if p.strip()]


def synthetic_datasets(cfg: ExperimentConfig) -> tuple:
    """The (long-tail train, balanced test) Gaussian mixtures that the
    ``data.*`` keys describe, whatever ``data.kind`` says."""
    d = cfg.data
    common = dict(class_separation=d.class_separation, within_sigma=d.within_sigma,
                  seed=cfg.run.seed)
    return (synth_mixture(d.classes, d.dim, d.n_max, d.imbalance, **common),
            synth_mixture(d.classes, d.dim, d.test_per_class, 1.0, **common, stream=2))


def _every_class(ds, path):
    """``ds``, the parse of the train file(s) ``path``, if it holds 2 classes
    or more and rows of every class below its class count."""
    empty = np.flatnonzero(ds.class_sizes == 0)
    if empty.size:
        raise DataFormatError(f"{path}: class {empty[0]} of the train set has no rows; the "
                              f"few-shot probe needs a row of every class")
    if ds.num_classes < 2:
        raise DataFormatError(f"{path}: the train set holds one class; a long-tail train set "
                              f"needs 2 or more")
    return ds


def build_datasets(cfg: ExperimentConfig) -> tuple:
    """The (long-tail train, balanced test) pair described by the config.
    A train file that lacks a class or a test set of another width than the
    train set is a DataFormatError; a train set that a snapshot cannot score
    (fewer than 3 classes or 10 rows) or an empty test set is a ConfigError."""
    d = cfg.data
    if d.kind == "synthetic":
        train, test = synthetic_datasets(cfg)
    elif d.kind == "tcld":
        train, test = _every_class(load_dataset(d.path), d.path), load_dataset(d.test_path)
    else:
        loader = load_cifar10_bin if d.kind == "cifar10" else load_cifar100_bin
        balanced = _every_class(loader(_paths(d.path)), d.path)
        try:
            sizes = longtail_sizes(balanced.num_classes, d.n_max, d.imbalance)
            train = subsample_longtail(balanced, sizes, cfg.run.seed,
                                       class_permutation_seed=d.permutation_seed)
        except ValueError as err:
            raise ConfigError(f"data.n_max = {d.n_max} does not fit {d.path}: {err}") from None
        del balanced  # its pixels go before the test set's arrive
        test = loader(_paths(d.test_path))
    if train.num_classes < 3 or train.n < max(KNN_K):
        raise ConfigError(f"the train set has {train.n} rows of {train.num_classes} classes; a "
                          f"snapshot needs {max(KNN_K)} rows (kNN) and 3 classes (head/mid/tail)")
    if test.n == 0:
        raise ConfigError("the test set has no rows; every snapshot is scored on it")
    if test.dim != train.dim:
        raise DataFormatError(f"{d.test_path}: test set width {test.dim} does not match "
                              f"the train set's width {train.dim}")
    return train, test


def _recommended_points(cfg: ExperimentConfig) -> set:
    """Each completed period's recommended evaluation epoch (periodic schedules)."""
    E, s = cfg.run.epochs, cfg.schedule
    if s.coarse or s.kind not in ("cosine", "linear_oscillation") or E < s.period_T:
        return set()
    return {recommended_eval_epoch(k * s.period_T, s.period_T)
            for k in range(1, E // s.period_T + 1)}


def snapshot_epochs(cfg: ExperimentConfig) -> list:
    """Epochs at which metrics are recorded: 0, every eval_every, each
    period's recommended evaluation epoch, and the final epoch."""
    E = cfg.run.epochs
    points = {0, E} | _recommended_points(cfg)
    points.update(range(0, E + 1, cfg.run.eval_every))
    return sorted(points)


def _tau_label(cfg: ExperimentConfig, epoch: int) -> float:
    """The tau column of metrics.csv and schedule-preview: nan under coarse
    supervision, whose temperatures are per anchor."""
    return float("nan") if cfg.schedule.coarse else tau_at(cfg.schedule, epoch)


def _forward_rows(pool, params, X):
    """``forward(params, X)``'s (embeddings, features), bit for bit.  Where it
    pays (``PROBE_WORKER``, 4 rows or more, ``FORWARD_WORKER_MACS``), ``pool``'s
    worker runs the second half of the rows and the caller the first: with 2
    rows or more in each piece every GEMM keeps the whole product's sums (a
    1-row piece takes NumPy's gemv path, whose sums differ in the last bit).
    The gate also keeps narrow pieces, which OpenBLAS's small-matrix kernel
    sums in another order, off this path (hidden (64,) at D = 3072: <= 5 rows)."""
    n = X.shape[0]
    if PROBE_WORKER and n >= 4 and n * sum(W.size for W, _ in params.layers) >= FORWARD_WORKER_MACS:
        rest = pool.submit(forward, params, X[n // 2:])
        first, rest = forward(params, X[:n // 2]), rest.result()
        return (np.concatenate([first.embeddings, rest.embeddings]),
                np.concatenate([first.features, rest.features]))
    result = forward(params, X)
    return result.embeddings, result.features


def _embed_train(cfg, pool, params, train):
    """The snapshot's one forward pass of the train set: (embeddings, unit
    features, coverage histogram of the embeddings)."""
    emb, feats = _forward_rows(pool, params, train.features)
    hist = coverage_histogram(emb, B=cfg.analysis.bins, seed=cfg.analysis.seed)
    return emb, _unit_rows(feats)[0], hist


def _start_snapshot(cfg, pool, params, train_feat, hist, train, test, partition):
    """Start one evaluation snapshot: each probe fit wide enough goes to
    ``pool``'s worker (see the module docstring), then kNN runs here.
    Returns (join, deferred): ``join()`` takes the fits in row order,
    fitting here each that is narrow or not started, and gives the
    snapshot's (metric, scope, value) rows; ``deferred`` tells whether a fit
    went to the worker."""
    test_feat = _unit_rows(_forward_rows(pool, params, test.features)[1])[0]

    def probe(mode):
        return linear_probe(train_feat, train.labels, test_feat, test.labels,
                            cfg.probe_config(mode), partition=partition)

    # each fit's rows (FS_LP's: the smallest class's size of every class);
    # LT_LP, the longer, goes first, so a join that finds FS_LP not started
    # fits it here beside LT_LP
    fit_rows = {"LT_LP": train.n, "FS_LP": train.class_sizes.min() * train.num_classes}
    fits = {mode: pool.submit(probe, mode) for mode, n in fit_rows.items()
            if cfg.eval.run_probes and PROBE_WORKER
            and n * train_feat.shape[1] * train.num_classes >= PROBE_WORKER_MACS}
    rows = knn_report(train_feat, train.labels, test_feat, test.labels,
                      k_values=KNN_K, partition=partition)

    def join():
        for mode in ("FS_LP", "LT_LP") if cfg.eval.run_probes else ():
            fit = fits.get(mode)
            rows.extend(probe(mode) if fit is None or fit.cancel() else fit.result())
        return rows + [("coverage_cv", "all", uniformity_stat(hist))]
    return join, bool(fits)


def _write_analysis(cfg, emb, feats, hist, labels, out_dir, epoch):
    tag = f"epoch{epoch:05d}"
    write_atomic(out_dir / f"coverage_{tag}.csv", coverage_csv(hist))

    tau = cfg.schedule.tau_tail if cfg.schedule.coarse else tau_at(cfg.schedule, epoch)
    curves = aggregate_contribution_curves(similarity_matrix(emb, emb), tau)
    write_atomic(out_dir / f"curves_{tag}.csv", curves_csv(curves))

    coords = pca_project(feats, components=PCA_COMPONENTS)
    write_atomic(out_dir / f"pca_{tag}.csv", pca_csv(coords, labels))


class _ViewStream:
    """``views`` made one batch ahead on the worker of ``pool``, a
    one-worker executor that the caller owns and shuts down: each batch
    taken sets the worker making the next.  The stream is built once its
    first batch is made, and each :meth:`take` ends once the batch after its
    own is made, so the worker is idle between takes and free for a
    snapshot's half forward pass and probe fits (joined at once in a run
    that streams, so that no batch waits behind a fit), and perfbench's
    tracer, whose one span stack serves all threads, sees view spans only
    inside ``train_epoch``."""

    def __init__(self, pool, views):
        self._pool, self._views = pool, views
        self._pending = pool.submit(next, views)
        wait([self._pending])

    def take(self, n):
        """The next ``n`` batches.  An exception of the worker is raised
        unchanged in place of its batch, then and by every later take;
        taking past the end of ``views`` is a RuntimeError."""
        for _ in range(n):
            batch = self._pending.result()
            self._pending = self._pool.submit(next, self._views)
            yield batch
        wait([self._pending])


def _format_rows(epoch, tau, rows):
    return [f"{epoch},{tau!r},{metric},{scope},{value!r}\n" for metric, scope, value in rows]


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Train per config, writing metrics.csv, analysis CSVs, checkpoints,
    and config.resolved into run.output_dir.  Returns the final snapshot's
    overall metrics."""
    train, test = build_datasets(cfg)
    if cfg.encoder.batch_size > train.n:
        raise ConfigError(f"encoder.batch_size = {cfg.encoder.batch_size} exceeds the "
                          f"{train.n} rows of the long-tail train set")
    tap = (cfg.encoder.hidden_dims or (train.dim,))[-1]
    if cfg.analysis.enable and tap < PCA_COMPONENTS:
        raise ConfigError(f"analysis.enable needs a feature tap of at least {PCA_COMPONENTS} "
                          f"dims for its PCA dump; the encoder's tap has {tap}")
    schedule = cfg.schedule_for(train.class_sizes)
    # the config is written only once every rule that needs the data holds
    out_dir = Path(cfg.run.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "config.resolved", render_config(cfg))

    partition = head_mid_tail_split(train.class_sizes)

    E = cfg.run.epochs
    params = init_encoder(train.dim, cfg.encoder.hidden_dims, cfg.encoder.embed_dim,
                          projection_layers=cfg.encoder.projection_layers,
                          seed=cfg.run.seed)
    if cfg.encoder.negatives == "momentum_queue":
        source = NegativeSource.momentum_queue(params, capacity=cfg.encoder.queue_capacity,
                                               momentum_m=cfg.encoder.moco_momentum)
    else:
        source = NegativeSource.in_batch()

    snapshots = set(snapshot_epochs(cfg))
    checkpoints = _recommended_points(cfg)
    views_ahead = cfg.data.augment == "pixel"  # made on the worker (see _ViewStream)
    lines = ["epoch,tau,metric,scope,value\n"]
    pending = []  # (epoch, join, extra rows) of a started snapshot whose rows are not in lines
    last_rows = None

    def settle():
        nonlocal last_rows
        for epoch, join, extra_rows in pending:
            last_rows = join() + list(extra_rows)
            lines.extend(_format_rows(epoch, _tau_label(cfg, epoch), last_rows))
        pending.clear()

    def record(epoch, extra_rows=()):
        settle()  # the last snapshot's fits, which ran while these epochs trained
        emb, feats, hist = _embed_train(cfg, pool, params, train)
        join, deferred = _start_snapshot(cfg, pool, params, feats, hist, train, test, partition)
        if cfg.analysis.enable:  # before join(), so that it overlaps the worker's fits
            _write_analysis(cfg, emb, feats, hist, train.labels, out_dir, epoch)
        pending.append((epoch, join, extra_rows))
        # fits on the worker run on while the next epochs train, unless no
        # epoch follows or pixel views, made on the worker, would wait behind them
        if not deferred or epoch == E or views_ahead:
            settle()

    with _one_worker() as pool:  # the run's one worker
        record(0)
        if E > 0:
            state = init_optim_state(params, base_lr=cfg.encoder.base_lr,
                                     warmup_epochs=cfg.encoder.warmup_epochs,
                                     total_epochs=E,
                                     weight_decay=cfg.encoder.weight_decay,
                                     sgd_momentum=cfg.encoder.sgd_momentum)
            batch_size = cfg.encoder.batch_size
            ahead = _ViewStream(pool, chain.from_iterable(
                _epoch_views(train, cfg.data, cfg.run.seed, epoch, batch_size)
                for epoch in range(E))) if views_ahead else None
            for epoch in range(E):
                views = ahead.take(train.n // batch_size) if ahead else None
                _, loss = train_epoch(train, params, state, schedule, source,
                                      cfg.data, seed=cfg.run.seed, epoch=epoch,
                                      batch_size=batch_size,
                                      symmetrize=cfg.encoder.symmetrize, views=views)
                done = epoch + 1
                if done in snapshots:
                    record(done, extra_rows=[("train_loss", "all", loss)])
                if done in checkpoints:
                    save_checkpoint(params, out_dir / f"checkpoint_epoch{done:05d}.tclp")
        save_checkpoint(params, out_dir / "checkpoint_final.tclp")

    write_atomic(out_dir / "metrics.csv", "".join(lines))

    summary = {}
    for metric, scope, value in last_rows:
        if scope == "all":
            summary[metric] = float(value)
            print(f"final {metric} = {value!r}")
    return summary


def _load_checkpoint_run(cfg, pool, checkpoint_path, min_tap=0):
    """(output dir, train set, test set, encoder, train embedding) for a saved
    encoder on the config's data; analyze refuses a tap below ``min_tap``."""
    train, test = build_datasets(cfg)
    params = load_checkpoint(checkpoint_path)
    in_dim = params.layers[0][0].shape[0]
    if in_dim != train.dim:
        raise DataFormatError(f"{checkpoint_path}: checkpoint input width {in_dim} "
                              f"does not match the dataset's dim {train.dim}")
    tap = params.layers[params.n_backbone][0].shape[0]  # the projection head's input
    if tap < min_tap:
        raise DataFormatError(f"{checkpoint_path}: checkpoint feature tap width {tap} is "
                              f"below the {min_tap} dims of the PCA dump")
    out_dir = Path(cfg.run.output_dir)  # made only once the inputs are accepted
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir, train, test, params, _embed_train(cfg, pool, params, train)


def eval_checkpoint(cfg: ExperimentConfig, checkpoint_path, epoch: int) -> list:
    """Metrics rows for a saved encoder, identical to the in-training
    snapshot of the same epoch.  Writes eval_epoch<t>.csv to output_dir."""
    with _one_worker() as pool:  # as a run's one worker
        out_dir, train, test, params, (_, feats, hist) = _load_checkpoint_run(
            cfg, pool, checkpoint_path)
        partition = head_mid_tail_split(train.class_sizes)
        join, _ = _start_snapshot(cfg, pool, params, feats, hist, train, test, partition)
        rows = join()
    lines = ["epoch,tau,metric,scope,value\n"]
    lines.extend(_format_rows(epoch, _tau_label(cfg, epoch), rows))
    write_atomic(out_dir / f"eval_epoch{epoch:05d}.csv", "".join(lines))
    return rows


def analyze_checkpoint(cfg: ExperimentConfig, checkpoint_path, epoch: int) -> float:
    """Analysis CSV dumps for a saved encoder; returns the coverage CV."""
    with _one_worker() as pool:  # for half of a wide train forward
        out_dir, train, _, _, (emb, feats, hist) = _load_checkpoint_run(
            cfg, pool, checkpoint_path, min_tap=PCA_COMPONENTS)
    _write_analysis(cfg, emb, feats, hist, train.labels, out_dir, epoch)
    return uniformity_stat(hist)
