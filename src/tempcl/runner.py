"""Experiment orchestration.

Assembles datasets from a parsed config, runs the training loop with
evaluation snapshots (kNN, probes, coverage), writes analysis CSVs and
checkpoints, and emits a deterministic metrics.csv.  Also provides the
checkpoint-based evaluation and analysis entry points used by the CLI.
"""

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
    synth_balanced,
    synth_mixture,
    write_atomic,
)
from tempcl.encoder import (
    NegativeSource,
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
    "NumericDivergenceError",
    "build_datasets",
    "synthetic_datasets",
    "run_experiment",
    "eval_checkpoint",
    "analyze_checkpoint",
    "snapshot_epochs",
]


KNN_K = (1, 10)  # the neighbour counts of every snapshot's kNN accuracy


class NumericDivergenceError(RuntimeError):
    """Training produced non-finite values."""


def _paths(value: str) -> list:
    return [p.strip() for p in value.split(",") if p.strip()]


def synthetic_datasets(cfg: ExperimentConfig) -> tuple:
    """The (long-tail train, balanced test) Gaussian mixtures that the
    ``data.*`` keys describe, whatever ``data.kind`` says."""
    d = cfg.data
    common = dict(class_separation=d.class_separation, within_sigma=d.within_sigma,
                  seed=cfg.run.seed)
    return (synth_mixture(d.classes, d.dim, d.n_max, d.imbalance, **common),
            synth_balanced(d.classes, d.dim, d.test_per_class, **common))


def build_datasets(cfg: ExperimentConfig) -> tuple:
    """The (long-tail train, balanced test) pair described by the config.
    A train set that a snapshot cannot score (fewer than 3 classes or 10
    rows, or an empty class) or an empty test set is a ConfigError; a test
    set of another width than the train set is a DataFormatError."""
    d = cfg.data
    if d.kind == "synthetic":
        train, test = synthetic_datasets(cfg)
    elif d.kind == "tcld":
        train, test = load_dataset(d.path), load_dataset(d.test_path)
    else:
        loader = load_cifar10_bin if d.kind == "cifar10" else load_cifar100_bin
        balanced = loader(_paths(d.path))
        try:
            sizes = longtail_sizes(balanced.num_classes, d.n_max, d.imbalance)
            train = subsample_longtail(balanced, sizes, cfg.run.seed,
                                       class_permutation_seed=d.permutation_seed)
        except ValueError as err:
            raise ConfigError(f"data.n_max = {d.n_max} does not fit {d.path}: {err}") from None
        test = loader(_paths(d.test_path))
    if train.num_classes < 3 or train.n < max(KNN_K):
        raise ConfigError(f"the train set has {train.n} rows of {train.num_classes} classes; a "
                          f"snapshot needs {max(KNN_K)} rows (kNN) and 3 classes (head/mid/tail)")
    empty = np.flatnonzero(train.class_sizes == 0)
    if empty.size:
        raise ConfigError(f"class {empty[0]} of the train set has no rows; the few-shot "
                          f"probe needs a row of every class")
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
    if cfg.schedule.coarse:
        return float("nan")
    return tau_at(cfg.schedule, epoch)


def _embed_train(cfg, params, train):
    """The snapshot's one forward pass of the train set: (embeddings, unit
    features, coverage histogram of the embeddings)."""
    result = forward(params, train.features)
    hist = coverage_histogram(result.embeddings, B=cfg.analysis.bins, seed=cfg.analysis.seed)
    return result.embeddings, _unit_rows(result.features)[0], hist


def _snapshot_rows(cfg, params, train_feat, hist, train, test, partition):
    """(metric, scope, value) rows for one evaluation snapshot."""
    test_feat = _unit_rows(forward(params, test.features).features)[0]
    report = knn_report(train_feat, train.labels, test_feat, test.labels,
                        k_values=KNN_K, partition=partition)
    if cfg.eval.run_probes:
        for mode in ("FS_LP", "LT_LP"):
            report.metrics.update(linear_probe(train_feat, train.labels, test_feat, test.labels,
                                               cfg.probe_config(mode), partition=partition).metrics)
    rows = report.rows()
    rows.append(("coverage_cv", "all", uniformity_stat(hist)))
    return rows


def _write_analysis(cfg, emb, feats, hist, labels, out_dir, epoch):
    tag = f"epoch{epoch:05d}"
    write_atomic(out_dir / f"coverage_{tag}.csv", coverage_csv(hist))

    tau = cfg.schedule.tau_tail if cfg.schedule.coarse else tau_at(cfg.schedule, epoch)
    curves = aggregate_contribution_curves(similarity_matrix(emb, emb), tau)
    write_atomic(out_dir / f"curves_{tag}.csv", curves_csv(curves))

    coords, _ = pca_project(feats, components=3)
    write_atomic(out_dir / f"pca_{tag}.csv", pca_csv(coords, labels))


def _format_rows(epoch, tau, rows):
    out = []
    for metric, scope, value in rows:
        out.append(f"{epoch},{tau!r},{metric},{scope},{value!r}\n")
    return out


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Train per config, writing metrics.csv, analysis CSVs, checkpoints,
    and config.resolved into run.output_dir.  Returns the final snapshot's
    overall metrics."""
    train, test = build_datasets(cfg)
    if cfg.encoder.batch_size > train.n:
        raise ConfigError(f"encoder.batch_size = {cfg.encoder.batch_size} exceeds the "
                          f"{train.n} rows of the long-tail train set")
    schedule = cfg.schedule_for(train.num_classes)
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
    lines = ["epoch,tau,metric,scope,value\n"]
    last_rows = None

    def record(epoch, extra_rows=()):
        nonlocal last_rows
        emb, feats, hist = _embed_train(cfg, params, train)
        rows = _snapshot_rows(cfg, params, feats, hist, train, test, partition)
        rows.extend(extra_rows)
        lines.extend(_format_rows(epoch, _tau_label(cfg, epoch), rows))
        if cfg.analysis.enable:
            _write_analysis(cfg, emb, feats, hist, train.labels, out_dir, epoch)
        last_rows = rows

    record(0)
    if E > 0:
        state = init_optim_state(params, base_lr=cfg.encoder.base_lr,
                                 warmup_epochs=cfg.encoder.warmup_epochs,
                                 total_epochs=E,
                                 weight_decay=cfg.encoder.weight_decay,
                                 sgd_momentum=cfg.encoder.sgd_momentum)
        for epoch in range(E):
            try:
                _, loss = train_epoch(train, params, state, schedule, source,
                                      cfg.data, seed=cfg.run.seed, epoch=epoch,
                                      batch_size=cfg.encoder.batch_size,
                                      symmetrize=cfg.encoder.symmetrize)
            except FloatingPointError as e:
                raise NumericDivergenceError(str(e)) from e
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


def _load_checkpoint_run(cfg, checkpoint_path):
    """(output dir, train set, test set, encoder, train embedding) for a
    saved encoder evaluated on the config's data."""
    train, test = build_datasets(cfg)
    params = load_checkpoint(checkpoint_path)
    in_dim = params.layers[0][0].shape[0]
    if in_dim != train.dim:
        raise DataFormatError(f"{checkpoint_path}: checkpoint input width {in_dim} "
                              f"does not match the dataset's dim {train.dim}")
    out_dir = Path(cfg.run.output_dir)  # made only once the inputs are accepted
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir, train, test, params, _embed_train(cfg, params, train)


def eval_checkpoint(cfg: ExperimentConfig, checkpoint_path, epoch: int) -> list:
    """Metrics rows for a saved encoder, identical to the in-training
    snapshot of the same epoch.  Writes eval_epoch<t>.csv to output_dir."""
    out_dir, train, test, params, (_, feats, hist) = _load_checkpoint_run(cfg, checkpoint_path)
    partition = head_mid_tail_split(train.class_sizes)
    rows = _snapshot_rows(cfg, params, feats, hist, train, test, partition)
    lines = ["epoch,tau,metric,scope,value\n"]
    lines.extend(_format_rows(epoch, _tau_label(cfg, epoch), rows))
    write_atomic(out_dir / f"eval_epoch{epoch:05d}.csv", "".join(lines))
    return rows


def analyze_checkpoint(cfg: ExperimentConfig, checkpoint_path, epoch: int) -> float:
    """Analysis CSV dumps for a saved encoder; returns the coverage CV."""
    out_dir, train, _, _, (emb, feats, hist) = _load_checkpoint_run(cfg, checkpoint_path)
    _write_analysis(cfg, emb, feats, hist, train.labels, out_dir, epoch)
    return uniformity_stat(hist)
