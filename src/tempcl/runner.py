"""Experiment orchestration.

Assembles datasets from a parsed config, runs the training loop with
evaluation snapshots (kNN, probes, coverage), writes analysis CSVs and
checkpoints, and emits a deterministic metrics.csv.  Also provides the
checkpoint-based evaluation and analysis entry points used by the CLI.
"""

import dataclasses
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
from tempcl.config import ExperimentConfig, render_config
from tempcl.data import (
    DataFormatError,
    LongTailDataset,
    channel_stats,
    destandardize_pixels,
    load_cifar10_bin,
    load_cifar100_bin,
    load_dataset,
    longtail_sizes,
    head_mid_tail_split,
    standardize_pixels,
    subsample_longtail,
    synth_balanced,
    synth_mixture,
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
from tempcl.evaluation import ProbeConfig, knn_report, linear_probe
from tempcl.loss import _unit_rows
from tempcl.schedule import recommended_eval_epoch, tau_at

__all__ = [
    "NumericDivergenceError",
    "build_datasets",
    "run_experiment",
    "eval_checkpoint",
    "analyze_checkpoint",
    "snapshot_epochs",
]


class NumericDivergenceError(RuntimeError):
    """Training produced non-finite values."""


def _paths(value: str) -> list:
    return [p.strip() for p in value.split(",") if p.strip()]


def build_datasets(cfg: ExperimentConfig) -> tuple:
    """The (long-tail train, balanced test) pair described by the config."""
    d = cfg.data
    seed = cfg.run.seed
    if d.kind == "synthetic":
        train = synth_mixture(d.classes, d.dim, d.n_max, d.imbalance,
                              class_separation=d.class_separation,
                              within_sigma=d.within_sigma, seed=seed)
        test = synth_balanced(d.classes, d.dim, d.test_per_class,
                              class_separation=d.class_separation,
                              within_sigma=d.within_sigma, seed=seed)
        return train, test
    if d.kind == "tcld":
        return load_dataset(d.path), load_dataset(d.test_path)
    loader = load_cifar10_bin if d.kind == "cifar10" else load_cifar100_bin
    if d.kind == "cifar10":
        balanced = loader(_paths(d.path))
    else:
        balanced = loader(d.path)
    sizes = longtail_sizes(balanced.num_classes, d.n_max, d.imbalance)
    train = subsample_longtail(balanced, sizes, seed,
                               class_permutation_seed=d.permutation_seed)
    test = load_cifar10_bin(_paths(d.test_path)) if d.kind == "cifar10" else loader(d.test_path)
    return train, test


def _pixel_view(ds: LongTailDataset) -> LongTailDataset:
    """Dataset with features in [0, 1] pixel space (the augmentation domain)."""
    mean, std = channel_stats(ds.provenance)
    return dataclasses.replace(ds, features=destandardize_pixels(ds.features, mean, std))


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
    return tau_at(cfg.schedule_config(), epoch)


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
                        k_values=(1, 10), partition=partition)
    if cfg.eval.run_probes:
        for mode in ("FS_LP", "LT_LP"):
            probe_cfg = ProbeConfig(mode=mode, epochs=cfg.eval.probe_epochs,
                                    lr=cfg.eval.probe_lr, seed=cfg.eval.probe_seed)
            probe = linear_probe(train_feat, train.labels, test_feat, test.labels,
                                 probe_cfg, partition=partition)
            report = report.merged_with(probe)
    rows = list(report.rows())
    rows.append(("coverage_cv", "all", uniformity_stat(hist)))
    return rows


def _write_analysis(cfg, emb, feats, hist, labels, out_dir, epoch):
    tag = f"epoch{epoch:05d}"
    (out_dir / f"coverage_{tag}.csv").write_text(coverage_csv(hist))

    tau = _tau_label(cfg, epoch)
    if np.isnan(tau):
        tau = cfg.schedule.tau_tail
    S = np.clip(emb @ emb.T, -1.0, 1.0)
    curves = aggregate_contribution_curves(S, tau, mode="pooled")
    (out_dir / f"curves_{tag}.csv").write_text(curves_csv(curves))

    coords, _ = pca_project(feats, components=3)
    (out_dir / f"pca_{tag}.csv").write_text(pca_csv(coords, labels))


def _format_rows(epoch, tau, rows):
    out = []
    for metric, scope, value in rows:
        out.append(f"{epoch},{tau!r},{metric},{scope},{value!r}\n")
    return out


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Train per config, writing metrics.csv, analysis CSVs, checkpoints,
    and config.resolved into run.output_dir.  Returns the final snapshot's
    overall metrics."""
    out_dir = Path(cfg.run.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.resolved").write_text(render_config(cfg))

    train, test = build_datasets(cfg)
    partition = head_mid_tail_split(train.class_sizes)
    policy = cfg.augmentation_policy()

    view_transform = None
    train_ds = train
    if policy.mode == "pixel":
        mean, std = channel_stats(train.provenance)
        train_ds = _pixel_view(train)
        view_transform = lambda V: standardize_pixels(V, mean, std)

    E = cfg.run.epochs
    params = init_encoder(train.dim, cfg.encoder.hidden_dims, cfg.encoder.embed_dim,
                          projection_layers=cfg.encoder.projection_layers,
                          seed=cfg.run.seed)
    if cfg.encoder.negatives == "momentum_queue":
        source = NegativeSource.momentum_queue(params, capacity=cfg.encoder.queue_capacity,
                                               momentum_m=cfg.encoder.moco_momentum)
    else:
        source = NegativeSource.in_batch()
    schedule = (cfg.coarse_config(train.num_classes) if cfg.schedule.coarse
                else cfg.schedule_config())

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
                _, loss = train_epoch(train_ds, params, state, schedule, source,
                                      policy, seed=cfg.run.seed, epoch=epoch,
                                      batch_size=cfg.encoder.batch_size,
                                      symmetrize=cfg.encoder.symmetrize,
                                      view_transform=view_transform)
            except FloatingPointError as e:
                raise NumericDivergenceError(str(e)) from e
            done = epoch + 1
            if done in snapshots:
                record(done, extra_rows=[("train_loss", "all", loss)])
            if done in checkpoints:
                save_checkpoint(params, out_dir / f"checkpoint_epoch{done:05d}.tclp")
        save_checkpoint(params, out_dir / "checkpoint_final.tclp")

    (out_dir / "metrics.csv").write_text("".join(lines))

    summary = {}
    for metric, scope, value in last_rows:
        if scope == "all":
            summary[metric] = float(value)
            print(f"final {metric} = {value!r}")
    return summary


def _load_encoder(checkpoint_path, train: LongTailDataset):
    params = load_checkpoint(checkpoint_path)
    in_dim = params.layers()[0][0].shape[0]
    if in_dim != train.dim:
        raise DataFormatError(f"{checkpoint_path}: checkpoint input width {in_dim} "
                              f"does not match the dataset's dim {train.dim}")
    return params


def eval_checkpoint(cfg: ExperimentConfig, checkpoint_path, epoch: int) -> list:
    """Metrics rows for a saved encoder, identical to the in-training
    snapshot of the same epoch.  Writes eval_epoch<t>.csv to output_dir."""
    out_dir = Path(cfg.run.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train, test = build_datasets(cfg)
    params = _load_encoder(checkpoint_path, train)
    partition = head_mid_tail_split(train.class_sizes)
    _, feats, hist = _embed_train(cfg, params, train)
    rows = _snapshot_rows(cfg, params, feats, hist, train, test, partition)
    lines = ["epoch,tau,metric,scope,value\n"]
    lines.extend(_format_rows(epoch, _tau_label(cfg, epoch), rows))
    (out_dir / f"eval_epoch{epoch:05d}.csv").write_text("".join(lines))
    return rows


def analyze_checkpoint(cfg: ExperimentConfig, checkpoint_path, epoch: int) -> float:
    """Analysis CSV dumps for a saved encoder; returns the coverage CV."""
    out_dir = Path(cfg.run.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train, _ = build_datasets(cfg)
    params = _load_encoder(checkpoint_path, train)
    emb, feats, hist = _embed_train(cfg, params, train)
    _write_analysis(cfg, emb, feats, hist, train.labels, out_dir, epoch)
    return uniformity_stat(hist)
