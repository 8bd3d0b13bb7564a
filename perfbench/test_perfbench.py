"""Tests of the benchmark's own code: the percentile helper, span
arithmetic, the tracer's rebinding, and a toy-size smoke run of each
workload through the same code path as a real measurement.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tempcl.encoder  # noqa: E402
import tempcl.evaluation  # noqa: E402
import tempcl.loss  # noqa: E402
import tempcl.runner  # noqa: E402
from tempcl.config import parse_config  # noqa: E402
from tempcl.data import AugmentationPolicy, synth_mixture  # noqa: E402
from tempcl.encoder import NegativeSource, init_encoder, init_optim_state  # noqa: E402
from tempcl.schedule import ScheduleConfig  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import CIFAR10_RECORD, WORKLOADS, pixel_inputs  # noqa: E402


PER_LAYER = [m["name"] for m in run.SPEC["per_layer"]]


class TestPercentile:
    def test_p90_of_100_samples(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        assert run.percentile(values, 90) == 90

    def test_refuses_fewer_than_ten_beyond(self):
        with pytest.raises(ValueError, match="fewer than 10 beyond"):
            run.percentile(range(99), 90)
        with pytest.raises(ValueError):
            run.percentile([], 50)

    def test_median_rank_allowed_with_enough_samples(self):
        assert run.percentile(range(1, 21), 50) == 10


def test_fastest_segments_take_each_segment_from_its_fastest_run():
    # segments: lead-in, epoch 0, gap, epoch 1, tail; b is slower in epoch 0 only
    a = {"epochs": [[1.0, 2.0], [2.5, 3.0]], "run_s": 4.0}
    b = {"epochs": [[0.5, 2.5], [2.6, 3.1]], "run_s": 3.5}
    assert run.segments(a) == pytest.approx([1.0, 1.0, 0.5, 0.5, 1.0])
    assert run.fastest_segments([a, b]) == pytest.approx([0.5, 1.0, 0.1, 0.5, 0.4])


def span(name, start, end, parent, size=0):
    return [name, start, end, parent, size]


class TestSpanArithmetic:
    TREE = [
        span("runner.run_experiment", 0.0, 10.0, -1),
        span("encoder.train_epoch", 1.0, 5.0, 0),
        span("encoder.forward", 1.5, 2.0, 1, 64),
        span("data.augment_batch", 2.0, 3.0, 1, 64),
        span("encoder.forward", 6.0, 8.0, 0, 100),
    ]

    def test_self_time_is_duration_minus_children(self):
        assert self_times(self.TREE) == pytest.approx([10 - 4 - 2, 4 - 0.5 - 1, 0.5, 1.0, 2.0])

    def test_layer_metrics(self):
        m = layer_metrics(self.TREE, wall_s=12.0, untraced_run_s=10.0, names=PER_LAYER)
        assert m["encoder.forward.train.calls"] == 1
        assert m["encoder.forward.train.rows"] == 64
        assert m["encoder.forward.eval.s"] == pytest.approx(2.0)
        assert m["encoder.train_epoch.self_s"] == pytest.approx(2.5)
        assert m["runner.run_experiment.self_s"] == pytest.approx(4.0)
        assert m["data.augment_batch.rows"] == 64
        assert m["trace.overhead_frac"] == pytest.approx(0.2)
        # everything but run_experiment's own 4 s is covered, out of 12 s
        assert m["trace.covered_frac"] == pytest.approx(6.0 / 12.0)
        assert m["loss.info_nce.calls"] == 0
        assert list(m) == PER_LAYER

    def test_nested_same_name_counts_once_in_time(self):
        spans = [span("loss.info_nce", 0.0, 4.0, -1), span("loss.info_nce", 1.0, 2.0, 0)]
        m = layer_metrics(spans, wall_s=4.0, untraced_run_s=4.0, names=PER_LAYER)
        assert m["loss.info_nce.calls"] == 2
        assert m["loss.info_nce.s"] == pytest.approx(4.0)
        assert m["loss.s"] == pytest.approx(4.0)


def _tiny_epoch():
    ds = synth_mixture(4, 8, 20, 2.0, seed=0)
    params = init_encoder(ds.dim, (16,), 8, seed=0)
    state = init_optim_state(params, base_lr=0.1, warmup_epochs=0, total_epochs=1)
    tempcl.encoder.train_epoch(ds, params, state, ScheduleConfig(kind="constant"),
                               NegativeSource.in_batch(), AugmentationPolicy(), seed=0,
                               epoch=0, batch_size=16)
    return ds.n // 16


class TestTracer:
    def test_rebinding_sees_calls_within_and_across_modules(self):
        original = tempcl.runner.forward
        tracer = Tracer()
        tracer.install()
        try:
            assert tempcl.runner.forward is not original
            assert tempcl.runner.forward is tempcl.encoder.forward
            batches = _tiny_epoch()
            U = np.eye(4)
            tempcl.evaluation.knn_report(U, np.arange(4), U, np.arange(4), k_values=(1,))
        finally:
            tracer.uninstall()
        assert tempcl.runner.forward is original
        parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
        # encoder -> data, and evaluation -> evaluation through a module global
        assert parents["data.augment_batch"] == "encoder.train_epoch"
        assert parents["evaluation.knn_classify"] == "evaluation.knn_report"
        m = layer_metrics(tracer.spans, wall_s=1.0, untraced_run_s=1.0, names=PER_LAYER)
        assert m["encoder.forward.train.calls"] == 2 * batches
        assert m["data.augment_batch.rows"] == 2 * batches * 16
        assert m["evaluation.knn_classify.calls"] == 1

    def test_missing_all_name_reports_zero_calls(self, monkeypatch):
        monkeypatch.delattr(tempcl.loss, "info_nce_symmetrized")
        assert "info_nce_symmetrized" in tempcl.loss.__all__
        tracer = Tracer()
        tracer.install()
        try:
            batches = _tiny_epoch()
        finally:
            tracer.uninstall()
        m = layer_metrics(tracer.spans, wall_s=1.0, untraced_run_s=1.0, names=PER_LAYER)
        assert m["loss.info_nce_symmetrized.calls"] == 0
        assert m["loss.info_nce.calls"] == batches


def test_pixel_inputs_follow_the_seed():
    a, b = pixel_inputs(3), pixel_inputs(3)
    assert a == b and a != pixel_inputs(4)
    assert len(a[0]) % CIFAR10_RECORD == 0 and len(a[1]) % CIFAR10_RECORD == 0


def test_workload_configs_parse():
    for w in WORKLOADS.values():
        cfg = parse_config(w.config.replace("{data_dir}", "d"))
        assert cfg.run.epochs >= 100  # so epoch p90 has ten samples beyond it


# Toy sizes: 100 short epochs (the epoch p90 needs them) on a few rows.
TOY = {
    "pixel-inbatch": {"data.n_max": "10", "encoder.batch_size": "32",
                      "encoder.hidden_dims": "32"},
    "k100-moco": {"data.n_max": "4", "data.test_per_class": "2", "encoder.batch_size": "64",
                  "encoder.queue_capacity": "128"},
}
TOY_COMMON = {"run.epochs": "100", "run.eval_every": "50", "schedule.period_T": "50",
              "eval.probe_epochs": "20", "analysis.bins": "50"}


def toy(workload):
    overrides = {**TOY_COMMON, **TOY[workload.name]}
    lines = [line for line in workload.config.splitlines()
             if line.split("=")[0].strip() not in overrides]
    lines += [f"{key} = {value}" for key, value in overrides.items()]
    return dataclasses.replace(workload, config="\n".join(lines) + "\n", knn10_floor=0.0)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced_run(name, tmp_path):
    result = run.measure(toy(WORKLOADS[name]), seed=1, seconds=0.1, trace=1, log=lambda _: None,
                         work_root=tmp_path / "work")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3  # a clocked run, a traced run, the checkpoint check
    assert list(result["metrics"]) == PER_LAYER
    assert result["metrics"]["trace.covered_frac"]["value"] > 0.5
    assert not (tmp_path / "work").exists()


def test_smoke_clocked_run(tmp_path):
    result = run.measure(toy(WORKLOADS["k100-moco"]), seed=2, seconds=0.1, trace=0,
                         log=lambda _: None, work_root=tmp_path / "work")
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == [
        (m["name"], m["unit"]) for m in run.SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in metrics.values())
