"""Tests for the config format: the render/parse round trip, line-numbered
errors, and the cross-field rules."""

from dataclasses import fields

import numpy as np
import pytest

from tempcl.config import ConfigError, ExperimentConfig, parse_config, render_config
from tempcl.data import AugmentationPolicy
from tempcl.schedule import class_tau

NON_DEFAULT = """\
# every kind of value: int, float, str, bool, choice, int list, optional int
run.seed = 7
run.output_dir = out/a b
data.imbalance = 12.5
data.permutation_seed = 3
encoder.hidden_dims = 64,32
encoder.symmetrize = true
encoder.base_lr = 0.1
schedule.kind = linear_oscillation
schedule.head_classes = 0,2
eval.run_probes = false
analysis.bins = 17
"""


class TestRoundTrip:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()
        assert parse_config(render_config(cfg)) == cfg

    def test_non_default_values(self):
        cfg = parse_config(NON_DEFAULT)
        assert cfg.run.output_dir == "out/a b"
        assert cfg.encoder.hidden_dims == (64, 32)
        assert cfg.data.permutation_seed == 3
        text = render_config(cfg)
        assert parse_config(text) == cfg
        assert render_config(parse_config(text)) == text

    def test_rendered_keys_are_sorted_within_sections(self):
        lines = render_config(parse_config("")).splitlines()
        run_keys = [line.split(" = ")[0] for line in lines if line.startswith("run.")]
        assert run_keys == sorted(run_keys)
        assert lines[0].startswith("run.") and lines[-1].startswith("analysis.")


class TestErrors:
    @pytest.mark.parametrize("text, message", [
        ("run.seed = 1\nrun.epochs = many\n", "line 2: bad value for run.epochs"),
        ("# comment\n\nrun.nope = 1\n", "line 3: unknown key run.nope"),
        ("run.seed = 1\n\nrun.seed = 2\n", "line 3: duplicate key run.seed"),
        ("run.seed 1\n", "line 1: expected 'section.key = value'"),
        ("encoder.symmetrize = yes\n", "line 1: bad value for encoder.symmetrize"),
        ("data.kind = imagenet\n", "line 1: bad value for data.kind"),
    ])
    def test_line_numbered(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    @pytest.mark.parametrize("line", [
        "schedule.seed = -1",
        "eval.probe_seed = -1",
        "analysis.seed = -1",
        "data.permutation_seed = -1",
        "schedule.tau_plus = inf",
        "schedule.constant_tau = inf",
        "data.noise_sigma = inf",
        "eval.probe_lr = inf",
        "data.within_sigma = nan",
        "encoder.hidden_dims = 16,-4",
    ])
    def test_negative_and_non_finite_numbers(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"line 2: bad value for {key}: expected"):
            parse_config("# every number is finite and >= 0\n" + line + "\n")

    @pytest.mark.parametrize("text, message", [
        ("schedule.tau_minus = 2\n", "schedule: need 0 < tau_minus <= tau_plus"),
        ("schedule.period_T = 0\n", "schedule: period_T must be >= 1"),
        ("data.flip_prob = 1.5\n", "data: flip_prob must be in"),
        ("data.dropout_prob = 1\n", "data: dropout_prob must be in"),
        ("eval.probe_epochs = 0\n", "eval: need epochs >= 1"),
        ("schedule.tau_head = 0\n", "schedule: tau_head and tau_tail must be > 0"),
    ])
    def test_value_object_rules_carry_the_section(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_cross_field_rule(self):
        with pytest.raises(ConfigError, match="period_T must be <= run.epochs"):
            parse_config("run.epochs = 10\nschedule.period_T = 20\n")

    @pytest.mark.parametrize("kind, key", [("cosine", "period_T"), ("step", "step_length")])
    def test_schedule_length_rules_hold_without_coarse_supervision(self, kind, key):
        with pytest.raises(ConfigError, match=f"schedule.{key} must be <= run.epochs"):
            parse_config(f"run.epochs = 6\nschedule.kind = {kind}\nschedule.{key} = 20\n")

    @pytest.mark.parametrize("kind, key", [("cosine", "period_T"), ("step", "step_length")])
    def test_coarse_supervision_reads_no_schedule_length(self, kind, key):
        cfg = parse_config(f"run.epochs = 6\nschedule.kind = {kind}\nschedule.{key} = 20\n"
                           "schedule.coarse = true\n")
        assert cfg.schedule.coarse and getattr(cfg.schedule, key) == 20


class TestPixelAugmentation:
    @pytest.mark.parametrize("text", [
        "data.dim = 3072\n",
        "data.kind = tcld\ndata.path = a\ndata.test_path = b\n",
    ])
    def test_rejected_without_cifar_data(self, text):
        # only the CIFAR loaders record the channel statistics pixel views need
        with pytest.raises(ConfigError, match="data.augment = pixel needs"):
            parse_config(text + "data.augment = pixel\n")

    @pytest.mark.parametrize("kind", ["cifar10", "cifar100"])
    def test_accepted_with_cifar_data(self, kind):
        cfg = parse_config(f"data.kind = {kind}\ndata.path = a\ndata.test_path = b\n"
                           "data.augment = pixel\n")
        assert cfg.data.augment == "pixel"


class TestKeysAreFields:
    def test_every_field_is_one_key(self):
        lines = render_config(parse_config("")).splitlines()
        keys = [f"{section.name}.{f.name}" for section in fields(ExperimentConfig)
                for f in fields(section.type)]
        assert len(keys) == 51
        assert sorted(line.split(" = ")[0] for line in lines) == sorted(keys)
        for line in lines:  # each key parses on its own
            assert parse_config(line + "\n") == ExperimentConfig()

    def test_value_objects_take_the_section_values(self):
        cfg = parse_config("schedule.kind = step\nschedule.step_length = 7\n"
                           "schedule.seed = 3\ndata.flip_prob = 0.25\n")
        sched = cfg.schedule
        assert (sched.kind, sched.step_length, sched.seed) == ("step", 7, 3)
        assert isinstance(cfg.data, AugmentationPolicy) and cfg.data.flip_prob == 0.25


def head_of(cfg, class_sizes):
    """The classes that take tau_head in the config's per-class table."""
    taus = class_tau(cfg.schedule, class_sizes, 0)
    return set(np.flatnonzero(taus == cfg.schedule.tau_head).tolist())


class TestHeadClasses:
    def test_checked_against_the_loaded_class_count(self):
        # data.classes describes the synthetic generator only; loaded data
        # may have more classes
        cfg = parse_config("schedule.coarse = true\nschedule.head_classes = 0,50\n")
        assert head_of(cfg, [1] * 100) == {0, 50}
        with pytest.raises(ValueError, match=r"must lie in \[0, 40\)"):
            class_tau(cfg.schedule, [1] * 40, 0)

    def test_strict_subset(self):
        cfg = parse_config("schedule.coarse = true\nschedule.head_classes = 0,1,2\n")
        with pytest.raises(ValueError, match="strict subset"):
            class_tau(cfg.schedule, [3, 2, 1], 0)

    def test_default_is_the_frequent_half(self):
        cfg = parse_config("schedule.coarse = true\n")
        assert class_tau(cfg.schedule, [9, 7, 5, 3, 1], 0).tolist() == [1.0, 1.0, 1.0, 0.1, 0.1]

    @pytest.mark.parametrize("sizes, head", [
        ([2, 4, 8, 16, 32, 64], {5, 4, 3}),
        ([5, 1, 5, 3, 9, 3, 1], {4, 0, 2, 3}),  # ties go to the smaller id
        ([4, 4, 4, 4], {0, 1}),
    ])
    def test_default_head_is_the_largest_classes_in_any_order(self, sizes, head):
        assert head_of(parse_config("schedule.coarse = true\n"), sizes) == head

    def test_an_explicit_head_set_is_used_as_given(self):
        cfg = parse_config("schedule.coarse = true\nschedule.head_classes = 4,0\n")
        assert head_of(cfg, [2, 4, 8, 16, 32, 64]) == {0, 4}

    def test_unread_without_coarse_supervision(self):
        # only coarse supervision reads the head set
        cfg = parse_config("schedule.head_classes = 0,1,2\n")
        assert class_tau(cfg.schedule, [1, 1, 1], 0).tolist() == [1.0] * 3  # cosine at t = 0
