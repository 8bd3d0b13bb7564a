"""Tests for the config format: the render/parse round trip, line-numbered
errors, and the cross-field rules."""

import pytest

from tempcl.config import ConfigError, ExperimentConfig, parse_config, render_config

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

    def test_cross_field_rule(self):
        with pytest.raises(ConfigError, match="period_T must be <= run.epochs"):
            parse_config("run.epochs = 10\nschedule.period_T = 20\n")


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
        assert cfg.augmentation_policy().mode == "pixel"
