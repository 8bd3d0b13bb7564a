"""Experiment configuration: line-oriented ``section.key = value`` files.

``#`` starts a comment, unknown keys are rejected, and every error carries
the offending line number.  A parsed config has every default
materialized; :func:`render_config` produces the canonical text form that
round-trips through :func:`parse_config`.

Each key is one field of a section dataclass; its type alone decides how
the value is parsed.  The ``schedule.*`` section is
:class:`ScheduleConfig` itself, and the ``data.*`` section is an
:class:`AugmentationPolicy` that adds the dataset keys.  Every number in
the format is finite and >= 0, and the parser rejects any other.  Each
section is built once from its values, and a range its constructor
refuses is reported against the section, as are the ranges
:class:`ProbeConfig` checks.  Rules that need the loaded data, such as the
coarse head set (:func:`tempcl.schedule.class_tau`), are checked once it
is loaded.
"""

import math
import re
from dataclasses import dataclass, field, fields as dc_fields
from typing import Literal, get_args, get_origin

from tempcl.data import AugmentationPolicy
from tempcl.evaluation import ProbeConfig
from tempcl.schedule import PERIODIC_KINDS, ScheduleConfig

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "render_config",
]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass
class RunSection:
    seed: int = 0
    epochs: int = 400
    eval_every: int = 100
    output_dir: str = "tempcl_out"


@dataclass(frozen=True)
class DataSection(AugmentationPolicy):
    """The dataset keys; the augmentation keys are the policy's fields."""

    kind: Literal["synthetic", "tcld", "cifar10", "cifar100"] = "synthetic"
    classes: int = 10
    dim: int = 32
    n_max: int = 500
    imbalance: float = 100.0
    class_separation: float = 1.0
    within_sigma: float = 0.25
    test_per_class: int = 100
    path: str = ""
    test_path: str = ""
    permutation_seed: int | None = None


@dataclass
class EncoderSection:
    hidden_dims: tuple = (256, 128)
    embed_dim: int = 32
    projection_layers: int = 1
    batch_size: int = 128
    base_lr: float = 0.5
    warmup_epochs: int = 10
    weight_decay: float = 1e-4
    sgd_momentum: float = 0.9
    negatives: Literal["in_batch", "momentum_queue"] = "in_batch"
    queue_capacity: int = 1024
    moco_momentum: float = 0.99
    symmetrize: bool = False


@dataclass
class EvalSection:
    probe_epochs: int = 500
    probe_lr: float = 0.5
    probe_seed: int = 0
    run_probes: bool = True


@dataclass
class AnalysisSection:
    enable: bool = True
    bins: int = 500
    seed: int = 0


@dataclass
class ExperimentConfig:
    run: RunSection = field(default_factory=RunSection)
    data: DataSection = field(default_factory=DataSection)
    encoder: EncoderSection = field(default_factory=EncoderSection)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    eval: EvalSection = field(default_factory=EvalSection)
    analysis: AnalysisSection = field(default_factory=AnalysisSection)

    def probe_config(self, mode: str) -> ProbeConfig:
        ev = self.eval
        return ProbeConfig(mode=mode, epochs=ev.probe_epochs, lr=ev.probe_lr, seed=ev.probe_seed)


# --- value parsers ------------------------------------------------------

def _parse_int(text):
    value = int(text)
    if value < 0:
        raise ValueError(f"expected an integer >= 0, got {text!r}")
    return value


def _parse_float(text):
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"expected a finite number >= 0, got {text!r}")
    return value


def _parse_bool(text):
    if text in ("true", "false"):
        return text == "true"
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_int_list(text):
    if not text:
        return ()
    return tuple(_parse_int(v.strip()) for v in text.split(","))


def _parse_opt_int(text):
    return None if text == "" else _parse_int(text)


def _choice(options):
    def conv(text):
        if text not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return text
    return conv


_PARSERS = {
    int: _parse_int,
    float: _parse_float,
    str: str,
    bool: _parse_bool,
    tuple: _parse_int_list,
    int | None: _parse_opt_int,
}


def _converter(tp):
    return _choice(get_args(tp)) if get_origin(tp) is Literal else _PARSERS[tp]


_CONVERTERS = {
    (section.name, f.name): _converter(f.type)
    for section in dc_fields(ExperimentConfig)
    for f in dc_fields(section.type)
}

_LINE_RE = re.compile(r"^([a-z_]+)\.([A-Za-z0-9_]+)\s*=\s*(.*)$")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a config; missing keys take defaults."""
    values = {section.name: {} for section in dc_fields(ExperimentConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw.strip()!r}")
        section, key, value = m.group(1), m.group(2), m.group(3).strip()
        conv = _CONVERTERS.get((section, key))
        if conv is None:
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")
        if key in values[section]:
            raise ConfigError(f"line {lineno}: duplicate key {section}.{key}")
        try:
            parsed = conv(value)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {section}.{key}: {e}") from None
        values[section][key] = parsed
    sections = {}
    for section in dc_fields(ExperimentConfig):
        try:
            sections[section.name] = section.type(**values[section.name])
        except ValueError as err:
            raise ConfigError(f"{section.name}: {err}") from None
    cfg = ExperimentConfig(**sections)
    _validate(cfg)
    return cfg


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _validate(cfg: ExperimentConfig) -> None:
    """The rules no value object makes: cross-field rules, required paths
    and lower bounds above zero.  Negative and non-finite numbers never get
    here."""
    r, d, e, s = cfg.run, cfg.data, cfg.encoder, cfg.schedule

    try:
        cfg.probe_config("LT_LP")
    except ValueError as err:
        raise ConfigError(f"eval: {err}") from None

    _require(r.eval_every >= 1, "run.eval_every must be >= 1")

    _require(d.classes >= 2, "data.classes must be >= 2")
    _require(d.dim >= 2, "data.dim must be >= 2")
    _require(d.n_max >= 1, "data.n_max must be >= 1")
    _require(d.imbalance >= 1.0, "data.imbalance must be >= 1")
    _require(d.class_separation > 0, "data.class_separation must be > 0")
    _require(d.test_per_class >= 1, "data.test_per_class must be >= 1")
    if d.kind != "synthetic":
        for key in ("path", "test_path"):
            value = getattr(d, key)  # a CIFAR kind's is a comma-separated list
            names = [value] if d.kind == "tcld" else value.split(",")
            _require(any(n.strip() for n in names),
                     f"data.{key} names no file for data.kind = {d.kind}")
    if d.augment == "pixel":
        _require(d.kind in ("cifar10", "cifar100"),
                 "data.augment = pixel needs data.kind = cifar10 or cifar100 "
                 "(only the CIFAR loaders record the channel statistics)")

    _require(all(h >= 1 for h in e.hidden_dims), "encoder.hidden_dims must be positive")
    _require(e.embed_dim >= 2, "encoder.embed_dim must be >= 2")
    _require(e.projection_layers in (1, 2), "encoder.projection_layers must be 1 or 2")
    _require(e.batch_size >= 2, "encoder.batch_size must be >= 2 (loss needs a negative)")
    _require(e.base_lr > 0, "encoder.base_lr must be > 0")
    _require(e.sgd_momentum < 1, "encoder.sgd_momentum must be in [0, 1)")
    _require(e.queue_capacity >= 1, "encoder.queue_capacity must be >= 1")
    _require(0 < e.moco_momentum <= 1, "encoder.moco_momentum must be in (0, 1]")
    if e.symmetrize:
        _require(e.negatives == "in_batch", "encoder.symmetrize requires in_batch negatives")

    # coarse supervision reads neither the period nor the step length
    if r.epochs > 0 and not s.coarse and s.kind in PERIODIC_KINDS:
        _require(s.period_T <= r.epochs,
                 "schedule.period_T must be <= run.epochs for periodic schedules")
    if r.epochs > 0 and not s.coarse and s.kind == "step":
        _require(s.step_length <= r.epochs, "schedule.step_length must be <= run.epochs")

    _require(cfg.analysis.bins >= 1, "analysis.bins must be >= 1")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical text form (sorted keys); parses back to an equal config."""
    lines = []
    for section in dc_fields(ExperimentConfig):
        obj = getattr(cfg, section.name)
        for f in sorted(dc_fields(obj), key=lambda f: f.name):
            lines.append(f"{section.name}.{f.name} = {_format_value(getattr(obj, f.name))}")
    return "\n".join(lines) + "\n"
