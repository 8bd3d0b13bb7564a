"""Experiment configuration: line-oriented ``section.key = value`` files.

``#`` starts a comment, unknown keys are rejected, and every error carries
the offending line number.  A parsed config has every default
materialized; :func:`render_config` produces the canonical text form that
round-trips through :func:`parse_config`.
"""

import re
from dataclasses import dataclass, field, fields as dc_fields

from tempcl.data import AugmentationPolicy
from tempcl.schedule import SCHEDULE_KINDS, CoarseTauConfig, ScheduleConfig

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


@dataclass
class DataSection:
    kind: str = "synthetic"
    classes: int = 10
    dim: int = 32
    n_max: int = 500
    imbalance: float = 100.0
    class_separation: float = 1.0
    within_sigma: float = 0.25
    test_per_class: int = 100
    path: str = ""
    test_path: str = ""
    augment: str = "embedding_noise"
    noise_sigma: float = 0.1
    dropout_prob: float = 0.0
    flip_prob: float = 0.5
    crop_padding: int = 4
    pixel_noise_sigma: float = 0.02
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
    negatives: str = "in_batch"
    queue_capacity: int = 1024
    moco_momentum: float = 0.99
    symmetrize: bool = False


@dataclass
class ScheduleSection:
    kind: str = "cosine"
    tau_minus: float = 0.1
    tau_plus: float = 1.0
    period_T: int = 400
    step_length: int = 200
    seed: int = 0
    constant_tau: float = 0.2
    coarse: bool = False
    tau_head: float = 1.0
    tau_tail: float = 0.1
    head_classes: tuple = ()


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
    schedule: ScheduleSection = field(default_factory=ScheduleSection)
    eval: EvalSection = field(default_factory=EvalSection)
    analysis: AnalysisSection = field(default_factory=AnalysisSection)

    def schedule_config(self) -> ScheduleConfig:
        s = self.schedule
        return ScheduleConfig(
            kind=s.kind,
            tau_minus=s.tau_minus,
            tau_plus=s.tau_plus,
            period_T=s.period_T,
            step_length=s.step_length,
            seed=s.seed,
            constant_tau=s.constant_tau,
        )

    def coarse_config(self, num_classes: int) -> CoarseTauConfig:
        """Coarse supervision; an empty head set defaults to the most
        frequent half of the classes (ids 0..ceil(K/2)-1)."""
        s = self.schedule
        head = s.head_classes or tuple(range((num_classes + 1) // 2))
        return CoarseTauConfig(
            head_classes=frozenset(head), tau_head=s.tau_head, tau_tail=s.tau_tail
        )

    def augmentation_policy(self) -> AugmentationPolicy:
        d = self.data
        return AugmentationPolicy(
            mode=d.augment,
            noise_sigma=d.noise_sigma,
            dropout_prob=d.dropout_prob,
            flip_prob=d.flip_prob,
            crop_padding=d.crop_padding,
            pixel_noise_sigma=d.pixel_noise_sigma,
        )


# --- field registry ----------------------------------------------------

def _parse_bool(text):
    if text in ("true", "false"):
        return text == "true"
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_int_list(text):
    if not text:
        return ()
    return tuple(int(v.strip()) for v in text.split(","))


def _parse_opt_int(text):
    return None if text == "" else int(text)


def _choice(*options):
    def conv(text):
        if text not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return text
    return conv


_CONVERTERS = {
    ("run", "seed"): int,
    ("run", "epochs"): int,
    ("run", "eval_every"): int,
    ("run", "output_dir"): str,
    ("data", "kind"): _choice("synthetic", "tcld", "cifar10", "cifar100"),
    ("data", "classes"): int,
    ("data", "dim"): int,
    ("data", "n_max"): int,
    ("data", "imbalance"): float,
    ("data", "class_separation"): float,
    ("data", "within_sigma"): float,
    ("data", "test_per_class"): int,
    ("data", "path"): str,
    ("data", "test_path"): str,
    ("data", "augment"): _choice("embedding_noise", "pixel"),
    ("data", "noise_sigma"): float,
    ("data", "dropout_prob"): float,
    ("data", "flip_prob"): float,
    ("data", "crop_padding"): int,
    ("data", "pixel_noise_sigma"): float,
    ("data", "permutation_seed"): _parse_opt_int,
    ("encoder", "hidden_dims"): _parse_int_list,
    ("encoder", "embed_dim"): int,
    ("encoder", "projection_layers"): int,
    ("encoder", "batch_size"): int,
    ("encoder", "base_lr"): float,
    ("encoder", "warmup_epochs"): int,
    ("encoder", "weight_decay"): float,
    ("encoder", "sgd_momentum"): float,
    ("encoder", "negatives"): _choice("in_batch", "momentum_queue"),
    ("encoder", "queue_capacity"): int,
    ("encoder", "moco_momentum"): float,
    ("encoder", "symmetrize"): _parse_bool,
    ("schedule", "kind"): _choice(*SCHEDULE_KINDS),
    ("schedule", "tau_minus"): float,
    ("schedule", "tau_plus"): float,
    ("schedule", "period_T"): int,
    ("schedule", "step_length"): int,
    ("schedule", "seed"): int,
    ("schedule", "constant_tau"): float,
    ("schedule", "coarse"): _parse_bool,
    ("schedule", "tau_head"): float,
    ("schedule", "tau_tail"): float,
    ("schedule", "head_classes"): _parse_int_list,
    ("eval", "probe_epochs"): int,
    ("eval", "probe_lr"): float,
    ("eval", "probe_seed"): int,
    ("eval", "run_probes"): _parse_bool,
    ("analysis", "enable"): _parse_bool,
    ("analysis", "bins"): int,
    ("analysis", "seed"): int,
}

_LINE_RE = re.compile(r"^([a-z_]+)\.([A-Za-z0-9_]+)\s*=\s*(.*)$")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a config; missing keys take defaults."""
    cfg = ExperimentConfig()
    seen = set()
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
        if (section, key) in seen:
            raise ConfigError(f"line {lineno}: duplicate key {section}.{key}")
        seen.add((section, key))
        try:
            parsed = conv(value)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {section}.{key}: {e}") from None
        setattr(getattr(cfg, section), key, parsed)
    _validate(cfg)
    return cfg


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _validate(cfg: ExperimentConfig) -> None:
    r, d, e, s, ev, an = cfg.run, cfg.data, cfg.encoder, cfg.schedule, cfg.eval, cfg.analysis

    _require(r.epochs >= 0, "run.epochs must be >= 0")
    _require(r.eval_every >= 1, "run.eval_every must be >= 1")
    _require(r.seed >= 0, "run.seed must be >= 0")

    _require(d.classes >= 2, "data.classes must be >= 2")
    _require(d.dim >= 2, "data.dim must be >= 2")
    _require(d.n_max >= 1, "data.n_max must be >= 1")
    _require(d.imbalance >= 1.0, "data.imbalance must be >= 1")
    _require(d.class_separation > 0, "data.class_separation must be > 0")
    _require(d.within_sigma >= 0, "data.within_sigma must be >= 0")
    _require(d.test_per_class >= 1, "data.test_per_class must be >= 1")
    _require(d.noise_sigma >= 0 and d.pixel_noise_sigma >= 0, "noise sigmas must be >= 0")
    _require(0 <= d.dropout_prob < 1, "data.dropout_prob must be in [0, 1)")
    _require(0 <= d.flip_prob <= 1, "data.flip_prob must be in [0, 1]")
    _require(d.crop_padding >= 0, "data.crop_padding must be >= 0")
    if d.kind in ("tcld", "cifar10", "cifar100"):
        _require(d.path != "", f"data.path required for data.kind = {d.kind}")
        _require(d.test_path != "", f"data.test_path required for data.kind = {d.kind}")
    if d.augment == "pixel":
        _require(d.kind in ("cifar10", "cifar100"),
                 "data.augment = pixel needs data.kind = cifar10 or cifar100 "
                 "(only the CIFAR loaders record the channel statistics)")

    _require(all(h >= 1 for h in e.hidden_dims), "encoder.hidden_dims must be positive")
    _require(e.embed_dim >= 2, "encoder.embed_dim must be >= 2")
    _require(e.projection_layers in (1, 2), "encoder.projection_layers must be 1 or 2")
    _require(e.batch_size >= 2, "encoder.batch_size must be >= 2 (loss needs a negative)")
    _require(e.base_lr > 0, "encoder.base_lr must be > 0")
    _require(e.warmup_epochs >= 0, "encoder.warmup_epochs must be >= 0")
    _require(e.weight_decay >= 0, "encoder.weight_decay must be >= 0")
    _require(0 <= e.sgd_momentum < 1, "encoder.sgd_momentum must be in [0, 1)")
    _require(e.queue_capacity >= 1, "encoder.queue_capacity must be >= 1")
    _require(0 < e.moco_momentum <= 1, "encoder.moco_momentum must be in (0, 1]")
    if e.symmetrize:
        _require(e.negatives == "in_batch", "encoder.symmetrize requires in_batch negatives")

    _require(0 < s.tau_minus <= s.tau_plus,
             "schedule.tau_minus must satisfy 0 < tau_minus <= tau_plus")
    _require(s.period_T >= 1, "schedule.period_T must be >= 1")
    _require(s.step_length >= 1, "schedule.step_length must be >= 1")
    _require(s.constant_tau > 0, "schedule.constant_tau must be > 0")
    if r.epochs > 0 and s.kind in ("cosine", "linear_oscillation"):
        _require(s.period_T <= r.epochs,
                 "schedule.period_T must be <= run.epochs for periodic schedules")
    if r.epochs > 0 and s.kind == "step":
        _require(s.step_length <= r.epochs, "schedule.step_length must be <= run.epochs")
    _require(s.tau_head > 0 and s.tau_tail > 0, "coarse temperatures must be > 0")
    if s.head_classes:
        _require(all(0 <= c < d.classes for c in s.head_classes),
                 f"schedule.head_classes must lie in [0, {d.classes})")
        _require(len(set(s.head_classes)) < d.classes,
                 "schedule.head_classes must be a strict subset of all classes")

    _require(ev.probe_epochs >= 1, "eval.probe_epochs must be >= 1")
    _require(ev.probe_lr > 0, "eval.probe_lr must be > 0")
    _require(an.bins >= 1, "analysis.bins must be >= 1")


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
    for section in ("run", "data", "encoder", "schedule", "eval", "analysis"):
        obj = getattr(cfg, section)
        for f in sorted(dc_fields(obj), key=lambda f: f.name):
            lines.append(f"{section}.{f.name} = {_format_value(getattr(obj, f.name))}")
    return "\n".join(lines) + "\n"
