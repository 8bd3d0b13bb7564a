"""The temperature each anchor gets at each epoch.

Provides the oscillating cosine schedule plus the alternatives it is
compared against (triangle wave, step function, per-epoch random draws,
constant), coarse per-class temperatures keyed on head/tail membership
(:func:`class_tau`), and each period's evaluation epoch (:func:`eval_epochs`).
Every rule of what a kind or coarse supervision means lives here; under
coarse supervision an epoch has no one temperature, and :func:`tau_at` is NaN.
"""

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from tempcl.data import _by_size

__all__ = [
    "SCHEDULE_KINDS",
    "PERIODIC_KINDS",
    "ScheduleConfig",
    "tau_at",
    "class_tau",
    "eval_epochs",
]

SCHEDULE_KINDS = ("constant", "cosine", "linear_oscillation", "step", "random")
PERIODIC_KINDS = ("cosine", "linear_oscillation")  # the kinds that period_T drives


@dataclass(frozen=True)
class ScheduleConfig:
    """Which temperature each anchor gets at each epoch.

    By default every anchor of an epoch gets the one temperature of an
    epoch-indexed schedule (:func:`tau_at`).  ``tau_minus``/``tau_plus``
    bound every kind but the constant one.  ``period_T`` drives the cosine
    and triangle kinds, ``step_length`` the step kind, ``seed`` the random
    kind, and ``constant_tau``, used as given, the constant kind.

    With ``coarse`` set, temperatures come from the anchor's class instead
    (:func:`class_tau`): ``tau_head`` for the head set, ``head_classes`` or
    else the frequent half of the classes, and ``tau_tail`` for all others.
    """

    kind: Literal[SCHEDULE_KINDS] = "cosine"
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

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}")
        if not (0.0 < self.tau_minus <= self.tau_plus) or not math.isfinite(self.tau_plus):
            raise ValueError(
                f"need 0 < tau_minus <= tau_plus, got tau_minus={self.tau_minus}, tau_plus={self.tau_plus}"
            )
        if self.period_T < 1:
            raise ValueError(f"period_T must be >= 1, got {self.period_T}")
        if self.step_length < 1:
            raise ValueError(f"step_length must be >= 1, got {self.step_length}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (self.constant_tau > 0.0 and math.isfinite(self.constant_tau)):
            raise ValueError(f"constant_tau must be finite and > 0, got {self.constant_tau}")
        if self.tau_head <= 0.0 or self.tau_tail <= 0.0:
            raise ValueError("tau_head and tau_tail must be > 0")


def tau_at(config: ScheduleConfig, t: int) -> float:
    """Temperature for epoch ``t`` (t >= 0).

    cosine starts at tau_plus, reaches tau_minus at half period; the
    triangle wave shares that phase and the same endpoints; step alternates
    tau_minus -> tau_plus -> ... holding each level for ``step_length``
    epochs; random draws once per epoch from uniform[tau_minus, tau_plus],
    keyed by (seed, t).  All but constant stay in [tau_minus, tau_plus];
    the result is NaN under coarse supervision, whose taus are per class.
    """
    t = int(t)
    if t < 0:
        raise ValueError(f"epoch index must be >= 0, got {t}")
    if config.coarse:
        return math.nan
    lo, hi = config.tau_minus, config.tau_plus
    kind = config.kind
    if kind == "constant":
        return config.constant_tau
    if kind == "cosine":
        frac = (t % config.period_T) / config.period_T
        value = (hi - lo) * (1.0 + math.cos(2.0 * math.pi * frac)) / 2.0 + lo
    elif kind == "linear_oscillation":
        frac = (t % config.period_T) / config.period_T
        value = lo + (hi - lo) * (1.0 - 2.0 * min(frac, 1.0 - frac))
    elif kind == "step":
        value = hi if (t // config.step_length) % 2 else lo
    else:  # random
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, t]))
        value = float(rng.uniform(lo, hi))
    return min(max(value, lo), hi)


def class_tau(config: ScheduleConfig, class_sizes, t: int) -> np.ndarray:
    """Each class's float64 temperature at epoch ``t``: the epoch's one
    temperature (:func:`tau_at`), or under coarse supervision tau_head for
    the head set, ``head_classes`` or else the ceil(K/2) largest classes
    (ties to the smaller id), and tau_tail for the rest.  A head id >= K or
    a head set that is not a strict subset of the K classes raises."""
    K = len(class_sizes)
    if not config.coarse:
        return np.full(K, tau_at(config, t))
    head = config.head_classes or _by_size(class_sizes)[:(K + 1) // 2].tolist()
    if max(head) >= K:
        raise ValueError(f"head_classes must lie in [0, {K})")
    if len(set(head)) >= K:
        raise ValueError("head_classes must be a strict subset of all classes")
    taus = np.full(K, config.tau_tail)
    taus[list(head)] = config.tau_head
    return taus


def eval_epochs(config: ScheduleConfig, total_epochs: int) -> set:
    """The evaluation epoch of each completed period of a run of
    ``total_epochs``: round((n - 0.3) * T) for the n-th period, clamped to
    [1, n * T].  Empty for kinds without a period, under coarse supervision
    and for a run shorter than one period."""
    if config.coarse or config.kind not in PERIODIC_KINDS:
        return set()
    T = config.period_T
    return {min(max(round((n - 0.3) * T), 1), n * T) for n in range(1, total_epochs // T + 1)}
