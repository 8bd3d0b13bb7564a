"""The temperature each anchor gets at each epoch.

Provides the oscillating cosine schedule plus the alternatives it is
compared against (triangle wave, step function, per-epoch random draws,
constant), coarse per-anchor temperature supervision keyed on head/tail
class membership, and each period's evaluation epoch (:func:`eval_epochs`).
Every rule of what a kind or coarse supervision means lives here; under
coarse supervision an epoch has no one temperature, and :func:`tau_at` is NaN.
"""

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = [
    "SCHEDULE_KINDS",
    "PERIODIC_KINDS",
    "ScheduleConfig",
    "tau_at",
    "per_anchor_tau",
    "eval_epochs",
]

SCHEDULE_KINDS = ("constant", "cosine", "linear_oscillation", "step", "random")
PERIODIC_KINDS = ("cosine", "linear_oscillation")  # the kinds that period_T drives


@dataclass(frozen=True)
class ScheduleConfig:
    """Which temperature each anchor gets at each epoch.

    By default every anchor of an epoch gets the one temperature of an
    epoch-indexed schedule (:func:`tau_at`).  ``tau_minus``/``tau_plus``
    bound every kind.  ``period_T`` drives the cosine and triangle kinds,
    ``step_length`` the step kind, ``seed`` the random kind, and
    ``constant_tau`` the constant kind.

    With ``coarse`` set, temperatures come from the anchor's class instead
    (:func:`per_anchor_tau`): ``tau_head`` for classes in ``head_classes``,
    ``tau_tail`` for all others.
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
    keyed by (seed, t).  The result lies in [tau_minus, tau_plus]; it is
    NaN under coarse supervision, whose temperatures are per anchor.
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


def per_anchor_tau(labels, config: ScheduleConfig, t: int) -> np.ndarray:
    """Every anchor's temperature at epoch ``t``: under coarse supervision
    tau_head where the anchor's class is in ``head_classes`` and tau_tail
    otherwise, else the epoch's one temperature (:func:`tau_at`)."""
    if not config.coarse:
        return np.full(len(labels), tau_at(config, t))
    if not config.head_classes:
        raise ValueError("coarse supervision needs a non-empty head_classes")
    return np.where(np.isin(labels, config.head_classes), config.tau_head,
                    config.tau_tail).astype(np.float64)


def eval_epochs(config: ScheduleConfig, total_epochs: int) -> set:
    """The evaluation epoch of each completed period of a run of
    ``total_epochs``: round((n - 0.3) * T) for the n-th period, clamped to
    [1, n * T].  Empty for kinds without a period, under coarse supervision
    and for a run shorter than one period."""
    if config.coarse or config.kind not in PERIODIC_KINDS:
        return set()
    T = config.period_T
    return {min(max(round((n - 0.3) * T), 1), n * T) for n in range(1, total_epochs // T + 1)}
