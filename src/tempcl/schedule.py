"""The temperature each anchor gets at each epoch.

Provides the oscillating cosine schedule plus the alternatives it is
compared against (triangle wave, step function, per-epoch random draws,
constant), coarse per-anchor temperature supervision keyed on head/tail
class membership, and the period-aware rule for picking the evaluation
epoch.
"""

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = [
    "SCHEDULE_KINDS",
    "ScheduleConfig",
    "tau_at",
    "per_anchor_tau",
    "recommended_eval_epoch",
]

SCHEDULE_KINDS = ("constant", "cosine", "linear_oscillation", "step", "random")


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
    keyed by (seed, t).  The result always lies in [tau_minus, tau_plus].
    """
    t = int(t)
    if t < 0:
        raise ValueError(f"epoch index must be >= 0, got {t}")
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


def per_anchor_tau(labels, config: ScheduleConfig) -> np.ndarray:
    """Per-anchor temperature vector of coarse supervision: tau_head where
    the anchor's class is in ``head_classes``, tau_tail otherwise."""
    if not config.head_classes:
        raise ValueError("coarse supervision needs a non-empty head_classes")
    head = np.isin(np.asarray(labels), config.head_classes)
    return np.where(head, config.tau_head, config.tau_tail).astype(np.float64)


def recommended_eval_epoch(total_epochs: int, T: int) -> int:
    """Evaluation epoch for a periodic schedule: round((n - 0.3) * T) with
    n the number of completed periods, clamped to [1, total_epochs].

    Raises when the run is shorter than one period; use a fixed temperature
    or a shorter period in that case.
    """
    if total_epochs < T:
        raise ValueError(
            f"run of {total_epochs} epochs is shorter than one period (T={T}); "
            "use a constant temperature or a shorter period"
        )
    n = total_epochs // T
    epoch = int(round((n - 0.3) * T))
    return min(max(epoch, 1), total_epochs)
