"""Tests for temperature schedules, coarse supervision, and the
period-aware evaluation epochs."""

import math

import numpy as np
import pytest

from tempcl.schedule import (
    PERIODIC_KINDS,
    SCHEDULE_KINDS,
    ScheduleConfig,
    class_tau,
    eval_epochs,
    tau_at,
)

DEFAULTS = ScheduleConfig(kind="cosine", tau_minus=0.1, tau_plus=1.0, period_T=400)


class TestCosine:
    def test_landmarks_exact(self):
        """tau(0) = tau_plus, tau(T/2) = tau_minus, tau(T/4) = midpoint."""
        assert tau_at(DEFAULTS, 0) == 1.0
        assert tau_at(DEFAULTS, 200) == 0.1
        assert tau_at(DEFAULTS, 100) == 0.55

    def test_periodicity_exact(self):
        for t in range(0, 400, 7):
            assert tau_at(DEFAULTS, t + 400) == tau_at(DEFAULTS, t)
            assert tau_at(DEFAULTS, t + 2000) == tau_at(DEFAULTS, t)

    def test_endpoint_values_mod_T(self):
        for mult in range(5):
            assert tau_at(DEFAULTS, 400 * mult) == 1.0
            assert tau_at(DEFAULTS, 400 * mult + 200) == 0.1


class TestStep:
    def test_paper_step_pattern(self):
        """Starts low, switches every step_length epochs: 0.1 then 0.5."""
        cfg = ScheduleConfig(kind="step", tau_minus=0.1, tau_plus=0.5, step_length=200)
        assert tau_at(cfg, 0) == 0.1
        assert tau_at(cfg, 199) == 0.1
        assert tau_at(cfg, 200) == 0.5
        assert tau_at(cfg, 399) == 0.5
        assert tau_at(cfg, 400) == 0.1


class TestLinearOscillation:
    CFG = ScheduleConfig(kind="linear_oscillation", tau_minus=0.1, tau_plus=1.0, period_T=400)

    def test_triangle_landmarks(self):
        assert tau_at(self.CFG, 0) == 1.0
        assert tau_at(self.CFG, 200) == 0.1
        np.testing.assert_allclose(tau_at(self.CFG, 100), 0.55, rtol=1e-12)

    def test_linear_between_extrema(self):
        vals = [tau_at(self.CFG, t) for t in range(0, 201)]
        np.testing.assert_allclose(np.diff(vals), vals[1] - vals[0], rtol=1e-9)

    def test_periodicity_exact(self):
        for t in range(0, 400, 13):
            assert tau_at(self.CFG, t + 400) == tau_at(self.CFG, t)

    def test_agrees_with_cosine_at_extrema(self):
        for t in (0, 200, 400):
            assert tau_at(self.CFG, t) == tau_at(DEFAULTS, t)


class TestRandom:
    def test_reproducible(self):
        cfg = ScheduleConfig(kind="random", tau_minus=0.1, tau_plus=0.5, seed=9)
        again = ScheduleConfig(kind="random", tau_minus=0.1, tau_plus=0.5, seed=9)
        a = [tau_at(cfg, t) for t in range(50)]
        b = [tau_at(again, t) for t in range(50)]
        assert a == b

    def test_seed_changes_sequence(self):
        a = [tau_at(ScheduleConfig(kind="random", seed=1), t) for t in range(31)]
        b = [tau_at(ScheduleConfig(kind="random", seed=2), t) for t in range(31)]
        assert a != b

    def test_varies_across_epochs(self):
        cfg = ScheduleConfig(kind="random", seed=3)
        assert len({tau_at(cfg, t) for t in range(21)}) > 10


class TestBoundedness:
    def test_all_kinds_stay_in_bounds(self):
        for kind in SCHEDULE_KINDS:
            cfg = ScheduleConfig(kind=kind, tau_minus=0.2, tau_plus=0.9,
                                 period_T=37, step_length=11, constant_tau=0.5)
            vals = [tau_at(cfg, t) for t in range(501)]
            assert min(vals) >= 0.2 and max(vals) <= 0.9


class TestConstant:
    def test_constant_value(self):
        cfg = ScheduleConfig(kind="constant", constant_tau=0.2)
        assert all(tau_at(cfg, t) == 0.2 for t in range(0, 1000, 97))

    @pytest.mark.parametrize("value", [5.0, 0.01])
    def test_constant_tau_is_used_as_given_outside_the_bounds(self, value):
        """tau_minus/tau_plus do not clamp the constant kind."""
        cfg = ScheduleConfig(kind="constant", constant_tau=value)
        assert tau_at(cfg, 3) == value
        assert class_tau(cfg, [1] * 4, 3).tolist() == [value] * 4


class TestConfigValidation:
    def test_bounds_order(self):
        with pytest.raises(ValueError, match="tau_minus"):
            ScheduleConfig(tau_minus=0.5, tau_plus=0.1)

    def test_positive_period(self):
        with pytest.raises(ValueError, match="period_T"):
            ScheduleConfig(period_T=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ScheduleConfig(kind="sawtooth")

    @pytest.mark.parametrize("taus", [{"tau_head": 0.0}, {"tau_tail": 0.0}])
    def test_positive_coarse_temperatures(self, taus):
        with pytest.raises(ValueError, match="tau_head and tau_tail must be > 0"):
            ScheduleConfig(coarse=True, **taus)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            tau_at(DEFAULTS, -1)


def per_anchor_tau(labels, config, class_sizes, t):
    """The form :func:`class_tau` replaced, kept as its oracle: an empty
    head set resolved to the ceil(K/2) largest classes (ties to the smaller
    id), then ``np.isin`` on every batch's labels."""
    if not config.coarse:
        return np.full(len(labels), tau_at(config, t))
    K = len(class_sizes)
    by_size = sorted(range(K), key=lambda k: (-class_sizes[k], k))
    head = config.head_classes or by_size[:(K + 1) // 2]
    return np.where(np.isin(labels, head), config.tau_head, config.tau_tail).astype(np.float64)


class TestPerAnchorTau:
    """An anchor's temperature is its class's entry of :func:`class_tau`."""

    def test_head_tail_assignment(self):
        """Anchors in head classes take tau_head, all others tau_tail."""
        coarse = ScheduleConfig(coarse=True, head_classes=tuple(range(5)), tau_head=1.0,
                                tau_tail=0.1)
        np.testing.assert_array_equal(class_tau(coarse, [1] * 8, 0)[[0, 7]], [1.0, 0.1])

    def test_degenerate_supervision(self):
        coarse = ScheduleConfig(coarse=True, head_classes=(0,), tau_head=0.3, tau_tail=0.3)
        np.testing.assert_array_equal(class_tau(coarse, [1] * 3, 5)[[0, 1, 2]], [0.3, 0.3, 0.3])

    def test_all_head(self):
        coarse = ScheduleConfig(coarse=True, head_classes=tuple(range(4)), tau_head=0.8,
                                tau_tail=0.1)
        np.testing.assert_array_equal(class_tau(coarse, [1] * 5, 9)[[2, 0, 3]], [0.8, 0.8, 0.8])

    def test_an_empty_head_set_is_the_frequent_half(self):
        coarse = ScheduleConfig(coarse=True, tau_head=0.7, tau_tail=0.2)
        assert class_tau(coarse, [1, 3, 2], 4).tolist() == [0.2, 0.7, 0.7]

    @pytest.mark.parametrize("head, K", [((2, 0, 1, 0), 3), ((), 1)])
    def test_a_head_set_of_every_class_raises(self, head, K):
        """Repeated ids count once; one class's default head is that class."""
        with pytest.raises(ValueError, match="head_classes must be a strict subset"):
            class_tau(ScheduleConfig(coarse=True, head_classes=head), [1] * K, 0)

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_without_coarse_supervision_every_anchor_takes_the_epochs_tau(self, kind):
        """Bit for bit the epoch's one temperature, as a float64 vector."""
        cfg = ScheduleConfig(kind=kind, tau_minus=0.13, tau_plus=0.87, period_T=7,
                             step_length=3, seed=4, constant_tau=0.3)
        labels = np.arange(40) % 6
        for t in range(30):
            taus = class_tau(cfg, [1] * 6, t)[labels]
            assert taus.dtype == np.float64
            assert taus.tobytes() == np.full(40, tau_at(cfg, t)).tobytes()

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    @pytest.mark.parametrize("coarse", [False, True])
    def test_indexing_the_table_equals_the_isin_form(self, kind, coarse):
        """Byte for byte over random labels and class sizes, explicit head
        sets with repeated ids, and the default head set."""
        rng = np.random.default_rng(7)
        for trial in range(40):
            K = int(rng.integers(2, 30))
            sizes = rng.integers(1, 6, K).tolist()  # small sizes, so that ties occur
            n_head = int(rng.integers(1, K))  # drawn with replacement: ids repeat
            head = () if trial % 4 == 0 else tuple(rng.choice(K, n_head).tolist())
            cfg = ScheduleConfig(kind=kind, period_T=5, step_length=2, seed=trial,
                                 coarse=coarse, head_classes=head,
                                 tau_head=float(rng.uniform(0.05, 2)),
                                 tau_tail=float(rng.uniform(0.05, 2)))
            labels = rng.integers(0, K, 128)
            t = int(rng.integers(0, 50))
            taus = class_tau(cfg, sizes, t)[labels]
            assert taus.dtype == np.float64
            assert taus.tobytes() == per_anchor_tau(labels, cfg, sizes, t).tobytes(), trial


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_tau_at_is_nan_under_coarse_supervision(kind):
    cfg = ScheduleConfig(kind=kind, coarse=True, head_classes=(0,))
    assert all(math.isnan(tau_at(cfg, t)) for t in range(0, 900, 37))


def recommended_eval_epoch(total_epochs: int, T: int) -> int:
    """The rule :func:`eval_epochs` replaced, kept as its oracle: round((n -
    0.3) * T) with n the completed periods of the run, clamped to [1,
    total_epochs]; a run shorter than one period raised."""
    if total_epochs < T:
        raise ValueError(
            f"run of {total_epochs} epochs is shorter than one period (T={T}); "
            "use a constant temperature or a shorter period"
        )
    n = total_epochs // T
    epoch = int(round((n - 0.3) * T))
    return min(max(epoch, 1), total_epochs)


class TestRecommendedEvalEpoch:
    def test_five_periods(self):
        assert max(eval_epochs(ScheduleConfig(period_T=400), 2000)) == 1880

    def test_single_period(self):
        assert eval_epochs(ScheduleConfig(period_T=400), 400) == {280}

    def test_partial_trailing_period(self):
        assert eval_epochs(ScheduleConfig(period_T=400), 1000) == {280, 680}

    def test_run_shorter_than_period(self):
        assert eval_epochs(ScheduleConfig(period_T=400), 100) == set()

    @pytest.mark.parametrize("kind", PERIODIC_KINDS)
    def test_equals_the_old_rule_at_every_period_and_length(self, kind):
        """Each completed period's epoch, as the old rule gave it for a run
        that ends with that period."""
        for T in range(1, 121):
            cfg = ScheduleConfig(kind=kind, period_T=T)
            for E in range(0, 401):
                expected = {recommended_eval_epoch(k * T, T) for k in range(1, E // T + 1)}
                assert eval_epochs(cfg, E) == expected, (T, E)

    @pytest.mark.parametrize("kind", sorted(set(SCHEDULE_KINDS) - set(PERIODIC_KINDS)))
    def test_kinds_without_a_period_have_none(self, kind):
        assert eval_epochs(ScheduleConfig(kind=kind, period_T=3), 30) == set()

    def test_coarse_supervision_has_none(self):
        assert eval_epochs(ScheduleConfig(coarse=True, period_T=3), 30) == set()
