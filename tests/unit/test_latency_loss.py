"""Unit tests for latency and loss models."""

import numpy as np
import pytest

from repro.network import (
    BernoulliLoss,
    ConstantLatency,
    GilbertElliottLoss,
    NoLoss,
    ParetoLatency,
    UniformLatency,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestLatencyModels:
    def test_constant_latency(self, rng):
        model = ConstantLatency(0.05)
        assert model.sample(rng) == 0.05
        assert model.mean() == 0.05

    def test_constant_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    def test_uniform_latency_within_bounds(self, rng):
        model = UniformLatency(0.1, 0.02)
        samples = [model.sample(rng) for _ in range(200)]
        assert all(0.08 <= s <= 0.12 for s in samples)
        assert model.mean() == 0.1

    def test_uniform_jitter_larger_than_base_rejected(self):
        with pytest.raises(ValueError):
            UniformLatency(0.01, 0.02)

    def test_pareto_minimum_is_scale(self, rng):
        model = ParetoLatency(0.02, shape=2.0)
        samples = [model.sample(rng) for _ in range(500)]
        assert min(samples) >= 0.02

    def test_pareto_mean_formula(self):
        model = ParetoLatency(0.02, shape=2.0)
        assert model.mean() == pytest.approx(0.04)

    def test_pareto_cap_enforced(self, rng):
        model = ParetoLatency(0.02, shape=1.5, cap_s=0.1)
        samples = [model.sample(rng) for _ in range(2000)]
        assert max(samples) <= 0.1

    def test_pareto_requires_shape_above_one(self):
        with pytest.raises(ValueError):
            ParetoLatency(0.02, shape=1.0)

    def test_pareto_sample_mean_close_to_formula(self, rng):
        model = ParetoLatency(0.02, shape=3.0)
        samples = [model.sample(rng) for _ in range(20000)]
        assert np.mean(samples) == pytest.approx(model.mean(), rel=0.1)


class TestLossModels:
    def test_no_loss_never_drops(self, rng):
        model = NoLoss()
        assert not any(model.is_lost(rng) for _ in range(100))
        assert model.expected_loss_rate() == 0.0

    def test_bernoulli_rate_bounds(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.0)
        with pytest.raises(ValueError):
            BernoulliLoss(-0.1)

    def test_bernoulli_zero_rate_never_drops(self, rng):
        model = BernoulliLoss(0.0)
        assert not any(model.is_lost(rng) for _ in range(100))

    def test_bernoulli_empirical_rate(self, rng):
        model = BernoulliLoss(0.19)
        drops = sum(model.is_lost(rng) for _ in range(20000))
        assert drops / 20000 == pytest.approx(0.19, abs=0.01)

    def test_bernoulli_draws_are_the_links_inline_draws(self):
        # The link inlines ``rng.random() < rate``; the model must match it
        # draw for draw on the same seeded stream.
        model = BernoulliLoss(0.3)
        drawn, reference = np.random.default_rng(11), np.random.default_rng(11)
        assert [model.is_lost(drawn) for _ in range(200)] == [
            reference.random() < 0.3 for _ in range(200)
        ]

    def test_gilbert_elliott_stationary_fraction(self):
        model = GilbertElliottLoss(0.1, 0.3)
        assert model.stationary_bad_fraction() == pytest.approx(0.25)

    def test_gilbert_elliott_expected_rate(self):
        model = GilbertElliottLoss(0.1, 0.3, loss_good=0.0, loss_bad=0.8)
        assert model.expected_loss_rate() == pytest.approx(0.2)

    def test_gilbert_elliott_empirical_rate(self, rng):
        model = GilbertElliottLoss(0.05, 0.2, loss_good=0.0, loss_bad=1.0)
        drops = sum(model.is_lost(rng) for _ in range(50000))
        assert drops / 50000 == pytest.approx(model.expected_loss_rate(), abs=0.02)

    def test_gilbert_elliott_burstiness(self, rng):
        """Bursty losses cluster: consecutive-loss runs exceed Bernoulli's."""
        ge = GilbertElliottLoss(0.02, 0.2, loss_bad=1.0)
        outcomes = [ge.is_lost(rng) for _ in range(20000)]
        rate = sum(outcomes) / len(outcomes)
        pairs = sum(
            1 for i in range(1, len(outcomes)) if outcomes[i] and outcomes[i - 1]
        )
        pair_rate = pairs / (len(outcomes) - 1)
        assert pair_rate > (rate**2) * 3  # far above independent losses

    def test_gilbert_elliott_parameter_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(1.5, 0.3)

    def test_gilbert_elliott_start_state(self):
        model = GilbertElliottLoss(0.1, 0.3, start_in_bad=True)
        assert model.state == GilbertElliottLoss.BAD
