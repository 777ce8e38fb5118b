"""Integration tests for chaos campaigns (PR 3 acceptance criteria).

Every campaign phase runs with invariant checking enabled, so a campaign
completing at all certifies that conservation and semantics invariants
held under every injected fault.
"""

import pytest

from repro.chaos import (
    blackout_phase,
    broker_flap_phase,
    compose,
    flap_burst_schedule,
    run_campaign,
)
from repro.kpi import PARKED_CONFIG, CircuitBreaker, Controller
from repro.models import ReliabilityPredictor

SEED = 7


@pytest.fixture(scope="module")
def static_report():
    return run_campaign(flap_burst_schedule(seed=SEED), policy="static", seed=SEED)


@pytest.fixture(scope="module")
def degraded_report():
    return run_campaign(flap_burst_schedule(seed=SEED), policy="degraded", seed=SEED)


def phase_named(report, name):
    [phase] = [p for p in report.phases if p.name == name]
    return phase


class TestDeterminism:
    def test_static_report_is_byte_identical_across_runs(self, static_report):
        again = run_campaign(
            flap_burst_schedule(seed=SEED), policy="static", seed=SEED
        )
        assert again.to_json() == static_report.to_json()

    def test_degraded_report_is_byte_identical_across_runs(self, degraded_report):
        again = run_campaign(
            flap_burst_schedule(seed=SEED), policy="degraded", seed=SEED
        )
        assert again.to_json() == degraded_report.to_json()

    def test_different_seed_changes_the_report(self, static_report):
        other = run_campaign(
            flap_burst_schedule(seed=SEED + 1), policy="static", seed=SEED + 1
        )
        assert other.to_json() != static_report.to_json()

    def test_phase_seeds_are_distinct(self, static_report):
        seeds = [phase.seed for phase in static_report.phases]
        assert len(set(seeds)) == len(seeds)


class TestReportShape:
    def test_report_covers_every_phase_in_order(self, static_report):
        schedule = flap_burst_schedule(seed=SEED)
        assert [p.name for p in static_report.phases] == [
            p.name for p in schedule.phases
        ]
        assert [p.index for p in static_report.phases] == list(range(5))

    def test_phases_carry_manifest_identity(self, static_report):
        for phase in static_report.phases:
            assert phase.trace_digest
            assert phase.events_processed > 0
            assert phase.produced > 0

    def test_json_has_no_wall_clock_fields(self, static_report):
        payload = static_report.to_dict()
        assert payload["kind"] == "chaos_campaign_report"
        assert "wall_time_s" not in static_report.to_json()

    def test_recovery_is_measured_where_scheduled(self, static_report):
        flap = phase_named(static_report, "broker-flap")
        assert flap.time_to_recover_s is not None
        assert 0.0 <= flap.time_to_recover_s < flap.duration_s
        blackout = phase_named(static_report, "blackout")
        assert blackout.time_to_recover_s is None  # never restores


class TestDegradedPolicy:
    def test_blackout_trips_breaker_and_parks_the_flap_phase(self, degraded_report):
        flap = phase_named(degraded_report, "broker-flap")
        assert flap.decision_reason == "parked"
        assert flap.breaker_state == "open"
        assert flap.semantics == PARKED_CONFIG.semantics.value
        assert flap.message_timeout_s == PARKED_CONFIG.message_timeout_s
        assert degraded_report.breaker_trips >= 1

    def test_parked_config_avoids_the_static_loss_spike(
        self, static_report, degraded_report
    ):
        static_flap = phase_named(static_report, "broker-flap")
        degraded_flap = phase_named(degraded_report, "broker-flap")
        # The static default's 1.5 s message timeout expires messages during
        # the 2.4 s outage; the parked configuration rides it out.
        assert static_flap.p_loss > 0.3
        assert degraded_flap.p_loss < 0.05
        assert degraded_report.overall_p_loss < static_report.overall_p_loss

    def test_decisions_report_predicted_gamma_and_tier(self, degraded_report):
        for phase in degraded_report.phases[1:]:
            assert phase.gamma_predicted is not None
            assert 0.0 <= phase.gamma_predicted <= 1.0
            assert phase.prediction_source in ("ann", "neighbour", "conservative")
            assert phase.breaker_state in ("closed", "open", "half_open")

    def test_recovery_phase_closes_the_breaker(self, degraded_report):
        recovery = phase_named(degraded_report, "recovery")
        assert recovery.breaker_state in ("closed", "half_open")


class TestCampaignOptions:
    def test_messages_cap_bounds_phase_size(self):
        schedule = compose(
            "tiny", broker_flap_phase(duration_s=6.0, downtime_s=2.4, seed=1)
        )
        report = run_campaign(schedule, seed=1, messages_cap_per_phase=20)
        assert all(phase.produced <= 20 for phase in report.phases)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            run_campaign(compose("one", blackout_phase()), policy="yolo")

    def test_controller_rejected_under_static_policy(self):
        controller = Controller(ReliabilityPredictor(), breaker=CircuitBreaker())
        with pytest.raises(ValueError, match="controller"):
            run_campaign(
                compose("one", blackout_phase()), policy="static", controller=controller
            )

    def test_predictor_contradicting_controller_rejected(self):
        controller = Controller(ReliabilityPredictor(), breaker=CircuitBreaker())
        with pytest.raises(ValueError, match="not both"):
            run_campaign(
                compose("one", blackout_phase()),
                policy="degraded",
                controller=controller,
                predictor=ReliabilityPredictor(),
            )
        # The controller's own predictor is not a contradiction.
        report = run_campaign(
            compose("one", blackout_phase()),
            policy="degraded",
            controller=controller,
            predictor=controller.predictor,
            messages_cap_per_phase=20,
        )
        assert len(report.phases) == 1
