"""Broker crash/restore with requests in flight, under every semantics.

Each run executes with telemetry on, which checks the run's trace against
the conservation laws as it finishes, so the experiment itself raises
:class:`InvariantViolation` if a crash breaks message conservation or the
per-semantics delivery rules — every call below doubles as an invariant
assertion.
"""

import pytest

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.testbed import Experiment, Scenario, TelemetryConfig

TELEMETRY = TelemetryConfig()

#: High arrival rate + batching keeps requests in flight at the crash
#: instant (0.5 s into a ~7.5 s send window).
def inflight_scenario(semantics, seed=12):
    return Scenario(
        message_bytes=200,
        message_count=300,
        seed=seed,
        arrival_rate=40.0,
        config=ProducerConfig(
            semantics=semantics,
            batch_size=4,
            message_timeout_s=2.0,
            request_timeout_s=0.8,
        ),
    )


def run_with_flap(semantics, crash_at=0.5, restore_at=None, brokers=("broker-0",)):
    experiment = Experiment(inflight_scenario(semantics), telemetry=TELEMETRY)
    for broker_id in brokers:
        experiment.injector.crash_broker_at(crash_at, broker_id)
        if restore_at is not None:
            experiment.injector.restore_broker_at(restore_at, broker_id)
    return experiment, experiment.run()


ALL_SEMANTICS = list(DeliverySemantics)


class TestSingleBrokerFlap:
    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_crash_with_inflight_requests_keeps_invariants(self, semantics):
        _, result = run_with_flap(semantics, crash_at=0.5)
        # Failover absorbs a single broker's loss; the run completing at
        # all proves the invariant checker stayed green.
        assert 0.0 <= result.p_loss < 0.5
        assert result.produced == 300

    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_crash_and_restore_is_no_worse_than_crash(self, semantics):
        _, crashed = run_with_flap(semantics, crash_at=0.5)
        _, restored = run_with_flap(semantics, crash_at=0.5, restore_at=2.0)
        assert restored.p_loss <= crashed.p_loss + 0.05

    def test_exactly_once_never_duplicates_across_the_flap(self):
        _, result = run_with_flap(
            DeliverySemantics.EXACTLY_ONCE, crash_at=0.5, restore_at=2.0
        )
        assert result.p_duplicate == 0.0

    def test_at_least_once_retries_may_duplicate_but_never_lose_acked(self):
        _, result = run_with_flap(
            DeliverySemantics.AT_LEAST_ONCE, crash_at=0.5, restore_at=2.0
        )
        assert result.p_duplicate >= 0.0
        assert result.p_loss < 0.5


class TestFullOutageFlap:
    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_all_brokers_flap_with_inflight_requests(self, semantics):
        brokers = ("broker-0", "broker-1", "broker-2")
        _, result = run_with_flap(
            semantics, crash_at=0.5, restore_at=1.5, brokers=brokers
        )
        # A one-second full outage against a 2 s message timeout: some
        # messages may expire, but conservation and semantics rules must
        # hold (enforced by the invariant checker) and the run recovers.
        assert 0.0 <= result.p_loss <= 1.0
        assert result.produced == 300

    def test_deep_retry_budget_beats_the_default_across_the_outage(self):
        # The degraded-mode parked configuration's shape (long message
        # timeout, deep retries) expires far fewer messages across the
        # outage than the default 2 s-timeout shape does.
        brokers = ("broker-0", "broker-1", "broker-2")
        _, default = run_with_flap(
            DeliverySemantics.AT_LEAST_ONCE,
            crash_at=0.5,
            restore_at=1.5,
            brokers=brokers,
        )
        scenario = inflight_scenario(DeliverySemantics.AT_LEAST_ONCE).with_(
            config=ProducerConfig(
                semantics=DeliverySemantics.AT_LEAST_ONCE,
                batch_size=4,
                polling_interval_s=0.04,
                message_timeout_s=6.0,
                request_timeout_s=1.0,
                retry_backoff_s=0.1,
                max_retries=20,
            )
        )
        experiment = Experiment(scenario, telemetry=TELEMETRY)
        for broker_id in brokers:
            experiment.injector.crash_broker_at(0.5, broker_id)
            experiment.injector.restore_broker_at(1.5, broker_id)
        parked = experiment.run()
        assert parked.p_loss < default.p_loss - 0.05
