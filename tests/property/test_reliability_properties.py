"""Property-based tests on testbed invariants.

The central conservation law: for any scenario, every source message is
either delivered (at least once) or lost — reconciliation must balance —
and duplicates can only exist for delivered messages.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.kpi import overall_rates
from repro.testbed import Scenario, run_experiment

from ..unit.test_performance_kpi import replayed

scenario_strategy = st.builds(
    Scenario,
    message_bytes=st.sampled_from([80, 200, 600]),
    loss_rate=st.sampled_from([0.0, 0.1, 0.25]),
    network_delay_s=st.sampled_from([0.0, 0.1]),
    message_count=st.integers(min_value=30, max_value=120),
    seed=st.integers(min_value=0, max_value=10_000),
    config=st.builds(
        ProducerConfig,
        semantics=st.sampled_from(list(DeliverySemantics)),
        batch_size=st.sampled_from([1, 2, 5]),
        message_timeout_s=st.sampled_from([0.5, 1.5, 4.0]),
        polling_interval_s=st.sampled_from([0.0, 0.05]),
    ),
)


@given(scenario_strategy)
@settings(max_examples=20, deadline=None)
def test_reconciliation_conserves_messages(scenario):
    result = run_experiment(scenario)  # internally checks the conservation laws
    assert 0.0 <= result.p_loss <= 1.0
    assert 0.0 <= result.p_duplicate <= 1.0
    assert result.p_loss + result.p_duplicate <= 1.0 + 1e-9


@given(scenario_strategy)
@settings(max_examples=12, deadline=None)
def test_at_most_once_never_duplicates(scenario):
    scenario = scenario.with_(
        config=scenario.config.with_(semantics=DeliverySemantics.AT_MOST_ONCE)
    )
    result = run_experiment(scenario)
    assert result.p_duplicate == 0.0


@given(scenario_strategy)
@settings(max_examples=10, deadline=None)
# A retried batch whose head record expired was once routed by its new head
# to another partition, whose fencing had never seen its sequences.
@example(
    Scenario(
        message_bytes=200,
        loss_rate=0.25,
        network_delay_s=0.1,
        message_count=84,
        seed=100,
        config=ProducerConfig(batch_size=5, message_timeout_s=4.0, polling_interval_s=0.05),
    )
)
def test_exactly_once_never_duplicates(scenario):
    scenario = scenario.with_(
        config=scenario.config.with_(semantics=DeliverySemantics.EXACTLY_ONCE)
    )
    result = run_experiment(scenario)
    assert result.p_duplicate == 0.0


@given(scenario_strategy)
@settings(max_examples=10, deadline=None)
def test_same_seed_same_result(scenario):
    first = run_experiment(scenario)
    second = run_experiment(scenario)
    assert first.p_loss == second.p_loss
    assert first.p_duplicate == second.p_duplicate


unit = st.floats(min_value=0.0, max_value=1.0)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=1e4),
            st.builds(replayed, p_loss=unit, p_duplicate=unit, shortfall=unit),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_eq3_aggregate_bounded_by_extremes(weighted):
    weights = [weight for weight, _ in weighted]
    records = [record for _, record in weighted]
    rates = overall_rates(records, weights)
    losses = [record.p_loss for record in records]
    assert all(record.result.p_loss - 1e-12 <= record.p_loss <= 1.0 for record in records)
    assert min(losses) - 1e-12 <= rates.r_loss <= max(losses) + 1e-12
    duplicates = [record.result.p_duplicate for record in records]
    assert min(duplicates) - 1e-12 <= rates.r_duplicate <= max(duplicates) + 1e-12
