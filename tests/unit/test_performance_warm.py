"""A warm performance model answers bit for bit as the reference chain.

`ProducerPerformanceModel` memoises the parts of an estimate that do not
depend on the network delay per (M, B, acks, in-flight window, δ), and
the search keeps one model for every decision.  So one model first
serves every ``ParameterSteps`` config at other in-flight windows, other
message sizes and other delays, and must then still match
``ReferenceModel`` on the full grid of ``test_search_parity``.  A memo
keyed without δ or without the window fails here: it would serve λ or
the window of an earlier config.
"""

import itertools

from repro.kafka import ProducerConfig
from repro.kpi.selection import ParameterSteps
from repro.performance import ProducerPerformanceModel

from .test_search_parity import (
    DELAYS,
    MESSAGE_BYTES,
    ReferenceModel,
    as_tuple,
    same_bits,
    search_grid,
)

#: Warm-up sizes, windows and delays: the grid's and others, never the
#: grid's delays, so no grid query is a plain memo hit.
WARM_BYTES = MESSAGE_BYTES + (150, 300)
WARM_WINDOWS = (1, 2, 5)
WARM_DELAYS = (0.01, 0.2)


def step_configs(window):
    steps = ParameterSteps()
    for semantics, batch, polling, timeout in itertools.product(
        steps.semantics,
        steps.batch_size,
        steps.polling_interval_s,
        steps.message_timeout_s,
    ):
        yield ProducerConfig(
            semantics=semantics,
            batch_size=batch,
            polling_interval_s=polling,
            message_timeout_s=timeout,
            max_in_flight=window,
        )


class TestWarmModelParity:
    def test_warm_model_matches_the_reference_on_the_full_grid(self):
        model = ProducerPerformanceModel()
        for window in WARM_WINDOWS:
            for config in step_configs(window):
                for message_bytes in WARM_BYTES:
                    for delay in WARM_DELAYS:
                        model.predict(config, message_bytes, delay)
        reference = ReferenceModel()
        checked = 0
        for config in search_grid():
            for message_bytes in MESSAGE_BYTES:
                for delay in DELAYS:
                    actual = as_tuple(model.predict(config, message_bytes, delay))
                    expected = reference.predict(config, message_bytes, delay)
                    assert all(map(same_bits, actual, expected)), (
                        config, message_bytes, delay, actual, expected
                    )
                    checked += 1
        assert checked == 3 * 7 * 5 * 5 * len(MESSAGE_BYTES) * len(DELAYS)
