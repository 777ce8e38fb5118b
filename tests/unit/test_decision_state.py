"""State carried from one decision to the next changes no decision.

The dynamic scheme runs one search per interval on one predictor and one
performance model, so their memos and tables are warm from the earlier
decisions.  The loop below has the shape of perfbench's ``control-loop``
decision block: the three paper streams over a 36-point paper trace, 108
decisions, each starting from the config the one before it chose.  Run
once on a shared model and predictor, and once on a fresh model and a
fresh predictor (the same trained networks, every memo cold) per
decision, every ``SelectionResult`` field must be equal, γ and each trace
γ by ``.hex()``.  One submodel is left out, so which candidates the ANN
tier covers, and may prune, changes with the context.  The predictions
read ANN bits, so CI runs this file under the other OpenBLAS core types
too.
"""

import numpy as np
import pytest

from repro.kafka import DEFAULT_PRODUCER_CONFIG
from repro.kpi import KpiWeights, SelectionContext, select_configuration
from repro.kpi.selection import ParameterSteps
from repro.models import ReliabilityPredictor
from repro.models.features import region_of
from repro.models.predictor import SubModel
from repro.network.trace import generate_paper_trace
from repro.performance import ProducerPerformanceModel
from repro.workloads.streams import PAPER_STREAMS

from . import test_selection_batched as batched
from .test_selection_prune import fields

#: The trained module predictor of ``test_selection_batched``.
predictor = batched.predictor


#: Left out of the search's predictor, so the ANN tier covers
#: at-most-once candidates in the normal region only: coverage then
#: depends on the context, not on the semantics alone.
DROPPED = ("abnormal", "at_most_once")


def fresh(trained):
    """A predictor with ``trained``'s networks but :data:`DROPPED`, and its
    memory, all caches cold."""
    built = ReliabilityPredictor()
    built.submodels = {
        key: SubModel(sub.region, sub.semantics, sub.network, sub.scaler)
        for key, sub in trained.submodels.items()
        if key != DROPPED
    }
    built.remember(trained._memory)
    return built


def decision_loop(search):
    """The 108 decisions; ``search(context, start, weights)`` makes one."""
    trace = generate_paper_trace(
        np.random.default_rng(0), duration_s=360.0, interval_s=10.0
    )
    outcomes = []
    for stream in PAPER_STREAMS:
        weights = KpiWeights.of(stream.kpi_weights)
        config = DEFAULT_PRODUCER_CONFIG
        for point in trace.points:
            context = SelectionContext(
                message_bytes=stream.mean_payload_bytes,
                timeliness_s=stream.timeliness_s,
                network_delay_s=point.delay_s,
                loss_rate=point.loss_rate,
            )
            result = search(context, config, weights)
            config = result.config
            outcomes.append((region_of(point.delay_s, point.loss_rate), fields(result)))
    return outcomes


class TestCarriedState:
    def test_shared_memos_decide_as_fresh_ones(self, predictor):
        shared = fresh(predictor)
        model = ProducerPerformanceModel()

        def warm(context, start, weights):
            return select_configuration(
                context, shared, model, weights=weights,
                gamma_requirement=0.95, start=start,
            )

        def cold(context, start, weights):
            return select_configuration(
                context, fresh(predictor), ProducerPerformanceModel(),
                weights=weights, gamma_requirement=0.95, start=start,
            )

        outcomes = decision_loop(warm)
        assert outcomes == decision_loop(cold)
        assert len(outcomes) == 108
        # The loop reaches both Fig. 3 regions, walks that move and the
        # neighbour tier.
        assert {region for region, _ in outcomes} == {"normal", "abnormal"}
        assert any(len(result[4]) > 1 for _, result in outcomes)
        assert {result[5] for _, result in outcomes} == {"ann", "neighbour"}
        hits, _ = shared.memo_stats
        assert hits > 0


class TestStepsChecked:
    """A candidate's config is built only when the walk moves to it, so
    ``ParameterSteps`` checks every value up front, as a config would."""

    @pytest.mark.parametrize(
        "parameter, value",
        [
            ("semantics", "at_best_effort"),
            ("batch_size", 0),
            ("polling_interval_s", -0.02),
            ("message_timeout_s", 0.0),
        ],
    )
    def test_invalid_step_value_raises(self, parameter, value):
        default = getattr(ParameterSteps(), parameter)
        with pytest.raises(ValueError):
            ParameterSteps(**{parameter: tuple(default) + (value,)})

    def test_semantics_strings_are_accepted(self):
        steps = ParameterSteps(semantics=("at_least_once", "at_most_once"))
        assert steps.semantics == ("at_least_once", "at_most_once")
