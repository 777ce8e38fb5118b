"""The configuration search on golden values, and evaluate_configs' tiers.

The stepwise search is pinned by its exact outcomes — configuration, γ,
whether the requirement was met, step count and trace — on a grid of
network contexts × requirements, under an analytic stub predictor whose
answers are plain Python arithmetic (so the values are the same on every
host).  Any change to the walk's comparison sequence, the candidate axes
or the lazy two-stage fetch that alters a decision fails here.
"""

import numpy as np
import pytest

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.kpi import SelectionContext, select_configuration
from repro.kpi.selection import evaluate_configs, ParameterSteps
from repro.kpi.weighted import kpi_from_estimates
from repro.models import (
    CONSERVATIVE_ESTIMATE,
    FallbackEstimate,
    ReliabilityEstimate,
    ReliabilityPredictor,
    TrainingSettings,
)
from repro.performance import ProducerPerformanceModel

from .test_predictor_batch import SEMANTICS, single_row_reference, training_rows


@pytest.fixture(scope="module")
def predictor():
    rows = []
    for offset, semantics in enumerate(SEMANTICS[:2]):
        rows.extend(training_rows(semantics, "normal", count=20, seed=offset))
        rows.extend(training_rows(semantics, "abnormal", count=20, seed=5 + offset))
    built = ReliabilityPredictor()
    built.fit(rows, TrainingSettings(hidden=(16,), epochs=30, patience=None))
    return built


def contexts(count=9, seed=31):
    rng = np.random.default_rng(seed)
    out = []
    for index in range(count):
        if index % 2 == 0:
            delay, loss = float(rng.uniform(0.0, 0.15)), 0.0
        else:
            delay = float(rng.uniform(0.2, 0.45))
            loss = float(rng.uniform(0.02, 0.25))
        out.append(
            SelectionContext(
                message_bytes=int(rng.choice([100, 200, 500])),
                timeliness_s=float(rng.choice([5.0, 10.0])),
                network_delay_s=delay,
                loss_rate=loss,
            )
        )
    return out


class AnalyticPredictor:
    """Loss grows with loss rate and delay, shrinks with batching; only
    ack-waiting semantics duplicate.  ``tiers`` maps a semantics to the
    fallback tier its answers claim (default ``"ann"``)."""

    def __init__(self, tiers=None):
        self.tiers = tiers or {}

    def predict_with_fallback_batch(self, vectors):
        out = []
        for vector in vectors:
            loss = min(
                1.0,
                (vector.loss_rate * 3.0 + vector.network_delay_s * 0.5)
                / vector.batch_size,
            )
            duplicate = 0.02 / vector.batch_size if vector.semantics.waits_for_ack else 0.0
            source = self.tiers.get(vector.semantics, "ann")
            out.append(
                FallbackEstimate(
                    ReliabilityEstimate(p_loss=loss, p_duplicate=duplicate), source
                )
            )
        return out


#: Outcomes of ``select_configuration(context, AnalyticPredictor(), ...)``
#: per requirement, one per ``contexts()`` entry:
#: ((semantics, batch_size, polling_interval_s, message_timeout_s), γ,
#: met_requirement, steps_taken, trace).
GOLDEN = {0.5: [(('at_least_once', 1, 0.0, 3.0),
        0.6609435580873394,
        True,
        0,
        [('start', 0.6609435580873394)]),
       (('at_least_once', 2, 0.0, 3.0),
        0.5077539740902729,
        True,
        2,
        [('start', 0.44916430501669713), ('batch_size=2', 0.5077539740902729)]),
       (('at_least_once', 1, 0.0, 3.0),
        0.750153912247541,
        True,
        0,
        [('start', 0.750153912247541)]),
       (('at_most_once', 2, 0.0, 3.0),
        0.5190796844154305,
        True,
        3,
        [('start', 0.4191160306725923),
         ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.426465579362613),
         ('batch_size=2', 0.5190796844154305)]),
       (('at_least_once', 1, 0.0, 3.0),
        0.5537831423596917,
        True,
        0,
        [('start', 0.5537831423596917)]),
       (('at_most_once', 1, 0.0, 3.0),
        0.5017725281599527,
        True,
        1,
        [('start', 0.47669065499021424),
         ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.5017725281599527)]),
       (('at_least_once', 1, 0.0, 3.0),
        0.6789307091489067,
        True,
        0,
        [('start', 0.6789307091489067)]),
       (('at_most_once', 1, 0.0, 3.0),
        0.5140808511730272,
        True,
        1,
        [('start', 0.4886845547268541),
         ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.5140808511730272)]),
       (('at_least_once', 1, 0.0, 3.0),
        0.5468840113716072,
        True,
        0,
        [('start', 0.5468840113716072)])],
 0.8: [(('at_most_once', 2, 0.02, 3.0),
        0.798445874504257,
        False,
        20,
        [('start', 0.6609435580873394),
         ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.7097566793671976),
         ('polling_interval_s=0.02', 0.7543966793671976),
         ('batch_size=2', 0.798445874504257)]),
       (('at_least_once', 3, 0.02, 3.0),
        0.5559405587459587,
        False,
        15,
        [('start', 0.44916430501669713),
         ('batch_size=2', 0.5077539740902729),
         ('batch_size=3', 0.511555584749088),
         ('polling_interval_s=0.02', 0.5559405587459587)]),
       (('at_most_once', 2, 0.02, 3.0),
        0.8419410649251858,
        True,
        6,
        [('start', 0.750153912247541),
         ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.7867813048712572),
         ('batch_size=2', 0.7973010649251858),
         ('polling_interval_s=0.02', 0.8419410649251858)]),
       (('at_least_once', 3, 0.02, 3.0),
        0.6078720195135603,
        False,
        23,
        [('start', 0.4191160306725923),
         ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.426465579362613),
         ('batch_size=2', 0.5190796844154305),
         ('batch_size=3', 0.5408776294831592),
         ('polling_interval_s=0.02', 0.5734506488538597),
         ('semantics=DeliverySemantics.AT_LEAST_ONCE', 0.6078720195135603)]),
       (('at_most_once', 2, 0.02, 3.0),
        0.7589136209212978,
        False,
        20,
        [('start', 0.5537831423596917),
         ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.6010000041294749),
         ('polling_interval_s=0.02', 0.7412560041294749),
         ('batch_size=2', 0.7589136209212978)]),
       (('at_most_once', 6, 0.0, 3.0),
        0.610780130678056,
        False,
        15,
        [('start', 0.47669065499021424),
         ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.5017725281599527),
         ('batch_size=2', 0.5688505811852341),
         ('batch_size=3', 0.6014017038299767),
         ('batch_size=4', 0.6025076636332073),
         ('batch_size=6', 0.610780130678056)]),
       (('at_most_once', 2, 0.02, 3.0),
        0.8074394500350407,
        True,
        9,
        [('start', 0.6789307091489067),
         ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.7277438304287649),
         ('polling_interval_s=0.02', 0.7723838304287649),
         ('batch_size=2', 0.8074394500350407)]),
       (('at_least_once', 2, 0.02, 3.0),
        0.5655923028126023,
        False,
        22,
        [('start', 0.4886845547268541),
         ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.5140808511730272),
         ('batch_size=2', 0.5292778682634817),
         ('polling_interval_s=0.02', 0.5470326633671901),
         ('semantics=DeliverySemantics.AT_LEAST_ONCE', 0.5655923028126023)]),
       (('at_least_once', 1, 0.02, 3.0),
        0.7185512113716073,
        False,
        18,
        [('start', 0.5468840113716072),
         ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.5869507726461453),
         ('polling_interval_s=0.02', 0.6878753107483336),
         ('semantics=DeliverySemantics.AT_LEAST_ONCE', 0.7185512113716073)])],
 0.99: [(('at_most_once', 2, 0.02, 3.0),
         0.798445874504257,
         False,
         20,
         [('start', 0.6609435580873394),
          ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.7097566793671976),
          ('polling_interval_s=0.02', 0.7543966793671976),
          ('batch_size=2', 0.798445874504257)]),
        (('at_least_once', 3, 0.02, 3.0),
         0.5559405587459587,
         False,
         15,
         [('start', 0.44916430501669713),
          ('batch_size=2', 0.5077539740902729),
          ('batch_size=3', 0.511555584749088),
          ('polling_interval_s=0.02', 0.5559405587459587)]),
        (('at_most_once', 10, 0.02, 3.0),
         0.9506576162228614,
         False,
         24,
         [('start', 0.750153912247541),
          ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.7867813048712572),
          ('batch_size=2', 0.7973010649251858),
          ('polling_interval_s=0.02', 0.8419410649251858),
          ('batch_size=3', 0.8794889569917786),
          ('batch_size=4', 0.9067441365547907),
          ('batch_size=6', 0.9436817543963619),
          ('batch_size=8', 0.9505563062429864),
          ('batch_size=10', 0.9506576162228614)]),
        (('at_least_once', 3, 0.02, 3.0),
         0.6078720195135603,
         False,
         23,
         [('start', 0.4191160306725923),
          ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.426465579362613),
          ('batch_size=2', 0.5190796844154305),
          ('batch_size=3', 0.5408776294831592),
          ('polling_interval_s=0.02', 0.5734506488538597),
          ('semantics=DeliverySemantics.AT_LEAST_ONCE', 0.6078720195135603)]),
        (('at_most_once', 2, 0.02, 3.0),
         0.7589136209212978,
         False,
         20,
         [('start', 0.5537831423596917),
          ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.6010000041294749),
          ('polling_interval_s=0.02', 0.7412560041294749),
          ('batch_size=2', 0.7589136209212978)]),
        (('at_most_once', 6, 0.0, 3.0),
         0.610780130678056,
         False,
         15,
         [('start', 0.47669065499021424),
          ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.5017725281599527),
          ('batch_size=2', 0.5688505811852341),
          ('batch_size=3', 0.6014017038299767),
          ('batch_size=4', 0.6025076636332073),
          ('batch_size=6', 0.610780130678056)]),
        (('at_most_once', 6, 0.02, 3.0),
         0.8552898153942651,
         False,
         23,
         [('start', 0.6789307091489067),
          ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.7277438304287649),
          ('polling_interval_s=0.02', 0.7723838304287649),
          ('batch_size=2', 0.8074394500350407),
          ('batch_size=3', 0.8271725722154849),
          ('batch_size=4', 0.8398758102865929),
          ('batch_size=6', 0.8552898153942651)]),
        (('at_least_once', 2, 0.02, 3.0),
         0.5655923028126023,
         False,
         22,
         [('start', 0.4886845547268541),
          ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.5140808511730272),
          ('batch_size=2', 0.5292778682634817),
          ('polling_interval_s=0.02', 0.5470326633671901),
          ('semantics=DeliverySemantics.AT_LEAST_ONCE', 0.5655923028126023)]),
        (('at_least_once', 1, 0.02, 3.0),
         0.7185512113716073,
         False,
         18,
         [('start', 0.5468840113716072),
          ('semantics=DeliverySemantics.AT_MOST_ONCE', 0.5869507726461453),
          ('polling_interval_s=0.02', 0.6878753107483336),
          ('semantics=DeliverySemantics.AT_LEAST_ONCE', 0.7185512113716073)])]}


class TestGoldenSearch:
    @pytest.mark.parametrize("gamma_requirement", [0.5, 0.8, 0.99])
    def test_search_matches_golden_values(self, gamma_requirement):
        model = ProducerPerformanceModel()
        for context, expected in zip(contexts(), GOLDEN[gamma_requirement]):
            result = select_configuration(
                context, AnalyticPredictor(), model,
                gamma_requirement=gamma_requirement,
            )
            (semantics, batch_size, polling, timeout), gamma, met, steps, trace = expected
            assert result.config == ProducerConfig(
                semantics=DeliverySemantics.parse(semantics),
                batch_size=batch_size,
                polling_interval_s=polling,
                message_timeout_s=timeout,
            ), context
            assert result.gamma == gamma
            assert result.met_requirement == met
            assert result.steps_taken == steps
            assert result.trace == trace
            assert result.prediction_source == "ann"


ALO = DeliverySemantics.AT_LEAST_ONCE
AMO = DeliverySemantics.AT_MOST_ONCE


class TestPredictionSource:
    def test_reports_worst_tier_the_search_read(self):
        stub = AnalyticPredictor({AMO: "neighbour"})
        result = select_configuration(
            contexts()[1], stub, ProducerPerformanceModel(), gamma_requirement=0.99
        )
        assert result.prediction_source == "neighbour"
        # The tier is bookkeeping only: the decision is the golden one,
        # which never moved to at-most-once but did probe it.
        assert result.config.semantics is ALO
        assert result.trace == GOLDEN[0.99][1][4]

    def test_unread_degraded_tier_not_reported(self):
        # The requirement is met at the start, so the search never reads
        # an at-most-once candidate.
        stub = AnalyticPredictor({AMO: "neighbour"})
        result = select_configuration(
            contexts()[0], stub, ProducerPerformanceModel(), gamma_requirement=0.5
        )
        assert result.steps_taken == 0
        assert result.prediction_source == "ann"

    @pytest.mark.parametrize(
        "tiers",
        [{ALO: "neighbour", AMO: "conservative"}, {ALO: "conservative", AMO: "neighbour"}],
    )
    def test_conservative_outranks_neighbour(self, tiers):
        result = select_configuration(
            contexts()[1], AnalyticPredictor(tiers), ProducerPerformanceModel(),
            gamma_requirement=0.99,
        )
        assert result.prediction_source == "conservative"


class TestEvaluateConfigs:
    def test_entries_match_single_row_reference(self, predictor):
        predictor.invalidate_caches()
        model = ProducerPerformanceModel()
        steps = ParameterSteps()
        context = contexts(1)[0]
        # A slice of the full grid crossing semantics and batch size.
        configs = [
            ProducerConfig(semantics=semantics, batch_size=batch)
            for semantics in steps.semantics
            for batch in steps.batch_size
        ]
        scored = evaluate_configs(configs, context, predictor, model)
        for config, (gamma, source) in zip(configs, scored):
            reference = single_row_reference(predictor, context.feature_vector(config))
            performance = model.predict(
                config, context.message_bytes, context.network_delay_s
            )
            assert source == "ann"
            assert gamma == kpi_from_estimates(performance, reference)

    def test_uncovered_config_scored_from_fallback_tier(self, predictor):
        model = ProducerPerformanceModel()
        context = contexts(1)[0]
        uncovered = ProducerConfig(semantics=DeliverySemantics.EXACTLY_ONCE)
        [(gamma, source)] = evaluate_configs([uncovered], context, predictor, model)
        # The module predictor remembers only its own training rows, none
        # of them exactly-once: the chain ends at the conservative tier.
        assert source == "conservative"
        performance = model.predict(
            uncovered, context.message_bytes, context.network_delay_s
        )
        assert gamma == kpi_from_estimates(performance, CONSERVATIVE_ESTIMATE)
