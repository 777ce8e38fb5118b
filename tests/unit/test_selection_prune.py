"""Pruning in the configuration search changes no decision, only the work.

A candidate the ANN tier covers whose best case, Eq. 2 with
P_l = P_d = 0, cannot beat the current γ is never predicted.  Against a
twin predictor that covers nothing (so nothing is ever pruned), every
``SelectionResult`` field must be equal, γ and each trace γ to the bit,
while the pruning search sends fewer rows to the prediction entry point.
"""

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.kpi import select_configuration
from repro.models import ReliabilityPredictor
from repro.performance import ProducerPerformanceModel

from . import test_selection_batched as batched

#: The trained module predictor of ``test_selection_batched``:
#: at-most-once and at-least-once submodels in both Fig. 3 regions.
predictor = batched.predictor

REQUIREMENTS = (0.5, 0.8, 0.95, 0.999)

STARTS = (
    ProducerConfig(),
    ProducerConfig(
        semantics=DeliverySemantics.AT_MOST_ONCE,
        batch_size=4,
        polling_interval_s=0.04,
        message_timeout_s=1.0,
    ),
)


class Counting(ReliabilityPredictor):
    """The trained predictor's submodels and memory, with caches of its own,
    counting the rows sent to the prediction entry point."""

    def __init__(self, trained, drop=()):
        super().__init__()
        self.submodels = {
            key: submodel for key, submodel in trained.submodels.items() if key not in drop
        }
        self.remember(trained._memory)
        self.rows = 0

    def predict_with_fallback_batch(self, vectors):
        vectors = list(vectors)
        self.rows += len(vectors)
        return super().predict_with_fallback_batch(vectors)


class Unpruned(Counting):
    """Covers nothing as far as the search can tell, so it prunes nothing."""

    def covers(self, vector):
        return False


def fields(result):
    """Every ``SelectionResult`` field, floats as their exact bits."""
    return (
        result.config,
        result.gamma.hex(),
        result.met_requirement,
        result.steps_taken,
        [(name, gamma.hex()) for name, gamma in result.trace],
        result.prediction_source,
        result.config_source,
    )


def run_grid(search_predictor):
    model = ProducerPerformanceModel()
    return [
        fields(
            select_configuration(
                context,
                search_predictor,
                model,
                gamma_requirement=requirement,
                start=start,
            )
        )
        for requirement in REQUIREMENTS
        for start in STARTS
        for context in batched.contexts()
    ]


class TestPruneEquivalence:
    def test_every_field_equal_with_fewer_rows(self, predictor):
        pruning, unpruned = Counting(predictor), Unpruned(predictor)
        outcomes = run_grid(pruning)
        assert outcomes == run_grid(unpruned)
        # The grid must reach the search's walks, not only its start.
        assert any(steps_taken > 0 for _, _, _, steps_taken, *_ in outcomes)
        assert pruning.rows < unpruned.rows

    def test_missing_submodel_keeps_the_tiers(self, predictor):
        # Without the abnormal at-most-once submodel the neighbour tier
        # answers those candidates; they are never pruned.
        drop = [("abnormal", DeliverySemantics.AT_MOST_ONCE.value)]
        outcomes = run_grid(Counting(predictor, drop))
        assert outcomes == run_grid(Unpruned(predictor, drop))
        prediction_sources = {outcome[5] for outcome in outcomes}
        assert prediction_sources == {"ann", "neighbour"}

