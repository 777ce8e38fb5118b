"""Every network weight starts on a 64-byte boundary, and where it starts
never changes a prediction bit.

`Sequential.predict_rowwise` runs its per-row GEMVs about a quarter
faster on weights that start on a cache line, while numpy only promises
16 bytes, so every path that makes a `Parameter.value` goes through
`ann.tensor.aligned`: construction, training (which writes in place), the
`ann/serialize.py` loader and `ModelRegistry.load`.  Large weight
matrices come from mmap at a page offset of 16 bytes, so a path that
skips the helper fails the alignment checks below.
"""

import numpy as np
import pytest

from repro.ann import build_mlp
from repro.ann.scaling import StandardScaler
from repro.ann.serialize import load_model, save_model
from repro.ann.tensor import ALIGNMENT, Parameter, aligned
from repro.kafka import DeliverySemantics
from repro.models import ModelRegistry, ReliabilityPredictor
from repro.models.predictor import SubModel

PAPER_NET = dict(input_dim=7, output_dim=2, hidden=(200, 200, 200, 64))


def assert_aligned(network):
    parameters = network.parameters()
    assert parameters
    for parameter in parameters:
        value = parameter.value
        assert value.dtype == np.float64
        assert value.flags.c_contiguous
        assert value.ctypes.data % ALIGNMENT == 0, parameter


def training_data(rows=48, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, PAPER_NET["input_dim"]))
    y = 1.0 / (1.0 + np.exp(-x[:, :2]))
    return x, y


def test_aligned_copies_values_exactly():
    rng = np.random.default_rng(3)
    for shape in [(), (1,), (5,), (1, 200), (200, 64), (7, 3, 2)]:
        source = rng.normal(size=shape)
        copy = aligned(source)
        assert copy.ctypes.data % ALIGNMENT == 0
        assert copy.shape == source.shape
        assert copy.tobytes() == source.tobytes()
        assert not np.shares_memory(copy, source)
    assert aligned([1, 2]).dtype == np.float64


def test_parameter_value_is_aligned():
    parameter = Parameter(np.ones((200, 200)))
    assert parameter.value.ctypes.data % ALIGNMENT == 0


def test_build_mlp():
    assert_aligned(build_mlp(**PAPER_NET, seed=4))


def test_fit_without_early_stopping():
    network = build_mlp(**PAPER_NET, seed=4)
    x, y = training_data()
    network.fit(x, y, epochs=2, batch_size=16)
    assert_aligned(network)


def test_fit_with_early_stopping_copies_back_aligned():
    network = build_mlp(**PAPER_NET, seed=4)
    x, y = training_data()
    val_x, val_y = training_data(rows=16, seed=2)
    history = network.fit(
        x, y, epochs=40, batch_size=8, validation=(val_x, val_y), patience=0
    )
    assert history.stopped_early
    assert_aligned(network)


def test_serialize_round_trip(tmp_path):
    network = build_mlp(**PAPER_NET, seed=4)
    save_model(network, tmp_path / "net")
    loaded = load_model(tmp_path / "net")
    assert_aligned(loaded)
    for saved, restored in zip(network.parameters(), loaded.parameters()):
        assert saved.value.tobytes() == restored.value.tobytes()


def test_registry_load(tmp_path):
    x, _ = training_data()
    predictor = ReliabilityPredictor()
    for region, semantics in [
        ("normal", DeliverySemantics.AT_LEAST_ONCE),
        ("abnormal", DeliverySemantics.AT_MOST_ONCE),
    ]:
        network = build_mlp(PAPER_NET["input_dim"], 2, hidden=(200, 64), seed=5)
        scaler = StandardScaler()
        scaler.fit(x)
        predictor.submodels[(region, semantics.value)] = SubModel(
            region, semantics, network, scaler
        )
    registry = ModelRegistry(tmp_path)
    registry.save("aligned", predictor)
    loaded = registry.load("aligned")
    assert len(loaded.submodels) == 2
    for submodel in loaded.submodels.values():
        assert_aligned(submodel.network)


def at_offset(values, offset):
    """A copy of ``values`` starting ``offset`` bytes past a 64-byte boundary."""
    buffer = np.empty(values.nbytes + 2 * ALIGNMENT, dtype=np.uint8)
    start = -buffer.ctypes.data % ALIGNMENT + offset
    out = buffer[start : start + values.nbytes].view(np.float64).reshape(values.shape)
    out[...] = values
    assert out.ctypes.data % ALIGNMENT == offset
    return out


@pytest.mark.parametrize("rows", range(1, 21))
def test_predict_rowwise_bits_do_not_depend_on_offset(rows):
    network = build_mlp(**PAPER_NET, seed=6)
    batch = np.random.default_rng(rows).normal(size=(rows, PAPER_NET["input_dim"]))
    originals = [parameter.value for parameter in network.parameters()]
    reference = network.predict_rowwise(batch).tobytes()
    for offset in (0, 16, 32, 48):
        for parameter, value in zip(network.parameters(), originals):
            parameter.value = at_offset(value, offset)
        assert network.predict_rowwise(batch).tobytes() == reference, offset
