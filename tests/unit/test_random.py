"""Unit tests for the seeded RNG registry."""

import pytest

from repro.simulation import RngRegistry


def test_same_seed_same_stream():
    a = RngRegistry(42).stream("loss")
    b = RngRegistry(42).stream("loss")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_are_independent():
    registry = RngRegistry(42)
    loss = [registry.stream("loss").random() for _ in range(5)]
    delay = [RngRegistry(42).stream("delay").random() for _ in range(5)]
    assert loss != delay


def test_stream_identity_is_order_independent():
    first = RngRegistry(7)
    _ = first.stream("a")
    value_b_first = first.stream("b").random()
    second = RngRegistry(7)
    value_b_only = second.stream("b").random()
    assert value_b_first == value_b_only


def test_stream_is_cached():
    registry = RngRegistry(1)
    assert registry.stream("x") is registry.stream("x")


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngRegistry(-1)
