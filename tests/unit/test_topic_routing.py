"""Pin key-hash routing to literal partition indices.

Every recorded golden (DES, result, replay) depends on which partition a
keyed record lands on, so the mapping from key to partition index is
fixed here for small keys and a few partition counts, both for a bare
:class:`Topic` and for one built by :meth:`KafkaCluster.create_topic`.
"""

import pytest

from repro.kafka import KafkaCluster, Partition, Topic
from repro.simulation import Simulator

#: Partition index of keys 0..11, per partition count.
EXPECTED = {
    1: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    3: [0, 1, 1, 2, 2, 2, 0, 0, 1, 1, 1, 2],
    5: [0, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 0],
}


@pytest.mark.parametrize("count", sorted(EXPECTED))
def test_topic_routes_keys_to_pinned_partitions(count):
    topic = Topic("t", [Partition("t", index, "broker-0") for index in range(count)])
    assert [topic.partition_for(key).index for key in range(12)] == EXPECTED[count]


@pytest.mark.parametrize("count", sorted(EXPECTED))
def test_cluster_topic_routes_keys_to_pinned_partitions(count):
    topic = KafkaCluster(Simulator()).create_topic("t", partitions=count)
    assert [topic.partition_for(key).index for key in range(12)] == EXPECTED[count]
