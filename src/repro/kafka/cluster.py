"""The Kafka cluster: brokers, topics and request routing.

The testbed's cluster is three broker containers on one bridge network.
Here a :class:`KafkaCluster` owns the broker objects and topic metadata and
receives produce requests from the producer's network channel, routing each
to the current leader of its destination partition.  Broker crashes
trigger leader election among the replicas, reproducing the
broker-failure scenario the paper marks as future work.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from ..simulation.simulator import Simulator
from .broker import Broker, ProduceRequest, ProduceResponse
from .config import BrokerConfig
from .message import ProducerRecord
from .partition import Partition
from .topic import Partitioner, Topic

__all__ = ["KafkaCluster"]


class KafkaCluster:
    """A set of brokers plus topic metadata.

    Parameters
    ----------
    sim:
        Shared simulator.
    broker_count:
        Number of broker nodes (the paper uses three).
    broker_config:
        Shared broker tuning.
    """

    def __init__(
        self,
        sim: Simulator,
        broker_count: int = 3,
        broker_config: Optional[BrokerConfig] = None,
    ) -> None:
        if broker_count < 1:
            raise ValueError("broker_count must be >= 1")
        self._sim = sim
        self.broker_config = broker_config if broker_config is not None else BrokerConfig()
        self.brokers: Dict[str, Broker] = {
            f"broker-{index}": Broker(sim, f"broker-{index}", self.broker_config)
            for index in range(broker_count)
        }
        self.topics: Dict[str, Topic] = {}
        self._append_listeners: List[Callable[[ProducerRecord, Partition, int], None]] = []
        self._producer_ids = itertools.count(1)

    def init_producer_id(self) -> int:
        """Assign a producer id, unique within this cluster (from 1)."""
        return next(self._producer_ids)

    @property
    def broker_ids(self) -> List[str]:
        """Stable, ordered broker identifiers."""
        return sorted(self.brokers)

    def create_topic(
        self,
        name: str,
        partitions: int = 3,
        partitioner: Optional[Partitioner] = None,
    ) -> Topic:
        """Create a topic with leaders assigned round-robin across brokers."""
        if name in self.topics:
            raise ValueError(f"topic {name!r} already exists")
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        broker_ids = self.broker_ids
        replication = min(self.broker_config.replication_factor, len(broker_ids))
        partition_objects = []
        for index in range(partitions):
            leader = broker_ids[index % len(broker_ids)]
            replicas = [
                broker_ids[(index + shift) % len(broker_ids)]
                for shift in range(replication)
            ]
            partition_objects.append(
                Partition(name, index, leader, replicas)
            )
        topic = Topic(name, partition_objects, partitioner)
        self.topics[name] = topic
        return topic

    def topic(self, name: str) -> Topic:
        """Look up a topic by name."""
        try:
            return self.topics[name]
        except KeyError:
            raise KeyError(f"no such topic: {name!r}") from None

    def add_append_listener(
        self, callback: Callable[[ProducerRecord, Partition, int], None]
    ) -> None:
        """Register an instrumentation callback for every append."""
        self._append_listeners.append(callback)
        for broker in self.brokers.values():
            broker.add_append_listener(callback)

    def leader_for(self, partition: Partition) -> Broker:
        """The broker currently leading ``partition``."""
        return self.brokers[partition.leader_broker_id]

    def handle_produce(
        self,
        request: ProduceRequest,
        on_done: Optional[Callable[[ProduceResponse], None]] = None,
    ) -> None:
        """Route a produce request to its partition leader."""
        self.brokers[request.partition.leader_broker_id].handle_produce(request, on_done)

    # ------------------------------------------------------ fault handling

    def set_broker_availability(self, broker_id: str, available: bool) -> None:
        """Fault-injector hook: crash or restore a broker.

        Crashing a leader triggers election of the first available
        follower; partitions with no live replica become unavailable.
        """
        broker = self.brokers.get(broker_id)
        if broker is None:
            raise KeyError(f"no such broker: {broker_id!r}")
        if available:
            broker.restore()
            return
        broker.crash()
        for topic in self.topics.values():
            for partition in topic.partitions:
                if partition.leader_broker_id != broker_id:
                    continue
                candidates = [
                    replica
                    for replica in partition.follower_broker_ids
                    if self.brokers.get(replica, broker).available
                ]
                if candidates:
                    partition.elect_new_leader(candidates[0])
