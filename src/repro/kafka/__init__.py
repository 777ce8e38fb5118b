"""Simulated Apache Kafka substrate.

Implements the data path the paper measures: producer (polling, batching,
delivery semantics, retries, expiry), cluster (brokers, topics, partitions,
append-only logs, replication and leader election), consumer-side
reconciliation, and the Fig. 2 / Table I message state machine.
"""

from .broker import Broker, ProduceRequest, ProduceResponse
from .cluster import KafkaCluster
from .config import DEFAULT_PRODUCER_CONFIG, ProducerConfig
from .consumer import KafkaConsumer, ReconciliationReport, reconcile
from .log import LogEntry, PartitionLog
from .message import ProducerRecord
from .partition import Partition
from .producer import KafkaProducer, ProducerListener, ProducerStats
from .semantics import DeliverySemantics
from .state import (
    DeliveryCase,
    IllegalTransition,
    MessageState,
    MessageStateMachine,
    Transition,
)
from .topic import Topic

__all__ = [
    "Broker",
    "ProduceRequest",
    "ProduceResponse",
    "KafkaCluster",
    "DEFAULT_PRODUCER_CONFIG",
    "ProducerConfig",
    "KafkaConsumer",
    "ReconciliationReport",
    "reconcile",
    "LogEntry",
    "PartitionLog",
    "ProducerRecord",
    "Partition",
    "KafkaProducer",
    "ProducerListener",
    "ProducerStats",
    "DeliverySemantics",
    "DeliveryCase",
    "IllegalTransition",
    "MessageState",
    "MessageStateMachine",
    "Transition",
    "Topic",
]
