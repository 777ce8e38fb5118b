"""Simulated Apache Kafka substrate.

Implements the data path the paper measures: producer (polling, batching,
delivery semantics, retries, expiry), cluster (brokers, topics, partitions,
append-only logs, replication and leader election), consumer-side
reconciliation, and the Fig. 2 / Table I message state machine.
"""

from .broker import Broker, ProduceRequest, ProduceResponse
from .cluster import KafkaCluster
from .config import (
    BrokerConfig,
    DEFAULT_PRODUCER_CONFIG,
    HardwareProfile,
    ProducerConfig,
)
from .consumer import KafkaConsumer, ReconciliationReport, reconcile
from .log import LogEntry, LogSegment, PartitionLog
from .message import ProducerRecord, RecordMetadata
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
from .topic import KeyHashPartitioner, Partitioner, RoundRobinPartitioner, Topic

__all__ = [
    "Broker",
    "ProduceRequest",
    "ProduceResponse",
    "KafkaCluster",
    "BrokerConfig",
    "DEFAULT_PRODUCER_CONFIG",
    "HardwareProfile",
    "ProducerConfig",
    "KafkaConsumer",
    "ReconciliationReport",
    "reconcile",
    "LogEntry",
    "LogSegment",
    "PartitionLog",
    "ProducerRecord",
    "RecordMetadata",
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
    "KeyHashPartitioner",
    "Partitioner",
    "RoundRobinPartitioner",
    "Topic",
]
