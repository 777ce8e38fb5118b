#!/usr/bin/env python
"""A two-stage streaming pipeline (paper Fig. 1).

Builds the paper's motivating topology inside one simulation:

    upstream source → producer A → topic "raw"
        → stream processor B (consumer) → producer B → topic "derived"

Processor B consumes ``raw`` with one consumer, drops the redelivered
copies by key, applies a filter (drops ~30 % of records, e.g. bot
traffic), and republishes the survivors — acting as a producer itself,
exactly the role the paper highlights ("in these cases it also publishes
messages as a producer").
A network fault hits producer A's uplink mid-run; the end-to-end loss of
the pipeline is then reconciled stage by stage.

Run with::

    python examples/stream_pipeline.py
"""

from repro.analysis import render_table
from repro.kafka import (
    DeliverySemantics,
    KafkaCluster,
    KafkaConsumer,
    KafkaProducer,
    ProducerConfig,
    ProducerRecord,
)
from repro.network import ConstantLatency, FaultInjector, Link, NetworkFault, ReliableChannel
from repro.simulation import RngRegistry, Simulator

SOURCE_MESSAGES = 3000
SOURCE_RATE = 8.0  # msg/s: inside the scaled link's comfort zone
FILTER_KEEP = 0.7


def main() -> None:
    sim = Simulator()
    rng = RngRegistry(2027)
    cluster = KafkaCluster(sim, broker_count=3)
    raw = cluster.create_topic("raw", partitions=4)
    derived = cluster.create_topic("derived", partitions=4)

    def make_uplink(name):
        link = Link(sim, rng.stream(name), capacity_bps=7500.0,
                    latency=ConstantLatency(0.0005))
        return link, ReliableChannel(sim, link)

    # Stage 1: producer A feeds "raw" and suffers a mid-run fault.
    link_a, channel_a = make_uplink("uplink-a")
    producer_a = KafkaProducer(
        sim, cluster, channel_a, raw,
        config=ProducerConfig(semantics=DeliverySemantics.AT_LEAST_ONCE,
                              batch_size=2, message_timeout_s=1.5),
    )
    injector = FaultInjector(sim, link_a)
    injector.inject_at(100.0, NetworkFault(delay_s=0.08, loss_rate=0.18))
    injector.clear_at(220.0)

    source_keys = set()

    def feed(index=0):
        if index >= SOURCE_MESSAGES:
            producer_a.finish_input()
            return
        record = ProducerRecord(payload_bytes=220)
        producer_a.offer(record)
        source_keys.add(record.key)
        sim.schedule(1.0 / SOURCE_RATE, feed, index + 1)

    sim.schedule(0.0, feed)

    # Stage 2: processor B — a consumer feeding its own producer.
    link_b, channel_b = make_uplink("uplink-b")
    producer_b = KafkaProducer(
        sim, cluster, channel_b, derived,
        config=ProducerConfig(semantics=DeliverySemantics.EXACTLY_ONCE,
                              batch_size=2, message_timeout_s=3.0),
    )
    consumer = KafkaConsumer(raw, max_poll_records=100)
    kept_keys = set()
    processed = set()
    filter_rng = rng.stream("filter")

    def process_tick():
        for entry in consumer.poll():
            if entry.key in processed:
                continue  # at-least-once consumption: dedup by key
            processed.add(entry.key)
            if filter_rng.random() < FILTER_KEEP:
                derived_record = ProducerRecord(payload_bytes=180)
                producer_b.offer(derived_record)
                kept_keys.add(derived_record.key)

    stop_processing = sim.every(0.5, process_tick)

    sim.run(until=SOURCE_MESSAGES / SOURCE_RATE + 120.0)
    stop_processing()
    process_tick()  # final drain
    producer_b.finish_input()
    sim.run()

    from repro.kafka import reconcile

    stage1 = reconcile(source_keys, raw)
    stage2 = reconcile(kept_keys, derived)
    rows = [["stage", "produced", "P_l", "P_d"]]
    rows.append(["A → raw (fault-injected uplink)", str(stage1.produced),
                 f"{stage1.p_loss:.2%}", f"{stage1.p_duplicate:.3%}"])
    rows.append(["B → derived (exactly-once)", str(stage2.produced),
                 f"{stage2.p_loss:.2%}", f"{stage2.p_duplicate:.3%}"])
    print(render_table(rows, title="Pipeline reconciliation per stage"))
    survivors = stage1.delivered_unique
    print(
        f"\nsource messages: {len(source_keys)}; survived stage 1: {survivors}"
        f"; kept by filter: {len(kept_keys)} (≈{FILTER_KEEP:.0%} of consumed)"
        f"; in 'derived': {stage2.delivered_unique}"
    )
    print(
        "\nStage 1 loses messages while the fault is active (at-least-once"
        "\nrecovers some); stage 2 is exactly-once and loss-free, so the"
        "\npipeline's end-to-end gap is exactly stage 1's loss plus the"
        "\nintentional filter."
    )


if __name__ == "__main__":
    main()
