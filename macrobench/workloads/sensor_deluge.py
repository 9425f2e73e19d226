"""``sensor_deluge``: the paper's headline, a columnar write-heavy deluge.

Disaggregated 4 compute x 4 storage cluster.  Each frame is one device
tick: conflicting observations of a slice of entities are columnarised,
truth-fused and sent through a raw gateway; group-tagged raw sensor rows
go through an aggregating gateway; both land in ``cluster.ingest_batch``
and become durable at ``cluster.tick``.  Entity keys cycle through a pool
eight frames wide, so the store grows, then sees overwrites and several
memtable flush / compaction cycles.  Four narrow continuous prefix
queries ride each tick; otherwise the query plane is idle.

Why it exists: gateway, fusion, columns, cluster routing, the coalesced
storage RPC and KV/WAL do nearly all the work here, so a write-path
change must show on this workload -- and a query-plane change must not.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np

from repro import (
    ClusterConfig,
    DataKind,
    DataRecord,
    DeviceGateway,
    ObservationBatch,
    PlatformCluster,
    RecordBatch,
    Space,
)
from repro.fusion import Observation, TruthFusion

from . import kv_runs

NAME = "sensor_deluge"
FRAMES = 50
ENTITIES = 600          # fused per frame (x 5 sources x 2 attributes)
RAW_ROWS = 1200         # raw sensor rows per frame, aggregated by zone
KEY_POOL_FRAMES = 8     # entity keys repeat after this many frames
SOURCES = 5
EM_ITERATIONS = 7
MAINTAIN_EVERY = 10
SAMPLE = 200

HEADLINE = {
    "ingest_rec_s": ("rate", "records", None),
    "tick_p50_ms": ("pct", 50, ("tick",)),
    "tick_p95_ms": ("pct", 95, ("tick",)),
}


def generate(seed: int, scale: float):
    rng = random.Random(f"{seed}:{NAME}")
    nprng = np.random.default_rng(seed)
    entities = max(20, round(ENTITIES * scale))
    raw_rows = max(40, round(RAW_ROWS * scale))
    zones = max(4, raw_rows // 10)
    pool = entities * KEY_POOL_FRAMES
    frames = []
    for f in range(FRAMES):
        first = (f * entities) % pool
        observations = [
            Observation(
                entity_id=f"ent/{(first + e) % pool:06d}",
                attribute=attribute,
                value=rng.uniform(0.0, 100.0),
                source=f"s{s}",
                timestamp=float(f),
                confidence=rng.uniform(0.5, 1.0),
            )
            for e in range(entities)
            for s in range(SOURCES)
            for attribute in ("x", "y")
        ]
        # What the devices capture: already columnar, tagged by zone.
        raw = RecordBatch(
            keys=[f"raw/{f:03d}/{i:05d}" for i in range(raw_rows)],
            columns={
                "temp": nprng.uniform(-10.0, 40.0, raw_rows),
                "load": nprng.uniform(0.0, 1.0, raw_rows),
            },
            timestamps=np.full(raw_rows, float(f)),
            source="sensor",
            groups=[f"zone/{i % zones:04d}" for i in range(raw_rows)],
        )
        frames.append(SimpleNamespace(observations=observations, raw=raw))
    return SimpleNamespace(seed=seed, frames=frames, entities=entities,
                           zones=zones)


def setup(inputs):
    cluster = PlatformCluster(ClusterConfig(n_shards=4, n_storage_nodes=4))
    for q in range(4):
        # ~1/1000 of the entity key space each: cheap next to the writes.
        cluster.register_continuous(f"watch-{q}", f"ent/00{q}00")
    return SimpleNamespace(
        cluster=cluster,
        metrics=cluster.metrics,
        clock=cluster.clock,
        fuser=TruthFusion(iterations=EM_ITERATIONS),
        raw_gateway=DeviceGateway(aggregate=False, metrics=cluster.metrics),
        zone_gateway=DeviceGateway(
            aggregate=True, group_fn=lambda record: record.key,
            metrics=cluster.metrics,
        ),
        last_written={},
        first_fused=None,
    )


def _fused_records(fused, timestamp: float) -> list[DataRecord]:
    """Glue: one record per entity from its fused attributes."""
    by_entity: dict[str, dict] = {}
    for (entity, attribute), value in fused.items():
        by_entity.setdefault(entity, {})[attribute] = value.value
    return [
        DataRecord(
            key=entity, payload=payload, space=Space.PHYSICAL,
            timestamp=timestamp, kind=DataKind.SENSOR, source="fusion",
        )
        for entity, payload in by_entity.items()
    ]


def run(world, inputs, rec) -> None:
    cluster = world.cluster
    for f, frame in enumerate(inputs.frames):
        batch = rec.call(
            "fusion.build", ObservationBatch.from_observations,
            frame.observations,
        )
        fused = rec.call("fusion.fuse", world.fuser.fuse_batch, batch)
        if world.first_fused is None:
            world.first_fused = fused
        records = _fused_records(fused, float(f))
        columnar = rec.call("columns.build", RecordBatch.from_records, records)
        rec.call("gateway.ingest", world.raw_gateway.ingest_batch, columnar)
        entities_out, entity_bytes = rec.call(
            "gateway.flush", world.raw_gateway.flush_batch
        )
        rec.call("gateway.ingest", world.zone_gateway.ingest_batch, frame.raw)
        zones_out, zone_bytes = rec.call(
            "gateway.flush", world.zone_gateway.flush_batch
        )
        rec.call("ingest", cluster.ingest_batch, entities_out)
        rec.call("ingest", cluster.ingest_batch, zones_out)
        rec.call("tick", cluster.tick, 0.5)
        if (f + 1) % MAINTAIN_EVERY == 0:
            rec.call("maintain", cluster.maintain_storage)
        rec.end_frame()

        sent = len(entities_out) + len(zones_out)
        rec.ops(sent)
        rec.own["records"] += sent
        rec.own["user_bytes"] += entity_bytes + zone_bytes
        rec.own["fusion.observations"] += len(frame.observations)
        rec.own["fusion.groups"] += len(fused)
        for record in records:
            world.last_written[record.key] = record.payload


def check(world, inputs, rec) -> None:
    cluster = world.cluster
    flushed = cluster.metrics.counter("cluster.ingested_records").value
    rec.expect("flushed_equals_sent", flushed == rec.own["records"])

    rng = random.Random(f"{inputs.seed}:{NAME}:sample")
    keys = sorted(world.last_written)
    sampled = rng.sample(keys, min(SAMPLE, len(keys)))
    rec.expect(
        "read_back_last_written",
        all(
            cluster.read(key)["payload"] == world.last_written[key]
            for key in sampled
        ),
    )

    # Trust weights are estimated over the whole frame, so the per-record
    # reference fuses all of frame 0 and the sample is compared after.
    reference = TruthFusion(iterations=EM_ITERATIONS).fuse(
        inputs.frames[0].observations
    )
    groups = sorted(reference)
    compared = rng.sample(groups, min(2 * SAMPLE, len(groups)))
    rec.expect(
        "fuse_batch_equals_fuse",
        all(
            world.first_fused[key].value == reference[key].value
            for key in compared
        ),
    )
    rec.own["kv.runs"] = kv_runs(cluster)
