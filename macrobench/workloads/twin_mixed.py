"""``twin_mixed``: a live digital twin -- per-record writes, reads beside them.

Disaggregated 4 compute x 4 storage cluster holding static scenery plus
random-waypoint players.  Each frame is one world tick: every player's
new position arrives as its own ``cluster.ingest(DataRecord)`` overwrite,
``cluster.tick`` makes them durable (four continuous prefix queries ride
along), then the client point-reads 25 players, runs two prefix scans
and one spatial box of a tenth of the world's side.  (The issue had the
spatial query on every second tick; frames have to be alike for a frame
percentile to be steady, so every frame has one and there are 50 frames.)

Why it exists: the same storage and query layers as ``sensor_deluge`` and
``scene_query``, used differently -- per-record rather than columnar
writes, overwrites rather than inserts, and reads through
``RemoteStorageEngine`` rather than local engines.  A write-path gain that
costs remote reads (or the reverse) shows here; remote spatial is a full
key-space scan per shard (``storage.rows_examined_per_result`` >> 1).
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from repro import (
    ClusterConfig,
    DataKind,
    DataRecord,
    PlatformCluster,
    RecordBatch,
    Space,
)
from repro.query import prefix_query, spatial_query
from repro.spatial.geometry import BBox
from repro.workloads import RandomWaypoint

from . import kv_runs

NAME = "twin_mixed"
FRAMES = 50
SCENERY = 750
PLAYERS = 250
READS_PER_FRAME = 25
PREFIXES_PER_FRAME = 2
WORLD_SIDE = 2000.0
BOX_SIDE = 200.0

HEADLINE = {
    "ingest_rec_s": ("rate", "records", ("ingest", "tick")),
    "prefix_p50_ms": ("pct", 50, ("prefix",)),
    "spatial_p50_ms": ("pct", 50, ("spatial",)),
    "point_read_p50_ms": ("pct", 50, ("read",)),
    "tick_p50_ms": ("pct", 50, ("tick",)),
    "tick_p95_ms": ("pct", 95, ("tick",)),
}


def _player_key(i: int) -> str:
    return f"player/{i:05d}"


def generate(seed: int, scale: float):
    rng = random.Random(f"{seed}:{NAME}")
    n_scenery = max(30, round(SCENERY * scale))
    n_players = max(10, round(PLAYERS * scale))
    domain = BBox(0.0, 0.0, WORLD_SIDE, WORLD_SIDE)
    scenery = [
        DataRecord(
            key=f"scenery/{i:05d}",
            payload={
                "x": rng.uniform(0.0, WORLD_SIDE),
                "y": rng.uniform(0.0, WORLD_SIDE),
                "height": rng.uniform(1.0, 30.0),
            },
            space=Space.VIRTUAL, timestamp=0.0,
            kind=DataKind.STRUCTURED, source="world",
        )
        for i in range(n_scenery)
    ]
    walkers = [
        RandomWaypoint(domain, speed_range=(2.0, 12.0), seed=seed * 100_003 + i)
        for i in range(n_players)
    ]
    reads = min(READS_PER_FRAME, n_players)
    frames = []
    for f in range(FRAMES):
        moves = []
        for i, walker in enumerate(walkers):
            position = walker.step(0.5)
            moves.append(DataRecord(
                key=_player_key(i),
                payload={"x": position.x, "y": position.y},
                space=Space.VIRTUAL, timestamp=(f + 1) * 0.5,
                kind=DataKind.LOCATION, source="client",
            ))
        x = rng.uniform(0.0, WORLD_SIDE - BOX_SIDE)
        y = rng.uniform(0.0, WORLD_SIDE - BOX_SIDE)
        frames.append(SimpleNamespace(
            moves=moves,
            reads=rng.sample(range(n_players), reads),
            # player/NNNNN minus one digit: a ten-player range.
            prefixes=[
                _player_key(rng.randrange(n_players))[:-1]
                for _ in range(PREFIXES_PER_FRAME)
            ],
            box=BBox(x, y, x + BOX_SIDE, y + BOX_SIDE),
        ))
    return SimpleNamespace(
        seed=seed, scenery=scenery, frames=frames, n_players=n_players,
        user_bytes=sum(r.size_bytes() for f in frames for r in f.moves),
    )


def setup(inputs):
    cluster = PlatformCluster(ClusterConfig(n_shards=4, n_storage_nodes=4))
    cluster.ingest_batch(RecordBatch.from_records(inputs.scenery))
    cluster.flush()
    for q in range(4):
        cluster.register_continuous(f"squad-{q}", _player_key(q * 10)[:-1])
    return SimpleNamespace(
        cluster=cluster, metrics=cluster.metrics, clock=cluster.clock,
    )


def _ingest_all(cluster, records) -> None:
    for record in records:
        cluster.ingest(record)


def run(world, inputs, rec) -> None:
    cluster = world.cluster
    positions = {
        r.key: (r.payload["x"], r.payload["y"]) for r in inputs.scenery
    }
    for frame in inputs.frames:
        rec.call("ingest", _ingest_all, cluster, frame.moves)
        rec.call("tick", cluster.tick, 0.5)
        for i in frame.reads:
            value = rec.call("read", cluster.read, _player_key(i))
            if value["payload"] != frame.moves[i].payload:
                rec.fail("read_returns_this_ticks_position")
        prefix_results = [
            rec.call("prefix", cluster.query, prefix_query(prefix))
            for prefix in frame.prefixes
        ]
        spatial = rec.call("spatial", cluster.query, spatial_query(frame.box))
        rec.end_frame()

        rec.ops(len(frame.moves) + len(frame.reads) + len(prefix_results) + 1)
        rec.own["records"] += len(frame.moves)
        for move in frame.moves:
            positions[move.key] = (move.payload["x"], move.payload["y"])
        for result in prefix_results:
            rec.own["query.prefix.rows_out"] += len(result.items)
            if result.failed_shards:
                rec.fail("partial_prefix_query")
        rec.own["query.spatial.rows_out"] += len(spatial.items)
        box = frame.box
        expected = sorted(
            key for key, (x, y) in positions.items()
            if box.x_min <= x <= box.x_max and box.y_min <= y <= box.y_max
        )
        if [key for key, _ in spatial.items] != expected:
            rec.fail("spatial_equals_brute_force")
    rec.own["user_bytes"] = inputs.user_bytes


def check(world, inputs, rec) -> None:
    cluster = world.cluster
    final = inputs.frames[-1].moves
    rec.expect(
        "final_positions_stored",
        all(cluster.read(m.key)["payload"] == m.payload for m in final),
    )
    rec.own["kv.runs"] = kv_runs(cluster)
