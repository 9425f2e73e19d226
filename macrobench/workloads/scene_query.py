"""``scene_query``: read-only queries over a populated virtual scene.

Local-engine 4-shard cluster with the per-shard semantic index on,
preloaded in set-up with a seeded scene corpus (so ``setup_s`` is mostly
the HNSW build, i.e. the semantic layer's write cost).  Each frame is one
scene refresh: 5 text-to-scene ``semantic_query`` calls, 10 spatial boxes
of a tenth of the scene's side, and 10 prefix scans over ~100-key ranges,
interleaved.

Why it exists: the query plane, the cluster scatter, the position index
and the HNSW beam search do all the work; storage writes, fusion and the
gateway do none.  ROADMAP's "scan/spatial 5x" and "sharded ANN
wall-clock" targets must show here, and a write-path change must not.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np

from repro import ClusterConfig, PlatformCluster
from repro.query import prefix_query, spatial_query
from repro.semantic import (
    brute_force_topk,
    embed_text,
    indexed_vector,
    semantic_query,
)
from repro.spatial.geometry import BBox
from repro.workloads import RetrievalConfig, RetrievalWorkload

from . import kv_runs

NAME = "scene_query"
FRAMES = 60
OBJECTS = 1000
SEMANTIC_PER_FRAME = 5
SPATIAL_PER_FRAME = 10
PREFIX_PER_FRAME = 10
K = 10
ORACLE_QUERIES = 50
RECALL_FLOOR = 0.95

HEADLINE = {
    "prefix_p50_ms": ("pct", 50, ("prefix",)),
    "spatial_p50_ms": ("pct", 50, ("spatial",)),
    "semantic_p50_ms": ("pct", 50, ("semantic",)),
    "query_p99_ms": ("pct", 99, ("prefix", "spatial", "semantic")),
}


def generate(seed: int, scale: float):
    n_objects = max(120, round(OBJECTS * scale))
    config = RetrievalConfig(
        n_objects=n_objects, n_queries=FRAMES * SEMANTIC_PER_FRAME
    )
    scene = RetrievalWorkload(config, seed=seed)
    records = scene.scene_records()
    rng = random.Random(f"{seed}:{NAME}")
    side = config.area_side
    box = side / 10.0
    boxes = [
        BBox(x, y, x + box, y + box)
        for x, y in (
            (rng.uniform(0.0, side - box), rng.uniform(0.0, side - box))
            for _ in range(FRAMES * SPATIAL_PER_FRAME)
        )
    ]
    # object_key is scene/obj/NNNNNN: dropping two digits spans 100 keys.
    prefixes = [
        scene.object_key(rng.randrange(n_objects))[:-2]
        for _ in range(FRAMES * PREFIX_PER_FRAME)
    ]
    return SimpleNamespace(
        seed=seed,
        records=records,
        texts=scene.query_texts(),
        boxes=boxes,
        prefixes=prefixes,
        # Row i is bitwise the vector the shards store for record i.
        matrix=np.stack([indexed_vector(r.key, r.payload) for r in records]),
        user_bytes=sum(r.size_bytes() for r in records),
    )


def _distance_evals(cluster) -> int:
    return sum(shard.semantic.distance_evals for shard in cluster.shards.values())


def setup(inputs):
    cluster = PlatformCluster(ClusterConfig(n_shards=4, semantic_index=True))
    cluster.ingest_many(inputs.records)
    cluster.flush()
    return SimpleNamespace(
        cluster=cluster, metrics=cluster.metrics, clock=cluster.clock,
        build_evals=_distance_evals(cluster), results={},
    )


def run(world, inputs, rec) -> None:
    cluster = world.cluster
    results = world.results
    for f in range(FRAMES):
        # Interleave the three modalities 1 : 2 : 2 within the frame.
        for i in range(SEMANTIC_PER_FRAME):
            s = f * SEMANTIC_PER_FRAME + i
            results["semantic", s] = rec.call(
                "semantic", cluster.query, semantic_query(inputs.texts[s], k=K)
            )
            for j in range(2):
                q = 2 * s + j
                results["spatial", q] = rec.call(
                    "spatial", cluster.query, spatial_query(inputs.boxes[q])
                )
                results["prefix", q] = rec.call(
                    "prefix", cluster.query, prefix_query(inputs.prefixes[q])
                )
        rec.end_frame()
    rec.ops(len(results))
    for (modality, _), result in results.items():
        rec.own[f"query.{modality}.rows_out"] += len(result.items)
        if result.failed_shards:
            rec.fail(f"partial_{modality}_query")


def check(world, inputs, rec) -> None:
    results = world.results
    keys = [record.key for record in inputs.records]
    rng = random.Random(f"{inputs.seed}:{NAME}:sample")

    recall = 0.0
    for s in rng.sample(range(len(inputs.texts)), ORACLE_QUERIES):
        exact = brute_force_topk(
            keys, inputs.matrix, embed_text(inputs.texts[s]), K
        )
        found = {key for key, _ in results["semantic", s].items}
        recall += len(found & {key for key, _ in exact}) / K
    recall /= ORACLE_QUERIES
    rec.own["semantic.recall_at_10"] = recall
    rec.expect("recall_at_10", recall >= RECALL_FLOOR)

    spatial_ok = True
    for q in rng.sample(range(len(inputs.boxes)), ORACLE_QUERIES):
        box = inputs.boxes[q]
        expected = sorted(
            r.key for r in inputs.records
            if box.x_min <= r.payload["x"] <= box.x_max
            and box.y_min <= r.payload["y"] <= box.y_max
        )
        spatial_ok &= [k for k, _ in results["spatial", q].items] == expected
    rec.expect("spatial_equals_brute_force", spatial_ok)

    prefix_ok = True
    for q in rng.sample(range(len(inputs.prefixes)), ORACLE_QUERIES):
        prefix = inputs.prefixes[q]
        expected = [key for key in keys if key.startswith(prefix)]
        prefix_ok &= [k for k, _ in results["prefix", q].items] == expected
    rec.expect("prefix_equals_brute_force", prefix_ok)

    rec.own["semantic.distance_evals_build"] = world.build_evals
    rec.own["semantic.distance_evals_query"] = (
        _distance_evals(world.cluster) - world.build_evals
    )
    rec.own["user_bytes"] = inputs.user_bytes
    rec.own["kv.runs"] = kv_runs(world.cluster)
