"""The five workloads, each a module with the same five entry points.

``generate(seed, scale)``  inputs, a pure function of its arguments
``setup(inputs)``          a fresh system (timed as set-up); the returned
                           object has ``metrics`` and ``clock``
``run(world, inputs, rec)``   the fixed work; every call into the system
                              goes through ``rec.call``
``check(world, inputs, rec)`` the oracles (``rec.expect``) and the counts
                              only the workload can read off the system
``HEADLINE``               its workload-specific end-to-end figures

``scale`` multiplies population sizes (entities, objects, players,
requests per frame), never the number of frames.
"""

from __future__ import annotations

import importlib

NAMES = (
    "sensor_deluge", "scene_query", "flash_sale", "twin_mixed", "geo_commerce",
)


def load(name: str):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    return importlib.import_module(f"{__name__}.{name}")


def kv_runs(cluster) -> int:
    """Sorted runs across every LSM store the cluster writes to."""
    if cluster.storage is not None:
        engines = [node.engine for node in cluster.storage.nodes.values()]
    else:
        engines = [shard.engine for shard in cluster.shards.values()]
    return sum(engine.kv.run_count for engine in engines)

