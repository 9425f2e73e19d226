"""E27: hot-path macro-benchmark — the perf trajectory's first point.

Claim: the data deluge is a *throughput* problem (paper Sec. II) — the
platform must ingest, fuse, and query continuous streams at hardware
speed, so the repo grows a columnar hot path (``RecordBatch`` ingest,
``fuse_batch``, group-committed ``mput``, coalesced storage RPCs) that
moves a tick's data as numpy arrays instead of per-record Python
objects.  Shape: the single-shard ingest+query pipeline (observations →
truth fusion → storage → prefix scans) runs **>= 5x faster** columnar
than per-record while leaving *byte-identical* engine state, and the
coalesced remote-storage path cuts per-flush round trips from O(keys)
to O(storage nodes).

Artifact: ``e27_hotpath.{prom,json}`` (metrics snapshot) plus
``BENCH_e27.json`` — the committed point ``benchmarks/check_regression.py``
gates against.  Both hold deterministic values only; the wall-clock
timings are printed in the report (macrobench measures wall-clock end
to end).
A full run rewrites the repo-root ``BENCH_e27.json``; ``--smoke`` keeps
the committed baseline untouched and writes everything into the
artifacts directory instead.
"""

import json
import random
import sys
import time
from pathlib import Path

from repro.core import DataKind, DataRecord, MetricsRegistry, RecordBatch, Space
from repro.fusion import ObservationBatch, TruthFusion
from repro.fusion.sources import Observation
from repro.obs import write_snapshot
from repro.platform import MetaversePlatform
from repro.storage import StorageTier
from repro.workloads import FlashSaleConfig, MarketplaceWorkload

REPO_ROOT = Path(__file__).resolve().parents[1]

N_ENTITIES = 2000
SMOKE_ENTITIES = 600
N_SOURCES = 5           # observations per entity attribute
EM_ITERATIONS = 7
N_QUERIES = 16
N_STORE_RECORDS = 20_000
SMOKE_STORE_RECORDS = 4_000
N_RPC_RECORDS = 2_000
N_STORAGE_NODES = 4
N_REQUESTS = 2_000
SMOKE_REQUESTS = 400
TIMING_REPS = 2  # best-of reps per timed pipeline

#: Acceptance: columnar ingest+query must beat per-record by this factor.
MIN_INGEST_QUERY_SPEEDUP = 5.0


# -- workloads ---------------------------------------------------------------


def make_observations(n_entities, seed=7):
    """A tick's device stream: ``N_SOURCES`` conflicting readings per
    entity attribute, for the truth-fusion stage to reconcile."""
    rng = random.Random(seed)
    observations = []
    for e in range(n_entities):
        for s in range(N_SOURCES):
            for attribute in ("x", "y"):
                observations.append(
                    Observation(
                        entity_id=f"ent/{e:05d}",
                        attribute=attribute,
                        value=rng.uniform(0.0, 100.0),
                        source=f"s{s}",
                        timestamp=float(e),
                        confidence=rng.uniform(0.5, 1.0),
                    )
                )
    return observations


def make_store_records(n, seed=11):
    """Uniform-payload sensor records for the storage-write micro."""
    rng = random.Random(seed)
    return [
        DataRecord(
            key=f"ent/{i:06d}",
            payload={
                "x": rng.uniform(0.0, 100.0),
                "y": rng.uniform(0.0, 100.0),
                "v": i,
            },
            space=Space.PHYSICAL,
            timestamp=float(i) * 1e-3,
            kind=DataKind.SENSOR,
            source="bench",
        )
        for i in range(n)
    ]


def fused_to_records(fused):
    """Fold per-(entity, attribute) fused values into one record per
    entity — identical for both paths (sorted, so order is stable)."""
    by_entity = {}
    for (entity, attribute), value in sorted(fused.items()):
        by_entity.setdefault(entity, {})[attribute] = value.value
    return [
        DataRecord(
            key=entity, payload=payload, space=Space.PHYSICAL,
            timestamp=0.0, kind=DataKind.SENSOR, source="fusion",
        )
        for entity, payload in by_entity.items()
    ]


def engine_state(platform):
    return json.dumps(platform.engine.scan("", "￿"), sort_keys=True)


# -- subsystem runs ----------------------------------------------------------


def run_ingest_query(n_entities):
    """The macro pipeline: observations → fusion → storage → queries,
    per-record vs columnar, returning wall times and an identity flag."""
    observations = make_observations(n_entities)
    batch = ObservationBatch.from_observations(observations)
    n_ops = len(observations) + N_QUERIES

    def once(columnar):
        platform = MetaversePlatform(n_executors=4)
        fuser = TruthFusion(iterations=EM_ITERATIONS)
        start = time.perf_counter()
        fused = fuser.fuse_batch(batch) if columnar else fuser.fuse(observations)
        records = fused_to_records(fused)
        if columnar:
            platform.ingest_batch(RecordBatch.from_records(records))
        else:
            platform.ingest_many(records)
        platform.flush()
        for q in range(N_QUERIES):
            platform.scan_prefix(f"ent/{q:03d}")
        return time.perf_counter() - start, platform

    def best_of(columnar):
        times = []
        for _ in range(TIMING_REPS):
            elapsed, platform = once(columnar)
            times.append(elapsed)
        return min(times), platform

    per_record_s, platform_a = best_of(columnar=False)
    columnar_s, platform_b = best_of(columnar=True)
    return {
        "n_ops": n_ops,
        "per_record_s": per_record_s,
        "columnar_s": columnar_s,
        "speedup": per_record_s / columnar_s,
        "identical": engine_state(platform_a) == engine_state(platform_b),
    }


def run_storage_write(n_records):
    """Storage-write micro: N puts through the platform vs one columnar
    batch (group-committed mput)."""
    records = make_store_records(n_records)
    batch = RecordBatch.from_records(records)

    def once(columnar):
        platform = MetaversePlatform(n_executors=4)
        start = time.perf_counter()
        if columnar:
            platform.ingest_batch(batch)
        else:
            platform.ingest_many(records)
        platform.flush()
        return time.perf_counter() - start, platform

    def best_of(columnar):
        times = []
        for _ in range(TIMING_REPS):
            elapsed, platform = once(columnar)
            times.append(elapsed)
        return min(times), platform

    per_record_s, platform_a = best_of(columnar=False)
    columnar_s, platform_b = best_of(columnar=True)
    return {
        "n_records": n_records,
        "per_record_s": per_record_s,
        "columnar_s": columnar_s,
        "speedup": per_record_s / columnar_s,
        "identical": engine_state(platform_a) == engine_state(platform_b),
    }


def run_fusion(n_entities):
    """Fusion micro: the EM loop per-record vs vectorized."""
    observations = make_observations(n_entities)
    batch = ObservationBatch.from_observations(observations)

    start = time.perf_counter()
    expected = TruthFusion(iterations=EM_ITERATIONS).fuse(observations)
    per_record_s = time.perf_counter() - start

    start = time.perf_counter()
    actual = TruthFusion(iterations=EM_ITERATIONS).fuse_batch(batch)
    columnar_s = time.perf_counter() - start
    return {
        "n_observations": len(observations),
        "per_record_s": per_record_s,
        "columnar_s": columnar_s,
        "speedup": per_record_s / columnar_s,
        "identical": all(
            actual[key].value == fused.value for key, fused in expected.items()
        ),
    }


def run_query(n_records):
    """Query micro over a loaded platform: broad prefix scans and
    position-indexed spatial queries (identical on either ingest path)."""
    from repro.spatial.geometry import BBox

    platform = MetaversePlatform(n_executors=4)
    platform.ingest_batch(RecordBatch.from_records(make_store_records(n_records)))
    platform.flush()

    start = time.perf_counter()
    for q in range(N_QUERIES):
        platform.scan_prefix(f"ent/{q:02d}")
    scan_s = time.perf_counter() - start

    start = time.perf_counter()
    for q in range(N_QUERIES):
        platform.query_spatial(BBox(0.0, 0.0, 10.0 + q, 10.0 + q))
    spatial_s = time.perf_counter() - start
    return {"scan_s": scan_s, "spatial_s": spatial_s, "n_queries": N_QUERIES}


def run_purchase(n_requests):
    """Purchase micro: wall ops/sec plus the *simulated* throughput the
    scale-out experiments quote (deterministic, so the artifact anchors
    the determinism diff)."""
    workload = MarketplaceWorkload(
        FlashSaleConfig(
            n_products=96, initial_stock=10_000, zipf_skew=0.2,
            burst_rate=500.0, burst_start=0.0,
            burst_end=n_requests / 500.0 + 1,
        ),
        seed=3,
    )
    requests = workload.requests_between(0.0, n_requests / 500.0 + 1)[:n_requests]
    platform = MetaversePlatform(n_executors=4)
    platform.load_catalog(workload.catalog_records())
    start = time.perf_counter()
    outcomes = platform.process_purchases(requests)
    elapsed = time.perf_counter() - start
    return {
        "n_requests": len(requests),
        "elapsed_s": elapsed,
        "successes": sum(o.success for o in outcomes),
        "throughput_simulated": platform.compute_throughput(len(requests)),
    }


def run_storage_rpcs(n_records=N_RPC_RECORDS):
    """RPC coalescing: per-record flush pays one round trip per key;
    the columnar flush pays at most one per storage node — with
    byte-identical tier state.  Counts are simulated, so deterministic."""
    records = make_store_records(n_records)
    batch = RecordBatch.from_records(records)

    def build():
        tier = StorageTier(n_nodes=N_STORAGE_NODES)
        engine = tier.mount("bench")
        return tier, engine, MetaversePlatform(engine=engine)

    tier_a, engine_a, per_record = build()
    per_record.ingest_many(records)
    per_record.flush()

    tier_b, engine_b, columnar = build()
    columnar.ingest_batch(batch)
    columnar.flush()

    state_a = json.dumps(sorted(tier_a.mget(tier_a.keys()).items()))
    state_b = json.dumps(sorted(tier_b.mget(tier_b.keys()).items()))
    return {
        "n_records": n_records,
        "nodes": N_STORAGE_NODES,
        "rpcs_per_record": engine_a.rpcs,
        "rpcs_coalesced": engine_b.rpcs,
        "identical": state_a == state_b,
    }


# -- acceptance bounds -------------------------------------------------------


def check_hotpath_bounds(macro, storage, fusion, rpcs, smoke=False):
    """The smoke tier is gated on the deterministic flags and counts only:
    its pipelines run for tens of milliseconds, where a best-of-2 ratio of
    two wall clocks swings 4.6x-9x on a shared runner.  The wall-clock
    bounds hold the full-scale run, which writes the committed file."""
    assert macro["identical"], "columnar ingest+query changed engine state"
    assert storage["identical"], "columnar storage write changed engine state"
    if not smoke:
        assert macro["speedup"] >= MIN_INGEST_QUERY_SPEEDUP, (
            f"ingest+query speedup {macro['speedup']:.2f}x below "
            f"{MIN_INGEST_QUERY_SPEEDUP:.0f}x bound"
        )
        assert storage["speedup"] > 1.0, "columnar storage write is not faster"
    assert fusion["identical"], "fuse_batch diverged from fuse"
    assert rpcs["identical"], "coalesced flush changed tier state"
    assert rpcs["rpcs_per_record"] >= rpcs["n_records"], (
        "per-record flush did not pay one RPC per key"
    )
    assert rpcs["rpcs_coalesced"] <= rpcs["nodes"], (
        f"coalesced flush paid {rpcs['rpcs_coalesced']} RPCs for "
        f"{rpcs['nodes']} storage nodes — not O(nodes)"
    )


# -- pytest-benchmark hooks --------------------------------------------------


def test_e27_ingest_query_speedup(benchmark):
    macro = benchmark.pedantic(
        run_ingest_query, args=(N_ENTITIES,), rounds=1, iterations=1
    )
    assert macro["identical"]
    assert macro["speedup"] >= MIN_INGEST_QUERY_SPEEDUP


def test_e27_storage_write_identity(benchmark):
    storage = benchmark.pedantic(
        run_storage_write, args=(SMOKE_STORE_RECORDS,), rounds=1, iterations=1
    )
    assert storage["identical"] and storage["speedup"] > 1.0


def test_e27_rpc_coalescing_is_o_nodes(benchmark):
    rpcs = benchmark.pedantic(run_storage_rpcs, rounds=1, iterations=1)
    assert rpcs["identical"]
    assert rpcs["rpcs_coalesced"] <= rpcs["nodes"] < rpcs["rpcs_per_record"]


# -- reporting ---------------------------------------------------------------


def collect(smoke=False):
    n_entities = SMOKE_ENTITIES if smoke else N_ENTITIES
    n_store = SMOKE_STORE_RECORDS if smoke else N_STORE_RECORDS
    n_requests = SMOKE_REQUESTS if smoke else N_REQUESTS
    macro = run_ingest_query(n_entities)
    storage = run_storage_write(n_store)
    fusion = run_fusion(n_entities)
    query = run_query(n_store)
    purchase = run_purchase(n_requests)
    rpcs = run_storage_rpcs()
    return macro, storage, fusion, query, purchase, rpcs


#: Regression gates for ``check_regression.py`` (kinds documented there).
GATES = [
    # A fast-but-wrong hot path is a regression, not an optimisation.
    ("flag", "*.identical"),
    # O(nodes) round trips is a property, not a measurement.  The
    # ``*.speedup_wall`` ratios are wall-clock and so only printed: they
    # swing past any fixed bound between runs of one unmodified tree.
    ("ceiling", "storage.rpcs_coalesced", "baseline"),
]


def rate(ops, seconds):
    return ops / seconds if seconds > 0 else 0.0


def bench_payload(macro, storage, fusion, query, purchase, rpcs, smoke):
    """The BENCH_e27.json document: deterministic values only, so the
    committed baseline diffs cleanly."""
    return {
        "meta": {
            "experiment": "E27",
            "smoke": int(smoke),
            "n_fusion_observations": fusion["n_observations"],
            "n_store_records": storage["n_records"],
            "n_purchase_requests": purchase["n_requests"],
            "n_rpc_records": rpcs["n_records"],
            "storage_nodes": rpcs["nodes"],
        },
        "deterministic": {
            "ingest_query.identical": int(macro["identical"]),
            "storage_write.identical": int(storage["identical"]),
            "fusion.identical": int(fusion["identical"]),
            "storage.identical": int(rpcs["identical"]),
            "storage.rpcs_per_record": rpcs["rpcs_per_record"],
            "storage.rpcs_coalesced": rpcs["rpcs_coalesced"],
            "purchase.successes": purchase["successes"],
            "purchase.throughput_simulated": purchase["throughput_simulated"],
        },
    }


def report(file=sys.stdout, smoke=False, artifacts_dir="benchmarks/artifacts"):
    macro, storage, fusion, query, purchase, rpcs = collect(smoke=smoke)
    print("== E27: columnar hot path vs per-record "
          f"({'smoke' if smoke else 'full'} workload) ==", file=file)
    print(f"{'subsystem':>14} {'per-record':>12} {'columnar':>12} "
          f"{'speedup':>8} {'identical':>10}", file=file)
    for name, row in (
        ("ingest+query", macro), ("storage write", storage), ("fusion", fusion)
    ):
        print(f"{name:>14} {row['per_record_s']:>11.3f}s "
              f"{row['columnar_s']:>11.3f}s {row['speedup']:>7.2f}x "
              f"{str(row['identical']):>10}", file=file)
    print(f"\nstorage RPCs per flush ({rpcs['n_records']} keys, "
          f"{rpcs['nodes']} nodes): per-record {rpcs['rpcs_per_record']}, "
          f"coalesced {rpcs['rpcs_coalesced']} "
          f"(identical state: {rpcs['identical']})", file=file)
    print(f"purchases: {purchase['n_requests']} requests, "
          f"{purchase['successes']} sold, simulated "
          f"{purchase['throughput_simulated']:,.0f}/s, wall-clock "
          f"{rate(purchase['n_requests'], purchase['elapsed_s']):,.0f}/s",
          file=file)
    print(f"queries (wall-clock): prefix "
          f"{rate(query['n_queries'], query['scan_s']):,.0f}/s, spatial "
          f"{rate(query['n_queries'], query['spatial_s']):,.0f}/s", file=file)
    check_hotpath_bounds(macro, storage, fusion, rpcs, smoke=smoke)
    print(f"\ningest+query columnar speedup {macro['speedup']:.2f}x "
          f"(bound {MIN_INGEST_QUERY_SPEEDUP:.0f}x"
          f"{', not gated at smoke scale' if smoke else ''}), byte-identical state; "
          f"RPCs O(keys) -> O(nodes)", file=file)

    payload = bench_payload(macro, storage, fusion, query, purchase, rpcs, smoke)
    artifacts = Path(artifacts_dir)
    artifacts.mkdir(parents=True, exist_ok=True)
    bench_paths = [artifacts / "BENCH_e27.json"]
    if not smoke:
        # Full runs refresh the committed perf-trajectory point; smoke
        # runs must never overwrite the baseline they are gated against.
        bench_paths.append(REPO_ROOT / "BENCH_e27.json")
    for path in bench_paths:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    metrics = MetricsRegistry()
    for name, value in payload["deterministic"].items():
        metrics.gauge(f"e27.{name}").set(float(value))
    for name, value in payload["meta"].items():
        if name != "experiment":
            metrics.gauge(f"e27.meta.{name}").set(float(value))
    prom_path, json_path = write_snapshot(
        metrics, artifacts_dir, basename="e27_hotpath", prefix="repro"
    )
    print(f"[E27 artifact: {prom_path} and {json_path}; "
          f"perf point: {bench_paths[-1]}]", file=file)


if __name__ == "__main__":
    report(smoke="--smoke" in sys.argv[1:])
