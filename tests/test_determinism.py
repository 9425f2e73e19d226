"""Determinism regression: the experiment suite reproduces itself.

Everything the benchmarks *claim* derives from seeded streams and the
simulated clock, so two ``run_experiments.py --smoke`` runs with the same
seeds must emit byte-identical JSON metrics artifacts — the only
legitimate differences are wall-clock measurements (runtime gauges,
elapsed/throughput readings), which this test strips before comparing.
A diff in anything else means a benchmark picked up hidden state
(dict-order, RNG leakage, real time) and its recorded tables can no
longer be trusted to reproduce.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = [pytest.mark.slow, pytest.mark.cluster]

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Name fragments that mark a metric as wall-clock-derived (legitimately
#: different between runs).  Everything else must match exactly.
WALL_CLOCK_TOKENS = ("runtime", "elapsed", "throughput_rps", "slowdown", "wall")


def run_smoke(artifacts_dir: Path) -> None:
    result = subprocess.run(
        [sys.executable, "benchmarks/run_experiments.py", "--smoke",
         "--artifacts-dir", str(artifacts_dir)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, (
        f"smoke run failed:\n{result.stdout[-2000:]}\n{result.stderr[-2000:]}"
    )


def strip_wall_clock(snapshot: dict) -> dict:
    """Drop wall-clock-derived metrics, and a section whose name marks it
    wall-clock as a whole (an older ``BENCH_*.json``'s ``wall_clock``);
    keep every simulated/seeded one."""

    def keep(name: str) -> bool:
        return not any(token in name for token in WALL_CLOCK_TOKENS)

    return {
        section: {
            name: value for name, value in metrics.items() if keep(name)
        }
        for section, metrics in snapshot.items()
        if keep(section)
    }


def canonical_bytes(path: Path) -> bytes:
    snapshot = strip_wall_clock(json.loads(path.read_text()))
    return json.dumps(snapshot, sort_keys=True).encode()


def test_smoke_artifacts_are_byte_identical_across_runs(tmp_path):
    dir_a, dir_b = tmp_path / "run_a", tmp_path / "run_b"
    run_smoke(dir_a)
    run_smoke(dir_b)

    names_a = sorted(p.name for p in dir_a.glob("*.json"))
    names_b = sorted(p.name for p in dir_b.glob("*.json"))
    assert names_a == names_b and names_a, "runs emitted different artifacts"
    # the elasticity loop (E29) must be part of the reproducible set —
    # a controller that scales on hidden state would drop out here
    assert "e29_elasticity.json" in names_a
    # likewise the geo deployment (E30): partitions, hints, anti-entropy,
    # and per-mode read latencies all ride the simulated clock
    assert "e30_geo.json" in names_a
    # and semantic retrieval (E31): embeddings, HNSW levels, and the
    # tie-break jitter are all pure functions of (key, payload)
    assert "e31_semantic.json" in names_a

    diverged = [
        name for name in names_a
        if canonical_bytes(dir_a / name) != canonical_bytes(dir_b / name)
    ]
    assert diverged == [], (
        f"nondeterministic artifacts (after wall-clock strip): {diverged}"
    )


@pytest.mark.elasticity
def test_e29_elasticity_run_is_byte_identical(tmp_path):
    """Two elasticity-enabled smoke runs: every scale action, salt
    decision, and shed count derives from the simulated clock, so the
    E29 payloads and JSON artifacts must agree byte-for-byte once the
    wall-clock gauges are stripped."""
    import io

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    bench_elasticity = __import__("bench_elasticity")

    payloads = []
    for run in ("a", "b"):
        artifacts = tmp_path / run
        payload = bench_elasticity.report(
            file=io.StringIO(), smoke=True, artifacts_dir=str(artifacts)
        )
        payloads.append(payload)
    assert payloads[0]["deterministic"] == payloads[1]["deterministic"]
    assert payloads[0]["meta"] == payloads[1]["meta"]
    assert (
        canonical_bytes(tmp_path / "a" / "e29_elasticity.json")
        == canonical_bytes(tmp_path / "b" / "e29_elasticity.json")
    )


@pytest.mark.geo
def test_e30_geo_run_is_byte_identical(tmp_path):
    """Two geo smoke runs: every replication ship, hint, anti-entropy
    round, partition drill, and consistency-mode latency derives from
    the simulated clock and seeded workloads, so the E30 payloads and
    JSON artifacts must agree byte-for-byte once the wall-clock gauges
    are stripped."""
    import io

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    bench_geo = __import__("bench_geo")

    payloads = []
    for run in ("a", "b"):
        artifacts = tmp_path / run
        payload = bench_geo.report(
            file=io.StringIO(), smoke=True, artifacts_dir=str(artifacts)
        )
        payloads.append(payload)
    assert payloads[0]["deterministic"] == payloads[1]["deterministic"]
    assert payloads[0]["meta"] == payloads[1]["meta"]
    assert (
        canonical_bytes(tmp_path / "a" / "e30_geo.json")
        == canonical_bytes(tmp_path / "b" / "e30_geo.json")
    )


@pytest.mark.semantic
def test_e31_semantic_run_is_byte_identical(tmp_path):
    """Two semantic smoke runs: stored vectors, graph levels, link sets,
    and distance-eval counts are pure functions of (key, payload) and
    the seeded corpus, so the E31 payloads and JSON artifacts must
    agree byte-for-byte once the wall-clock gauges are stripped."""
    import io

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    bench_semantic = __import__("bench_semantic")

    payloads = []
    for run in ("a", "b"):
        artifacts = tmp_path / run
        payload = bench_semantic.report(
            file=io.StringIO(), smoke=True, artifacts_dir=str(artifacts)
        )
        payloads.append(payload)
    assert payloads[0]["deterministic"] == payloads[1]["deterministic"]
    assert payloads[0]["meta"] == payloads[1]["meta"]
    assert (
        canonical_bytes(tmp_path / "a" / "e31_semantic.json")
        == canonical_bytes(tmp_path / "b" / "e31_semantic.json")
    )


# -- golden replicated logs ----------------------------------------------------
#
# The constants below were computed on the PR 20 tree, where every caller
# built and placed its own replication op and anti-entropy rewrote every
# copy into LSN order each tick; the logs the op tap feeds, compared by
# set digest, must be those logs — same ops, same LSNs, in every copy.
# Moved on purpose by PR 23: a ``process_purchases`` call logs one
# ``stock`` op per product it touched, not one per decrement, so each log
# holds fewer entries at other LSNs (``us-east`` 40 -> 17); what the logs
# *fold to* is held equal to the per-decrement logs by
# ``tests/test_call_settle.py``.  The record pins moved on purpose when a
# log entry became one record, the ops one call committed for one owner:
# each log holds fewer entries (``us-east`` 17 -> 8).  The per-op pins stay: each
# copy's records, expanded in LSN order and written one op per entry at
# LSNs 1..n in the per-op encoding, must still be the per-op logs above
# — same ops, same order, in every copy.
# A catalog load logs one record per owner; ``tests/test_catalog_load.py``
# holds what those logs fold to equal to a per-product load's.
# (``repro`` is imported inside the functions:
# ``benchmarks/compare_artifacts.py`` imports this module for its strip
# helper without ``src`` on the path.)

GOLDEN_SALE_LOGS = {
    "shard-0": (12, "bbf40cada7b8423e"),
    "shard-1": (12, "6c9b2b2a5dd8b238"),
    "shard-2": (17, "c5091307abc4b3b0"),
    "shard-3": (19, "26f858321d415277"),
}
GOLDEN_GEO_LOGS = {
    "us-east": (17, "4c9c50289e184312"),
    "eu-west": (27, "4da6c20e6680e8b6"),
    "ap-south": (21, "a2a454f2ee5ba159"),
}
GOLDEN_SALE_RECORDS = {
    "shard-0": (8, "7c001e285f8f9da3"),
    "shard-1": (8, "2cacd307067d6f90"),
    "shard-2": (8, "ef720ccc546f961c"),
    "shard-3": (6, "20613c211bf64de0"),
}
GOLDEN_GEO_RECORDS = {
    "us-east": (8, "1f343ca16f6e327b"),
    "eu-west": (16, "969edc1492c45c53"),
    "ap-south": (15, "306798486ea65255"),
}


def scripted_market(seed):
    from repro.workloads import FlashSaleConfig, MarketplaceWorkload

    return MarketplaceWorkload(
        FlashSaleConfig(
            n_products=12, n_shoppers=60, initial_stock=8, burst_rate=90.0,
            burst_start=0.0, burst_end=4.0, zipf_skew=1.0,
        ),
        seed=seed,
    )


def location(key, x, t):
    from repro import DataKind, DataRecord, Space

    return DataRecord(
        key=key, payload={"x": x, "y": t}, space=Space.VIRTUAL, timestamp=t,
        kind=DataKind.LOCATION, source="golden",
    )


def assert_golden(logs, golden_ops, golden_records):
    """Every copy of every log: entry count and RFC-6962 root prefix —
    the primary as it stands, a copy over its entries sorted by LSN (it
    appends in arrival order, and holding the same set is converged) —
    once over its records and once over its ops, one per entry."""
    import json

    from repro.replication import decode
    from repro.storage import WalEntry
    from tests.test_replication import merkle_root

    def pinned(entries):
        return len(entries), merkle_root(entries).hex()[:16]

    def records(log, name):
        entries = log.entries(name)
        if name != log.owner:
            entries = sorted(entries, key=lambda entry: entry.lsn)
        return pinned(entries)

    def ops(log, name):
        expanded = [
            op
            for entry in sorted(log.entries(name), key=lambda entry: entry.lsn)
            for op in decode(entry.payload)
        ]
        return pinned([
            WalEntry(lsn, json.dumps(op, sort_keys=True).encode("utf-8"))
            for lsn, op in enumerate(expanded, start=1)
        ])

    for view, golden in ((records, golden_records), (ops, golden_ops)):
        assert {
            log.owner: {view(log, name) for name in (log.owner, *log.holders)}
            for log in logs
        } == {owner: {pinned} for owner, pinned in golden.items()}


@pytest.mark.failover
def test_a_scripted_sale_leaves_the_golden_failover_logs():
    from repro.cluster import ClusterConfig, PlatformCluster

    market = scripted_market(seed=5)
    cluster = PlatformCluster(ClusterConfig(n_shards=4, n_replicas=2))
    cluster.load_catalog(market.catalog_records())
    for frame in range(4):
        t = float(frame)
        cluster.ingest_many([
            location(f"shopper/{frame}/{i}", float(i), t) for i in range(5)
        ])
        requests = market.requests_between(t, t + 1.0)
        cluster.process_purchases(requests)
        cluster.process_basket(requests[:3])
        cluster.tick(1.0)
    replicator = cluster.failover.replicator
    assert_golden(
        [replicator.log(owner) for owner in cluster.router.shards],
        GOLDEN_SALE_LOGS,
        GOLDEN_SALE_RECORDS,
    )


@pytest.mark.geo
def test_a_scripted_three_region_run_leaves_the_golden_geo_logs():
    from repro.geo import GeoConfig, GeoDeployment

    market = scripted_market(seed=9)
    geo = GeoDeployment(GeoConfig(regions=tuple(GOLDEN_GEO_LOGS)))

    def elsewhere(key):
        return [r for r in geo.config.regions if r != geo.home_of(key)][0]

    geo.load_catalog(market.catalog_records())
    for frame in range(4):
        t = float(frame)
        for i in range(6):
            geo.write_record(location(f"player-{i:04d}", float(i), t))
        geo.process_purchases(market.requests_between(t, t + 1.0))
        geo.tick(0.5)
        if frame == 1:
            pid = market.product_id(0)
            geo.rehome_product(pid, elsewhere(pid))
            geo.rehome_entity("player-0000", elsewhere("player-0000"))
        geo.tick(0.5)
    assert_golden(
        [geo.replicator.log(home) for home in geo.config.regions],
        GOLDEN_GEO_LOGS,
        GOLDEN_GEO_RECORDS,
    )


def test_strip_keeps_simulated_metrics_and_drops_wall_clock():
    snapshot = {
        "gauges": {
            "e24.shards_4.throughput": 78125.0,     # simulated — must survive
            "e23.clean.throughput_rps": 52326.8,    # wall-clock — stripped
            "experiments.bench_sync.runtime_s": 0.9,
            "e24.baskets.local": 94.0,
        },
        "counters": {"experiments.regenerated": 23.0},
    }
    stripped = strip_wall_clock(snapshot)
    assert "e24.shards_4.throughput" in stripped["gauges"]
    assert "e24.baskets.local" in stripped["gauges"]
    assert "e23.clean.throughput_rps" not in stripped["gauges"]
    assert "experiments.bench_sync.runtime_s" not in stripped["gauges"]
    assert stripped["counters"] == {"experiments.regenerated": 23.0}
    # A baseline from before the wall-clock halves left BENCH_*.json
    # compares equal to one without them.
    bench = {"deterministic": {"recall_at_10": 1.0}}
    assert strip_wall_clock({**bench, "wall_clock": {"brute_s": 0.4}}) == bench


def test_compare_artifacts_names_the_json_path_that_moved(tmp_path):
    """``compare_artifacts.py`` reports, per diverged artifact, each
    differing JSON path with both values — after the wall-clock strip."""
    snapshot = {
        "counters": {"mvcc.commits": 40.0},
        "gauges": {"experiments.runtime_s": 0.9},
        "histograms": {"cluster.twopc.latency_s": {"count": 7, "p95": 0.02}},
    }
    moved = json.loads(json.dumps(snapshot))
    moved["histograms"]["cluster.twopc.latency_s"]["count"] = 8
    moved["gauges"]["experiments.runtime_s"] = 1.7  # wall-clock: stripped
    for side, content in (("base", snapshot), ("head", moved)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "same.json").write_text(json.dumps(snapshot))
        (tmp_path / side / "e24_cluster.json").write_text(json.dumps(content))
    (tmp_path / "head" / "extra.json").write_text("{}")

    def run(base, head):
        return subprocess.run(
            [sys.executable, "benchmarks/compare_artifacts.py",
             str(tmp_path / base), str(tmp_path / head)],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
        )

    result = run("base", "head")
    assert result.returncode != 0
    report = result.stderr.splitlines()[1:]
    assert report == [
        "e24_cluster.json: 1 value(s) differ",
        "  histograms/cluster.twopc.latency_s/count: base=7 head=8",
        f"extra.json: only under {tmp_path / 'head'}",
    ]
    same = run("base", "base")
    assert same.returncode == 0
    assert "2 JSON artifacts identical" in same.stdout


def test_compare_macro_counts_reports_each_deterministic_metric_that_moved():
    """``compare_macro_counts.py`` keeps a result object's counts, bytes
    and ``sim.elapsed_s`` and names each that differs with both values;
    timings and ratios never show."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from compare_macro_counts import moved
    finally:
        sys.path.pop(0)

    def result(**metrics):
        return {"correct": True, "attempted": 9, "failed": 0, "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        }}

    base = result(**{
        "storage.rpc.calls": (19350.0, "count"),
        "storage.rpc.bytes": (1533065.0, "bytes"),
        "wal.bytes": (1669365.0, "bytes"),
        "sim.elapsed_s": (63.95, "s"),
        "storage.rpc_s": (0.97, "s"),
        "pool.hit_ratio": (0.5, "ratio"),
        "kv.compactions": (1.0, "count"),
    })
    head = result(**{
        "storage.rpc.calls": (7650.0, "count"),
        "storage.rpc.bytes": (1533065.0, "bytes"),
        "wal.bytes": (1400265.0, "bytes"),
        "sim.elapsed_s": (40.55, "s"),
        "storage.rpc_s": (0.21, "s"),
        "pool.hit_ratio": (0.6, "ratio"),
        "kv.runs": (21.0, "count"),
    })
    assert moved(base, base) == []
    assert moved(base, head) == [
        "  kv.compactions: base=1.0 head='<absent>'",
        "  kv.runs: base='<absent>' head=21.0",
        "  sim.elapsed_s: base=63.95 head=40.55",
        "  storage.rpc.calls: base=19350.0 head=7650.0",
        "  wal.bytes: base=1669365.0 head=1400265.0",
    ]


def test_compare_macro_counts_fails_only_when_a_never_up_metric_rises(monkeypatch):
    """Everything is report-only except ``NEVER_UP``: a semantic
    distance-eval count, a scan-work count or a replication-work count
    (copies rebuilt by anti-entropy, ops shipped to the failover log or
    across the WAN, WAL appends under them) or a byte count of the write
    path (logged, sent to storage) or an isolation count (MVCC write
    conflicts, purchase retries) or the fabric's work (simulated-network
    bytes, shard-router lookups) or the storage round trips or the
    engine's point reads above the base's is named and ``main`` exits
    non-zero on it; lower, equal or absent on either side is not, and a
    report-only count (keys per storage call) is never named, however
    far it rises."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import compare_macro_counts
        from compare_macro_counts import NEVER_UP, risen
    finally:
        sys.path.pop(0)

    def result(build, query=None, calls=3608.0, rows=16000.0, scans=4816.0,
               rounds=0.0, ops=12488.0, appends=24976.0, shipped=4990.0,
               logged=4132069.0, sent=4132069.0, messages=4990.0,
               trips=1439.0, conflicts=0.0, retries=0.0,
               net_bytes=5793280.0, lookups=60188.0, gets=1734.0,
               per_call=3.95):
        metrics = {"semantic.distance_evals_build": build,
                   "semantic.distance_evals_query": query,
                   "storage.scan.rows_examined": rows,
                   "kv.scans": scans,
                   "geo.antientropy.rounds": rounds,
                   "failover.replicated_ops": ops,
                   "wal.appends": appends,
                   "geo.repl.shipped": shipped,
                   "wal.bytes": logged,
                   "storage.rpc.bytes": sent,
                   "net.messages_sent": messages,
                   "geo.rpc.round_trips": trips,
                   "mvcc.conflicts": conflicts,
                   "platform.retries": retries,
                   "net.bytes_sent": net_bytes,
                   "cluster.router.lookups": lookups,
                   "storage.rpc.calls": calls,
                   "kv.gets": gets,
                   "storage.rpc.keys_per_call": per_call}
        return {"metrics": {
            name: {"value": value,
                   "unit": "bytes" if name.endswith(".bytes") else "count"}
            for name, value in metrics.items() if value is not None
        }}

    assert NEVER_UP == (
        "semantic.distance_evals_build", "semantic.distance_evals_query",
        "storage.scan.rows_examined", "kv.scans",
        "geo.antientropy.rounds", "failover.replicated_ops",
        "wal.appends", "geo.repl.shipped",
        "wal.bytes", "storage.rpc.bytes",
        "net.messages_sent", "geo.rpc.round_trips",
        "mvcc.conflicts", "platform.retries",
        "net.bytes_sent", "cluster.router.lookups",
        "storage.rpc.calls", "kv.gets",
    )
    base = result(626066.0, 282729.0)
    assert risen(base, base) == []
    assert risen(base, result(600000.0, 282729.0, calls=2824.0, rows=0.0, scans=1.0,
                              gets=733.0)) == []
    assert risen(base, result(626066.0, 282729.0, per_call=9.0)) == []
    assert risen(base, result(626067.0, 282729.0)) == ["semantic.distance_evals_build"]
    assert risen(base, result(626066.0, 282729.0, rows=16001.0)) == [
        "storage.scan.rows_examined"
    ]
    assert risen(base, result(626066.0, 282729.0, rounds=1.0, ops=9000.0)) == [
        "geo.antientropy.rounds"
    ]
    assert risen(base, result(626066.0, 282729.0, appends=24000.0, shipped=4991.0)) == [
        "geo.repl.shipped"
    ]
    assert risen(base, result(626066.0, 282729.0, logged=4132068.0, sent=4179269.0)) == [
        "storage.rpc.bytes"
    ]
    assert risen(base, result(626066.0, 282729.0, messages=4991.0, trips=1440.0)) == [
        "net.messages_sent", "geo.rpc.round_trips"
    ]
    assert risen(base, result(626066.0, 282729.0, conflicts=1.0, retries=1.0)) == [
        "mvcc.conflicts", "platform.retries"
    ]
    assert risen(base, result(626066.0, 282729.0, net_bytes=5793281.0)) == [
        "net.bytes_sent"
    ]
    assert risen(base, result(626066.0, 282729.0, lookups=60189.0)) == [
        "cluster.router.lookups"
    ]
    assert risen(base, result(626066.0, 282729.0, calls=3609.0)) == [
        "storage.rpc.calls"
    ]
    assert risen(base, result(626066.0, 282729.0, gets=1735.0, per_call=9.0)) == [
        "kv.gets"
    ]
    assert risen(
        base,
        result(626067.0, 282730.0, rows=212000.0, scans=6000.0, rounds=214.0,
               ops=25822.0, appends=51644.0, shipped=5598.0,
               logged=4132070.0, sent=4132070.0, messages=5000.0,
               trips=1500.0, conflicts=3.0, retries=3.0,
               net_bytes=5800000.0, lookups=60200.0, calls=4400.0,
               gets=2000.0, per_call=9.0),
    ) == list(NEVER_UP)
    assert risen(result(626066.0), base) == [] == risen(base, result(626066.0))

    trees = {"base": base, "down": result(1.0, 1.0), "up": result(626067.0, 1.0)}
    monkeypatch.setattr(
        compare_macro_counts, "measure", lambda tree, workload, extra: trees[str(tree)]
    )
    monkeypatch.setattr(compare_macro_counts, "WORKLOADS", ("scene_query",))
    monkeypatch.setattr(sys, "argv", ["compare_macro_counts.py", "base", "down"])
    compare_macro_counts.main()
    monkeypatch.setattr(sys, "argv", ["compare_macro_counts.py", "base", "up"])
    with pytest.raises(SystemExit) as failed:
        compare_macro_counts.main()
    assert "scene_query: semantic.distance_evals_build" in str(failed.value)


def test_paired_macro_verdict_is_nine_tenths_of_pairs_and_a_gap_past_the_iqr():
    """``paired_macro.py``'s verdict on canned pairs: a gain needs the
    change to win at least nine of ten pairs (ties count for neither)
    and its median to beat the parent's by more than the parent's
    interquartile range, in the direction BENCHMARK.json declares;
    quartiles interpolate as numpy's default percentiles do."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from paired_macro import directions, quartiles, verdict
    finally:
        sys.path.pop(0)

    base = [0.585, 0.590, 0.580, 0.600, 0.595, 0.588, 0.592, 0.583, 0.597, 0.586]
    assert quartiles(base) == pytest.approx((0.58525, 0.589, 0.59425))
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)

    faster = [b - 0.05 for b in base]
    won = verdict(base, faster, "lower")
    assert (won["wins"], won["losses"], won["pairs"]) == (10, 0, 10)
    assert won["iqr"] == pytest.approx(0.009)
    assert won["change"] == pytest.approx(-0.05 / 0.589)
    assert won["gain"]
    # the same numbers read the other way round lose every pair
    assert verdict(base, faster, "higher")["gain"] is False
    assert verdict(faster, base, "higher")["gain"]

    # eight of ten pairs won is not enough, however wide the gap
    two_lost = faster[:8] + [b + 0.01 for b in base[8:]]
    assert (verdict(base, two_lost, "lower")["wins"], verdict(
        base, two_lost, "lower")["gain"]) == (8, False)
    # nine of ten is, and a tie counts for neither side
    one_tied = faster[:9] + base[9:]
    tied = verdict(base, one_tied, "lower")
    assert (tied["wins"], tied["losses"], tied["gain"]) == (9, 0, True)
    # every pair won, but the median moved less than the parent's IQR
    close = [b - 0.004 for b in base]
    narrow = verdict(base, close, "lower")
    assert (narrow["wins"], narrow["gain"]) == (10, False)

    better = directions()
    assert better["wall_s"] == better["peak_rss_mb"] == "lower"
    assert better["ingest_rec_s"] == "higher"


def test_paired_macro_regression_is_a_median_past_the_bound_unless_the_iqr_is_wider():
    """``paired_macro.py``'s no-regression verdict on canned pairs: a
    median that moved the wrong way by more than the metric's bound in
    BENCHMARK.json is worse beyond bound, one that moved less is inside
    it, and a parent whose IQR is wider than the bound leaves it
    unresolved, whatever the medians did."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from paired_macro import bounds, regression, verdict
    finally:
        sys.path.pop(0)

    base = [0.585, 0.590, 0.580, 0.600, 0.595, 0.588, 0.592, 0.583, 0.597, 0.586]
    # IQR 0.009 on a 0.589 median: 1.5 %
    slower = [b * 1.25 for b in base]
    assert regression(verdict(base, slower, "lower"), "lower", 0.2) == (
        "worse beyond bound")
    assert regression(verdict(base, slower, "lower"), "lower", 0.3) == (
        "inside bound")
    # the same move is an improvement where higher is better
    assert regression(verdict(base, slower, "higher"), "higher", 0.2) == (
        "inside bound")
    faster = [b * 0.75 for b in base]
    assert regression(verdict(base, faster, "higher"), "higher", 0.2) == (
        "worse beyond bound")
    # a bound narrower than the parent's spread cannot be judged
    assert regression(verdict(base, slower, "lower"), "lower", 0.01) == "unresolved"
    assert regression(verdict(base, base, "lower"), "lower", 0.01) == "unresolved"
    wide = [0.4, 0.5, 0.6, 0.7, 0.8, 0.45, 0.55, 0.65, 0.75, 0.62]
    assert regression(verdict(wide, wide, "lower"), "lower", 0.2) == "unresolved"

    declared = bounds()
    assert declared["wall_s"] == 0.2 and declared["peak_rss_mb"] == 0.1
    assert "ingest_rec_s" not in declared
