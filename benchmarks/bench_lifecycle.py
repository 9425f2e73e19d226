"""E28: flat recovery time under data-lifecycle management (repro.storage.lifecycle).

Claim: the paper's deluge argument (Sec. III) is about *retention*, not
just arrival rate — a platform that logs every mutation forever pays
recovery and failover costs that grow with history, not with live state.
The lifecycle layer (WAL checkpointing, replica-log compaction, tiered
placement) must make recovery work a function of what is *alive*.
Shape: the same live key set is written with 1x and 100x history depth;
with checkpointing on, crash recovery replays snapshot + suffix and its
wall-clock time must stay within RECOVERY_RATIO_BOUND of the 1x baseline
(the uncheckpointed control grows ~100x).  A replicated cluster then
runs a flash sale with deep pre-sale history and a mid-sale shard kill:
with compaction on, promotion replays O(live) records (an order less
than the compaction-off control) and inventory is exactly conserved
through the crash.  A record is what one call logged for one owner, and
compaction keeps a record whole while any op in it is live, so the ops
those records hold are reported beside them and must stay flat too.
Tier demotion/promotion round-trips must be bitwise.

Artifact: ``BENCH_e28.json`` (+ ``e28_lifecycle.{prom,json}``).  Every
value derives from seeded streams and simulated time, so the committed
baseline diffs cleanly; the recovery wall-clock timings are printed in
the report only.
"""

import json
import sys
import time

import pytest

from repro.cluster import ClusterConfig, PlatformCluster
from repro.cluster.failover import UP
from repro.core import DataRecord, MetricsRegistry, Space
from repro.obs import write_snapshot
from repro.replication import decode
from repro.storage import (
    CheckpointManager,
    KVStore,
    LifecyclePolicy,
    ObjectStore,
    TieredStorageEngine,
)
from repro.verify import exactly_once_violations, units_sold
from repro.workloads import PurchaseRequest

pytestmark = [pytest.mark.lifecycle]

# -- part A: single-store checkpoint recovery --------------------------------
N_LIVE_KEYS = 400
SMOKE_LIVE_KEYS = 200
HISTORY_GROWTH = 100          # the tentpole claim: 100x deeper history
SMOKE_GROWTH = 10
CHECKPOINT_EVERY = 256        # WAL entries between checkpoints
SMOKE_CHECKPOINT_EVERY = 64   # keeps the 1x baseline in ckpt steady state
RECOVERY_TRIALS = 7           # best-of timing to suppress scheduler noise
RECOVERY_RATIO_BOUND = 1.5    # acceptance: grown/base recovery wall-clock
# Smoke recoveries finish in well under a millisecond, so the wall-clock
# ratio is scheduler-noise-dominated; the deterministic replay-entry
# ratio keeps the tight bound there while the wall bound loosens.
SMOKE_RECOVERY_RATIO_BOUND = 2.5

# -- part B: cluster failover with compaction --------------------------------
N_SHARDS = 4
N_PRODUCTS = 8
INITIAL_STOCK = 50
N_REQUESTS = 80
HISTORY_ROUNDS = 30           # pre-sale entity-update rounds (1x)
COMPACT_THRESHOLD = 64
TORN_TAIL_BYTES = 3
TICK_S = 0.05
MAX_DRAIN_TICKS = 400
# Promotion replay with compaction is bounded by live keys + at most one
# compaction cycle of fresh entries, independent of history depth.  The
# kill can land anywhere in that cycle, so the grown/base ratio is gated
# loosely while the *absolute* cap carries the flatness claim.
FLAT_REPLAY_CAP = 2 * COMPACT_THRESHOLD
REPLAY_RATIO_BOUND = 2.0      # grown/base promotion replay entries
COMPACTION_GAIN_MIN = 3.0     # off/on promotion replay entries at 100x


def kv_state(kv):
    return json.dumps(list(kv.scan("", "￿")), sort_keys=True)


def build_history(n_keys, history_mult, checkpoint_every=None):
    """Write ``n_keys`` live keys ``history_mult`` times over (absolute
    post-states, so only the last round is live)."""
    kv = KVStore()
    ckpt = CheckpointManager(kv, ObjectStore())
    for round_ in range(history_mult):
        for i in range(n_keys):
            kv.put(f"ent/{i:05d}", {"round": round_, "value": i * 31 + round_})
            if checkpoint_every is not None:
                ckpt.maybe_checkpoint(checkpoint_every)
    return kv, ckpt


def time_recoveries(stores, trials=RECOVERY_TRIALS):
    """Best-of-N wall-clock recovery of a fresh store from each
    ``(kv, ckpt)`` in ``stores`` — from ``kv``'s WAL, and checkpoint when
    a manager is given.  Each trial recovers every store once, in turn,
    so a slow spell on a shared host lands on both sides of a ratio
    instead of one.  Returns, per store, the timing with the
    deterministic work counts of its last trial."""
    best = [float("inf")] * len(stores)
    last: list = [None] * len(stores)
    for _ in range(trials):
        for i, (kv, ckpt) in enumerate(stores):
            fresh = KVStore(wal=kv.wal)
            start = time.perf_counter()
            if ckpt is not None:
                counts = ckpt.recover(fresh)
            else:
                counts = 0, fresh.recover()
            best[i] = min(best[i], time.perf_counter() - start)
            last[i] = fresh, counts
    return [
        {
            "time_s": elapsed,
            "snapshot_entries": counts[0],
            "wal_entries": counts[1],
            "identical": int(kv_state(fresh) == kv_state(kv)),
        }
        for elapsed, (kv, _), (fresh, counts) in zip(best, stores, last)
    ]


def run_recovery_experiment(smoke=False):
    """Recovery wall-clock at 1x vs ``growth``x history, checkpointed and
    (at the grown scale) the uncheckpointed control."""
    n_keys = SMOKE_LIVE_KEYS if smoke else N_LIVE_KEYS
    growth = SMOKE_GROWTH if smoke else HISTORY_GROWTH
    interval = SMOKE_CHECKPOINT_EVERY if smoke else CHECKPOINT_EVERY

    base, grown = time_recoveries([
        build_history(n_keys, 1, interval),
        build_history(n_keys, growth, interval),
    ])
    kv_ctl, _ = build_history(n_keys, growth, checkpoint_every=None)
    (control,) = time_recoveries([(kv_ctl, None)], trials=3)

    # The satellite-bugfix interaction: tear the tail of a checkpoint-
    # truncated log; the LSN floor must hold and recovery must still see
    # the snapshot state.
    kv_torn, ckpt_torn = build_history(n_keys, 2, checkpoint_every=n_keys)
    for i in range(3):  # uncheckpointed suffix; the last write gets torn
        kv_torn.put(f"ent/{i:05d}", {"round": "suffix", "value": i})
    kv_torn.wal.corrupt_tail(TORN_TAIL_BYTES)
    floor_ok = kv_torn.wal.last_valid_lsn >= ckpt_torn.checkpoint_lsn > 0
    fresh = KVStore(wal=kv_torn.wal)
    snap_entries, suffix_entries = ckpt_torn.recover(fresh)
    torn_ok = int(
        floor_ok and snap_entries == n_keys and suffix_entries == 2
        and len(fresh.keys()) == n_keys
    )

    return {
        "n_keys": n_keys,
        "growth": growth,
        "base": base,
        "grown": grown,
        "control": control,
        "wall_ratio_bound": (
            SMOKE_RECOVERY_RATIO_BOUND if smoke else RECOVERY_RATIO_BOUND
        ),
        "time_ratio": grown["time_s"] / base["time_s"],
        "replay_entries_ratio": (
            (grown["snapshot_entries"] + grown["wal_entries"])
            / max(1, base["snapshot_entries"] + base["wal_entries"])
        ),
        "torn_tail_floor_ok": torn_ok,
    }


def check_recovery_bounds(out):
    """Acceptance: recovery work and time are flat in history depth.

    * both recoveries restore byte-identical observable state;
    * replayed entries (snapshot + suffix) stay flat as history grows
      ``growth``x — the deterministic form of the claim;
    * recovery wall-clock stays within RECOVERY_RATIO_BOUND of the 1x
      baseline, while the uncheckpointed control pays for full history;
    * the torn-tail/truncated-prefix interaction holds the LSN floor.
    """
    assert out["base"]["identical"] == 1 and out["grown"]["identical"] == 1
    assert out["replay_entries_ratio"] <= RECOVERY_RATIO_BOUND, (
        f"recovery replay work grew {out['replay_entries_ratio']:.2f}x "
        f"over {out['growth']}x history"
    )
    assert out["time_ratio"] <= out["wall_ratio_bound"], (
        f"recovery wall-clock grew {out['time_ratio']:.2f}x "
        f"(bound {out['wall_ratio_bound']}x) over {out['growth']}x history"
    )
    assert out["control"]["wal_entries"] >= out["growth"] * out["n_keys"], (
        "uncheckpointed control did not replay full history"
    )
    assert out["torn_tail_floor_ok"] == 1


def make_cluster(compact):
    return PlatformCluster(config=ClusterConfig(
        n_shards=N_SHARDS, n_executors_per_shard=4, n_replicas=2,
        phi_threshold=4.0,
        replica_log_compact_threshold=COMPACT_THRESHOLD if compact else None,
    ))


def run_cluster_sale(history_rounds, compact):
    """Deep entity history, then a flash sale with a mid-sale shard kill."""
    cluster = make_cluster(compact)
    catalog = [
        DataRecord(
            key=f"prod-{i:03d}", source="catalog", space=Space.PHYSICAL,
            payload={"name": f"p{i}", "price": 1.0 + i, "stock": INITIAL_STOCK},
        )
        for i in range(N_PRODUCTS)
    ]
    cluster.load_catalog(catalog)
    pids = [f"prod-{i:03d}" for i in range(N_PRODUCTS)]
    victim = cluster.router.owner_of(pids[0])

    victim_log = []  # the victim's primary log length after each round
    for round_ in range(history_rounds):
        for i in range(8):
            cluster.ingest(DataRecord(
                key=f"ent-{i}", source="sim", timestamp=float(round_),
                payload={"round": round_},
            ))
        cluster.tick(TICK_S)
        victim_log.append(cluster.failover.replicator.entry_count(victim))

    requests = [
        PurchaseRequest(
            shopper_id=f"s{i:03d}", product_id=pids[i % N_PRODUCTS],
            space=Space.VIRTUAL, timestamp=float(i),
        )
        for i in range(N_REQUESTS)
    ]
    half = len(requests) // 2
    outcomes = list(cluster.process_purchases(requests[:half]))
    cluster.kill_shard(victim, torn_tail_bytes=TORN_TAIL_BYTES)
    outcomes += cluster.process_purchases(requests[half:])
    # What promotion will replay: the victim's log union.  Nothing writes
    # it until then — the victim takes no writes and a down owner's log
    # is not compacted.
    replayed = cluster.failover.replicator.log(victim).union()
    for _ in range(MAX_DRAIN_TICKS):
        if cluster.failover.state(victim) == UP:
            break
        cluster.tick(TICK_S)
    assert cluster.failover.state(victim) == UP, "recovery never finished"

    stocks = {pid: cluster.get_stock(pid) for pid in pids}
    conserved = not exactly_once_violations(
        dict.fromkeys(pids, INITIAL_STOCK), units_sold(outcomes), stocks
    )

    def metric(kind, name):
        return float(getattr(cluster.metrics, kind)(name).value)

    assert metric(
        "gauge", "cluster.failover.promotion_replayed_entries"
    ) == len(replayed)

    return {
        "conserved": int(conserved),
        "successes": float(sum(o.success for o in outcomes)),
        "promotions": metric("counter", "cluster.failover.promotions"),
        "recoveries": metric("counter", "cluster.failover.recoveries"),
        "promotion_replayed": metric(
            "gauge", "cluster.failover.promotion_replayed_entries"
        ),
        "promotion_replayed_ops": float(
            sum(len(decode(entry.payload)) for entry in replayed)
        ),
        "compactions": metric("counter", "cluster.failover.log_compactions"),
        "compacted_entries": metric(
            "counter", "cluster.failover.compacted_entries"
        ),
        "recovery_time_s": metric("gauge", "cluster.failover.recovery_time_s"),
        "victim_log": victim_log,
    }


def cycle_lengths(victim_log):
    """The history lengths of one full compaction cycle ending at
    ``len(victim_log)`` rounds: as many as lie between the last two
    rounds at which the victim's log shrank (was compacted)."""
    shrank = [
        length for length in range(2, len(victim_log) + 1)
        if victim_log[length - 1] < victim_log[length - 2]
    ]
    assert len(shrank) >= 2, "history too short for a full compaction cycle"
    period = shrank[-1] - shrank[-2]
    return range(len(victim_log) - period + 1, len(victim_log) + 1)


def run_replay_cycle(grown):
    """Promotion replay at every history length of the compaction cycle
    that ends at ``grown``'s: the kill falls at each point of the
    sawtooth once, so the cycle's maximum bounds replay at any history
    length and its mean is the replay a kill costs on average.  Reports
    the lengths at which replay fell inside the window (a compaction
    between two neighbouring kills)."""
    lengths = cycle_lengths(grown["victim_log"])
    runs = [run_cluster_sale(h, compact=True) for h in lengths[:-1]] + [grown]
    replayed = [run["promotion_replayed"] for run in runs]
    ops = [run["promotion_replayed_ops"] for run in runs]
    return {
        "lengths": lengths,
        "conserved": int(all(run["conserved"] for run in runs)),
        "compacted_at": [
            length for length, before, after
            in zip(lengths[1:], replayed, replayed[1:]) if after < before
        ],
        "replayed_max": max(replayed),
        "replayed_mean": sum(replayed) / len(replayed),
        "replayed_ops_max": max(ops),
        "replayed_ops_mean": sum(ops) / len(ops),
    }


def run_failover_experiment(smoke=False):
    growth = SMOKE_GROWTH if smoke else HISTORY_GROWTH
    base = run_cluster_sale(HISTORY_ROUNDS, compact=True)
    grown = run_cluster_sale(HISTORY_ROUNDS * growth, compact=True)
    control = run_cluster_sale(HISTORY_ROUNDS * growth, compact=False)
    return {
        "growth": growth,
        "base": base,
        "grown": grown,
        "control": control,
        "cycle": run_replay_cycle(grown),
        "replay_ratio": (
            grown["promotion_replayed"] / max(1.0, base["promotion_replayed"])
        ),
        "compaction_gain": (
            control["promotion_replayed"]
            / max(1.0, grown["promotion_replayed"])
        ),
        "replay_ops_ratio": (
            grown["promotion_replayed_ops"]
            / max(1.0, base["promotion_replayed_ops"])
        ),
    }


def check_failover_bounds(out):
    """Acceptance: compaction bounds promotion replay by live state.

    * every run (compaction on and off) conserves inventory exactly
      through the mid-sale kill — lifecycle management never trades
      correctness for space;
    * with compaction, promotion replay stays under the absolute
      FLAT_REPLAY_CAP (live keys + one compaction cycle) no matter how
      deep the history (the cap counts records) — at the grown point and
      at its cycle's maximum, a window that holds a compaction — and
      within REPLAY_RATIO_BOUND of the 1x run in records and in the ops
      they hold;
    * the compaction-off control at grown history replays at least
      COMPACTION_GAIN_MIN times more entries than the compacted run.
    """
    for label in ("base", "grown", "control"):
        run = out[label]
        assert run["conserved"] == 1, f"{label}: lost or duplicated units"
        assert run["promotions"] == 1.0 and run["recoveries"] == 1.0, label
    assert out["grown"]["compactions"] > 0, "compaction never triggered"
    assert out["control"]["compactions"] == 0.0
    assert out["grown"]["promotion_replayed"] <= FLAT_REPLAY_CAP, (
        f"promotion replayed {out['grown']['promotion_replayed']:.0f} "
        f"entries at {out['growth']}x history (cap {FLAT_REPLAY_CAP})"
    )
    cycle = out["cycle"]
    assert cycle["conserved"] == 1, "cycle: lost or duplicated units"
    assert cycle["compacted_at"], "no compaction inside the replay cycle"
    assert cycle["replayed_max"] <= FLAT_REPLAY_CAP, (
        f"promotion replayed up to {cycle['replayed_max']:.0f} entries over "
        f"the compaction cycle at {out['growth']}x history "
        f"(cap {FLAT_REPLAY_CAP})"
    )
    for ratio in ("replay_ratio", "replay_ops_ratio"):
        assert out[ratio] <= REPLAY_RATIO_BOUND, (
            f"promotion replay grew {out[ratio]:.2f}x ({ratio}) "
            f"over {out['growth']}x history (bound {REPLAY_RATIO_BOUND}x)"
        )
    assert out["compaction_gain"] >= COMPACTION_GAIN_MIN, (
        f"compaction saved only {out['compaction_gain']:.1f}x replay "
        f"entries (expected >= {COMPACTION_GAIN_MIN}x)"
    )


def run_tier_roundtrip():
    """Part C: cold demotion/promotion must round-trip values bitwise."""
    engine = TieredStorageEngine(
        policy=LifecyclePolicy(hot_ttl_s=1.0, warm_ttl_s=2.0)
    )
    values = {
        f"k{i}": {"pos": [i * 0.5, -i * 0.25], "tags": [f"t{i}"], "n": i}
        for i in range(32)
    }
    before = {
        key: json.dumps(value, sort_keys=True, separators=(",", ":"))
        for key, value in values.items()
    }
    for key, value in values.items():
        engine.put(key, value)
    engine.clock.advance(10.0)
    report = engine.maintain()
    after = {
        key: json.dumps(engine.get(key), sort_keys=True, separators=(",", ":"))
        for key in values
    }
    return {
        "demoted": report["demoted"],
        "identical": int(after == before),
        "promotions": float(
            engine.metrics.counter("storage.tier.promotions").value
        ),
    }


# -- pytest entry points ------------------------------------------------------


def test_e28_recovery_time_flat(benchmark):
    out = benchmark.pedantic(
        lambda: run_recovery_experiment(smoke=True), rounds=1, iterations=1
    )
    check_recovery_bounds(out)


def test_e28_exactly_once_with_compaction(benchmark):
    out = benchmark.pedantic(
        lambda: run_failover_experiment(smoke=True), rounds=1, iterations=1
    )
    check_failover_bounds(out)


def test_e28_tier_roundtrip_bitwise(benchmark):
    out = benchmark.pedantic(run_tier_roundtrip, rounds=1, iterations=1)
    assert out["identical"] == 1 and out["demoted"] == 32


def test_e28_is_deterministic():
    """Same seeds, same kill point -> identical lifecycle trajectory."""
    first = run_cluster_sale(HISTORY_ROUNDS, compact=True)
    second = run_cluster_sale(HISTORY_ROUNDS, compact=True)
    assert first == second


# -- reporting ----------------------------------------------------------------


#: Regression gates for ``check_regression.py`` (kinds documented there).
GATES = [
    # Checkpointing, compaction and tiering may never lose a committed
    # unit or corrupt a value.
    ("flag", "*.identical"),
    ("flag", "*.conserved*"),
    ("flag", "*_ok"),
    # Replay work is a count of entries (snapshot + suffix, or the
    # records promotion folds and the ops they hold): host-independent,
    # and growing it means recovery cost crept back toward history size.
    # The recovery wall-clock ratio is two ~1.5 ms timings; it is
    # printed, not gated.  Promotion replay is gated over the whole
    # compaction cycle that ends at the grown point, not at that point:
    # one kill point reads anywhere on the sawtooth, and moves whenever a
    # compacted log keeps a different number of records.
    ("ceiling", "recovery.snapshot_entries", "baseline"),
    ("ceiling", "recovery.wal_entries", "baseline"),
    ("ceiling", "failover.promotion_replayed_cycle_max", "baseline"),
    ("ceiling", "failover.promotion_replayed_cycle_mean", "baseline"),
    ("ceiling", "failover.promotion_replayed_ops_cycle_max", "baseline"),
    ("ceiling", "failover.promotion_replayed_ops_cycle_mean", "baseline"),
]


def bench_payload(recovery, failover, tier, smoke):
    """The BENCH_e28.json document: deterministic values only, so the
    committed baseline diffs cleanly."""
    return {
        "meta": {
            "experiment": "E28",
            "smoke": int(smoke),
            "n_live_keys": recovery["n_keys"],
            "history_growth": recovery["growth"],
            "n_purchase_requests": N_REQUESTS,
            "compact_threshold": COMPACT_THRESHOLD,
        },
        "deterministic": {
            "recovery.identical": recovery["grown"]["identical"],
            "recovery.snapshot_entries": recovery["grown"]["snapshot_entries"],
            "recovery.wal_entries": recovery["grown"]["wal_entries"],
            "recovery.replay_entries_ratio": recovery["replay_entries_ratio"],
            "recovery.control_wal_entries": recovery["control"]["wal_entries"],
            "recovery.torn_tail_floor_ok": recovery["torn_tail_floor_ok"],
            "failover.conserved_base": failover["base"]["conserved"],
            "failover.conserved_grown": failover["grown"]["conserved"],
            "failover.conserved_control": failover["control"]["conserved"],
            "failover.promotion_replayed_base": (
                failover["base"]["promotion_replayed"]
            ),
            "failover.promotion_replayed_grown": (
                failover["grown"]["promotion_replayed"]
            ),
            "failover.promotion_replayed_control": (
                failover["control"]["promotion_replayed"]
            ),
            "failover.promotion_replayed_ops_base": (
                failover["base"]["promotion_replayed_ops"]
            ),
            "failover.promotion_replayed_ops_grown": (
                failover["grown"]["promotion_replayed_ops"]
            ),
            "failover.promotion_replayed_ops_control": (
                failover["control"]["promotion_replayed_ops"]
            ),
            "failover.conserved_cycle": failover["cycle"]["conserved"],
            "failover.cycle_compaction_ok": int(bool(
                failover["cycle"]["compacted_at"]
            )),
            "failover.cycle_rounds": len(failover["cycle"]["lengths"]),
            "failover.promotion_replayed_cycle_max": (
                failover["cycle"]["replayed_max"]
            ),
            "failover.promotion_replayed_cycle_mean": (
                failover["cycle"]["replayed_mean"]
            ),
            "failover.promotion_replayed_ops_cycle_max": (
                failover["cycle"]["replayed_ops_max"]
            ),
            "failover.promotion_replayed_ops_cycle_mean": (
                failover["cycle"]["replayed_ops_mean"]
            ),
            "failover.replay_ratio": failover["replay_ratio"],
            "failover.replay_ops_ratio": failover["replay_ops_ratio"],
            "failover.compaction_gain": failover["compaction_gain"],
            "failover.compactions_grown": failover["grown"]["compactions"],
            "tier.roundtrip_identical": tier["identical"],
            "tier.demoted": tier["demoted"],
        },
    }


def report(file=sys.stdout, smoke=False, artifacts_dir="benchmarks/artifacts"):
    recovery = run_recovery_experiment(smoke=smoke)
    failover = run_failover_experiment(smoke=smoke)
    tier = run_tier_roundtrip()

    print("== E28: flat recovery under data-lifecycle management ==", file=file)
    print(f"{'run':>22} {'replayed':>9} {'time':>10}", file=file)
    for label, row in (
        ("checkpointed 1x", recovery["base"]),
        (f"checkpointed {recovery['growth']}x", recovery["grown"]),
        (f"no checkpoint {recovery['growth']}x", recovery["control"]),
    ):
        replayed = row["snapshot_entries"] + row["wal_entries"]
        print(f"{label:>22} {replayed:>9,} {row['time_s'] * 1e3:>8.2f}ms",
              file=file)
    check_recovery_bounds(recovery)
    print(
        f"\nrecovery wall-clock ratio {recovery['time_ratio']:.2f}x over "
        f"{recovery['growth']}x history (bound "
        f"{recovery['wall_ratio_bound']}x)",
        file=file,
    )

    print(f"\n{'failover run':>22} {'records':>9} {'ops':>9} {'conserved':>10} "
          f"{'compactions':>12}", file=file)
    for label, row in (
        ("compacted 1x", failover["base"]),
        (f"compacted {failover['growth']}x", failover["grown"]),
        (f"uncompacted {failover['growth']}x", failover["control"]),
    ):
        print(f"{label:>22} {row['promotion_replayed']:>9,.0f} "
              f"{row['promotion_replayed_ops']:>9,.0f} "
              f"{str(bool(row['conserved'])):>10} {row['compactions']:>12,.0f}",
              file=file)
    cycle = failover["cycle"]
    print(f"{'cycle max / mean':>22} "
          f"{cycle['replayed_max']:>9,.0f} {cycle['replayed_ops_max']:>9,.0f}"
          f"   over history {cycle['lengths'][0]:,}-{cycle['lengths'][-1]:,} "
          f"({len(cycle['lengths'])} kills)", file=file)
    print(f"{'':>22} {cycle['replayed_mean']:>9,.1f} "
          f"{cycle['replayed_ops_mean']:>9,.1f}   compacted between kills "
          f"at history {', '.join(f'{h:,}' for h in cycle['compacted_at'])}",
          file=file)
    check_failover_bounds(failover)
    print(
        f"\npromotion replay ratio {failover['replay_ratio']:.2f}x in records, "
        f"{failover['replay_ops_ratio']:.2f}x in ops, across "
        f"{failover['growth']}x history; compaction saves "
        f"{failover['compaction_gain']:.1f}x replay entries; inventory "
        "exactly conserved through every mid-sale kill", file=file,
    )
    assert tier["identical"] == 1
    print(f"tier round-trip: {tier['demoted']} values demoted+promoted "
          "bitwise-identical", file=file)

    payload = bench_payload(recovery, failover, tier, smoke)
    metrics = MetricsRegistry()
    for key, value in payload["deterministic"].items():
        metrics.gauge(f"e28.{key}").set(float(value))
    prom_path, json_path = write_snapshot(
        metrics, artifacts_dir, basename="e28_lifecycle", prefix="repro"
    )
    print(f"[E28 artifact: {prom_path} and {json_path}]", file=file)
    return payload


if __name__ == "__main__":
    report(smoke="--smoke" in sys.argv[1:])
