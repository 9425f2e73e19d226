"""E31: sharded semantic retrieval through the unified query plane.

Claim: language-based retrieval ("find the red wooden chair in the
lobby") is the paper's fourth data modality, and the query plane makes
it a *tenant* rather than a subsystem: :mod:`repro.semantic` registers
one :class:`~repro.query.plane.QueryModality` and every deployment
layer — platform, cluster scatter-gather, geo — dispatches it with zero
modality-specific code.  On a seeded 20k-object scene corpus
(:class:`repro.workloads.RetrievalWorkload`) the per-shard HNSW indexes
must show:

* **quality** — mean recall@10 of the ANN result against the exact
  brute-force oracle clears ``RECALL_FLOOR`` (0.95);
* **work** — the ANN answers with at least ``SPEEDUP_FLOOR`` (5x at
  full scale) fewer distance evaluations than brute force, the
  host-independent work metric both sides count;
* **shard-invariance** — the merged top-k (keys, and scores to 9
  decimal places) is identical whether the corpus lives on 1, 2, or 4
  shards, because node levels are key-derived and the merge is a total
  order on ``(-score, key)``;
* **scale-out** — the build makespan (the slowest shard's construction
  distance evaluations: what the ingest path pays to maintain the
  graph, and what a shard rebuild after failover costs) strictly
  shrinks as shards are added.  Query-path beam cost is the *quality*
  knob, deliberately sharding-independent (that is what makes the
  top-k shard-invariant), so it is reported but not gated.

Artifact: ``BENCH_e31.json`` (+ ``e31_semantic.{prom,json}``).  Every
value derives from seeded streams; the query wall-clock timings are
printed in the report only.
"""

import sys
import time

import numpy as np
import pytest

from repro.cluster import ClusterConfig, PlatformCluster
from repro.core import MetricsRegistry
from repro.obs import write_snapshot
from repro.semantic import (
    brute_force_topk,
    embed_text,
    indexed_vector,
    semantic_query,
)
from repro.workloads import RetrievalConfig, RetrievalWorkload

pytestmark = [pytest.mark.semantic]

K = 10
#: Search beam: wide enough that the top-k is exact on every sharding
#: (the identity gate), still ~10x under the brute-force eval count.
EF_SEARCH = 160
SHARD_COUNTS = (1, 2, 4)
RECALL_FLOOR = 0.95
#: Distance-eval speedup floor vs brute force.  The headline 5x gate is
#: measured at full scale (20k objects); the smoke corpus is too small
#: for the beam to amortize, so CI gates a looser floor there.
SPEEDUP_FLOOR = 5.0
SPEEDUP_FLOOR_SMOKE = 2.0


def make_corpus(smoke):
    config = RetrievalConfig(
        n_objects=2_000 if smoke else 20_000,
        n_queries=20 if smoke else 50,
    )
    return RetrievalWorkload(config, seed=31)


def build_cluster(records, n_shards):
    cluster = PlatformCluster(
        config=ClusterConfig(n_shards=n_shards, semantic_index=True)
    )
    cluster.ingest_many(records)
    cluster.flush()
    return cluster


def shard_evals(cluster):
    return {
        name: shard.semantic.distance_evals
        for name, shard in cluster.shards.items()
    }


def run_retrieval(smoke=False) -> dict:
    """Build 1/2/4-shard clusters over one corpus; measure recall,
    distance-eval speedup, shard-invariance, and scale-out makespan."""
    workload = make_corpus(smoke)
    records = workload.scene_records()
    queries = workload.query_texts()
    n = len(records)

    # The exact oracle scores the full corpus: row i is bitwise the
    # vector the shards store for record i (embedding + tie-break jitter).
    keys = [r.key for r in records]
    matrix = np.stack([indexed_vector(r.key, r.payload) for r in records])

    clusters = {c: build_cluster(records, c) for c in SHARD_COUNTS}
    assert all(
        sum(len(s.semantic) for s in cl.shards.values()) == n
        for cl in clusters.values()
    )
    # Everything counted so far is construction work: the slowest
    # shard's share is the ingest-path cost scale-out must shrink.
    build_makespan = {
        c: max(shard_evals(cl).values()) for c, cl in clusters.items()
    }

    recall_total = 0.0
    ann_evals = {c: 0 for c in SHARD_COUNTS}
    makespan = {c: 0 for c in SHARD_COUNTS}
    identical = {c: True for c in SHARD_COUNTS}
    wall_ann = {c: 0.0 for c in SHARD_COUNTS}
    wall_brute = 0.0

    for text in queries:
        started = time.perf_counter()
        exact = brute_force_topk(keys, matrix, embed_text(text), K)
        wall_brute += time.perf_counter() - started

        results = {}
        for c, cluster in clusters.items():
            before = shard_evals(cluster)
            started = time.perf_counter()
            results[c] = cluster.query(
                semantic_query(text, k=K, ef=EF_SEARCH)
            ).items
            wall_ann[c] += time.perf_counter() - started
            deltas = [
                evals - before[name]
                for name, evals in shard_evals(cluster).items()
            ]
            ann_evals[c] += sum(deltas)
            makespan[c] += max(deltas)

        recall_total += len(
            {k for k, _ in results[1]} & {k for k, _ in exact}
        ) / K
        signature = [(k, round(s, 9)) for k, s in results[1]]
        for c in SHARD_COUNTS:
            if [(k, round(s, 9)) for k, s in results[c]] != signature:
                identical[c] = False

    recall = recall_total / len(queries)
    brute_evals = n * len(queries)
    speedup = brute_evals / ann_evals[1]
    monotone = all(
        build_makespan[a] > build_makespan[b]
        for a, b in zip(SHARD_COUNTS, SHARD_COUNTS[1:])
    )
    floor = SPEEDUP_FLOOR_SMOKE if smoke else SPEEDUP_FLOOR
    return {
        "n_objects": float(n),
        "n_queries": float(len(queries)),
        "recall_at_10": recall,
        "brute_evals": float(brute_evals),
        "ann_evals": float(ann_evals[1]),
        "speedup_evals": speedup,
        "speedup_floor": floor,
        **{
            f"build_makespan_evals.{c}shard": float(build_makespan[c])
            for c in SHARD_COUNTS
        },
        **{
            f"query_makespan_evals.{c}shard": float(makespan[c])
            for c in SHARD_COUNTS
        },
        **{f"identical_1v{c}": int(identical[c]) for c in SHARD_COUNTS[1:]},
        "recall_ok": int(recall >= RECALL_FLOOR),
        "speedup_ok": int(speedup >= floor),
        "monotone_scaleout_ok": int(monotone),
        "wall.brute_s": wall_brute,
        **{f"wall.ann_{c}shard_s": wall_ann[c] for c in SHARD_COUNTS},
    }


def check_e31(out: dict) -> None:
    """Acceptance: the semantic tenant is accurate, cheap, and
    shard-invariant.

    * mean recall@10 against the exact oracle clears the floor;
    * the ANN spends at least ``speedup_floor`` fewer distance
      evaluations than brute force;
    * the merged top-k is byte-identical (keys + scores to 9 dp) across
      1-vs-2 and 1-vs-4 shard deployments;
    * adding shards strictly shrinks the slowest shard's index-build
      work (the ingest-path maintenance cost).
    """
    assert out["recall_ok"] == 1, (
        f"recall@10 {out['recall_at_10']:.3f} below {RECALL_FLOOR}"
    )
    assert out["speedup_ok"] == 1, (
        f"eval speedup {out['speedup_evals']:.1f}x below "
        f"{out['speedup_floor']:.1f}x"
    )
    assert out["identical_1v2"] == 1, "top-k differs between 1 and 2 shards"
    assert out["identical_1v4"] == 1, "top-k differs between 1 and 4 shards"
    assert out["monotone_scaleout_ok"] == 1, (
        "per-shard index-build makespan did not shrink with added shards"
    )


# -- pytest entry points ------------------------------------------------------


def test_e31_retrieval(benchmark):
    out = benchmark.pedantic(
        lambda: run_retrieval(smoke=True), rounds=1, iterations=1
    )
    check_e31(out)


def test_e31_is_deterministic():
    """Same seeds -> identical recall, eval counts, and top-k story
    (wall-clock excluded: it is the one legitimately run-varying part)."""

    def deterministic(out):
        return {k: v for k, v in out.items() if not k.startswith("wall.")}

    assert deterministic(run_retrieval(smoke=True)) == deterministic(
        run_retrieval(smoke=True)
    )


# -- reporting ----------------------------------------------------------------


#: Regression gates for ``check_regression.py`` (kinds documented there).
GATES = [
    # ``monotone_scaleout_ok``: build makespan still shrinks with shards.
    ("flag", "*_ok"),
    # A shard-dependent top-k is a correctness regression.
    ("flag", "identical_1v*"),
    # Counts over seeded streams, host-independent: absolute floors.
    ("floor", "recall_at_10", "meta:recall_floor"),
    ("floor", "speedup_evals", "meta:speedup_floor"),
]


def bench_payload(out, smoke):
    """The BENCH_e31.json document: deterministic values only (the
    ``wall.*`` timings stay out), so the committed baseline diffs
    cleanly."""
    return {
        "meta": {
            "experiment": "E31",
            "smoke": int(smoke),
            "k": K,
            "ef_search": EF_SEARCH,
            "shard_counts": list(SHARD_COUNTS),
            "recall_floor": RECALL_FLOOR,
            "speedup_floor": out["speedup_floor"],
        },
        "deterministic": {
            k: v for k, v in out.items() if not k.startswith("wall.")
        },
    }


def report(file=sys.stdout, smoke=False, artifacts_dir="benchmarks/artifacts"):
    out = run_retrieval(smoke=smoke)

    print("== E31: sharded semantic retrieval through the query plane ==",
          file=file)
    print(
        f"corpus {out['n_objects']:.0f} objects, "
        f"{out['n_queries']:.0f} queries, k={K}, ef={EF_SEARCH}", file=file,
    )
    check_e31(out)
    print(
        f"recall@10 {out['recall_at_10']:.3f} (floor {RECALL_FLOOR}); "
        f"{out['ann_evals']:.0f} ANN vs {out['brute_evals']:.0f} brute "
        f"distance evals = {out['speedup_evals']:.1f}x "
        f"(floor {out['speedup_floor']:.1f}x)", file=file,
    )
    print(
        "top-k identical across shardings: "
        f"1v2={out['identical_1v2']} 1v4={out['identical_1v4']}; "
        "index-build eval makespan "
        + " -> ".join(
            f"{out[f'build_makespan_evals.{c}shard']:.0f}"
            for c in SHARD_COUNTS
        )
        + " (1/2/4 shards)", file=file,
    )
    print(
        f"query wall-clock: brute force {out['wall.brute_s']:.3f}s, ANN "
        + " / ".join(f"{out[f'wall.ann_{c}shard_s']:.3f}s" for c in SHARD_COUNTS)
        + " (1/2/4 shards)", file=file,
    )

    payload = bench_payload(out, smoke)
    metrics = MetricsRegistry()
    for key, value in payload["deterministic"].items():
        metrics.gauge(f"e31.{key}").set(float(value))
    prom_path, json_path = write_snapshot(
        metrics, artifacts_dir, basename="e31_semantic", prefix="repro"
    )
    print(f"[E31 artifact: {prom_path} and {json_path}]", file=file)
    return payload


if __name__ == "__main__":
    report(smoke="--smoke" in sys.argv[1:])
