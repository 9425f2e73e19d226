"""Tests for semantic retrieval (repro.semantic): deterministic
embeddings, the from-scratch HNSW index, the query-plane modality, and
end-to-end behaviour through the platform / cluster / geo layers.

The Hypothesis properties pin the three invariants the benchmark leans
on: tombstoned keys never resurface (and re-inserted ones always do),
recall against the brute-force oracle clears a floor on seeded gaussian
corpora, and the scatter-gather merge is partition-invariant.  A fourth
holds the index to its derived-state lifecycle on a storage tier: after
every semantic query, each live shard's graph is exactly the describable
stored rows it owns, under writes, drops, remaps, kills and outages.
"""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, PlatformCluster
from repro.core import ConfigurationError, DataKind, DataRecord, FaultInjectedError, Space
from repro.core.records import KEY_MAX
from repro.platform import MetaversePlatform
from repro.platform.platform import stored_record_value
from repro.query.plane import QueryPlan
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.storage.engine import LocalStorageEngine
from repro.workloads import RetrievalConfig, RetrievalWorkload
from repro.semantic import (
    HNSWIndex,
    SemanticIndex,
    SemanticModality,
    brute_force_topk,
    embed_payload,
    embed_text,
    embed_tokens,
    indexed_vector,
    normalize,
    payload_tokens,
    semantic_query,
    tokenize,
)

pytestmark = pytest.mark.semantic


def record(key, payload, timestamp=0.0):
    return DataRecord(
        key=key, payload=payload, space=Space.VIRTUAL,
        timestamp=timestamp, kind=DataKind.STRUCTURED, source="test",
    )


WORDS = (
    "red blue green wooden stone glass chair table lamp statue vase "
    "carpet kitchen garden lobby tower bridge fountain"
).split()


def scene_payload(i):
    return {
        "name": f"object {i}",
        "tags": [WORDS[i % len(WORDS)], WORDS[(i * 7 + 3) % len(WORDS)]],
        "room": WORDS[(i * 5) % len(WORDS)],
    }


class TestEmbeddings:
    def test_tokenize_is_lowercase_alphanumeric(self):
        assert tokenize("Red CHAIR, 2nd floor!") == ["red", "chair", "2nd", "floor"]

    def test_payload_tokens_ignore_numeric_telemetry(self):
        tokens = payload_tokens(
            {"x": 3.0, "stock": 7, "tags": ["red", 42, "chair"], "room": "lobby"}
        )
        assert tokens == ["lobby", "red", "chair"]

    def test_payload_tokens_are_insertion_order_independent(self):
        a = payload_tokens({"a": "red", "b": "chair"})
        b = payload_tokens({"b": "chair", "a": "red"})
        assert a == b

    def test_embedding_is_deterministic_and_normalized(self):
        v1 = embed_text("red wooden chair")
        v2 = embed_text("red wooden chair")
        assert v1 is not v2 and np.array_equal(v1, v2)
        assert np.linalg.norm(v1) == pytest.approx(1.0)

    def test_numeric_only_payload_embeds_to_none(self):
        assert embed_payload({"x": 1.0, "y": 2.0, "v": 3}) is None
        assert embed_tokens([]) is None

    def test_token_hash_memo_is_dim_independent(self):
        """The memo holds the token's hash, not its bucket: one token
        embedded at two widths lands where the unmemoised rule puts it."""
        from repro.net.overlay import stable_hash

        for dim in (64, 7):
            h = stable_hash("embed:lamp")
            want = np.zeros(dim)
            want[h % dim] = 1.0 if (h >> 16) & 1 else -1.0
            assert np.array_equal(embed_tokens(["lamp"], dim), want)
            assert np.array_equal(embed_tokens(["lamp", "lamp"], dim), want)

    def test_similar_phrases_score_higher_than_disjoint_ones(self):
        query = embed_text("red chair")
        near = embed_text("red chair kitchen")
        far = embed_text("stone fountain garden")
        assert float(query @ near) > float(query @ far)


class TestHNSW:
    def build(self, n, dim=16, seed=7, **kwargs):
        rng = np.random.default_rng(seed)
        index = HNSWIndex(dim=dim, **kwargs)
        vectors = {}
        for i in range(n):
            vec = rng.normal(size=dim)
            index.add(f"k/{i:03d}", vec)
            vectors[f"k/{i:03d}"] = normalize(vec)
        return index, vectors

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ConfigurationError):
            HNSWIndex(dim=0)
        with pytest.raises(ConfigurationError):
            HNSWIndex(dim=8, m=1)
        with pytest.raises(ConfigurationError):
            HNSWIndex(dim=8, m=8, ef_construction=4)
        with pytest.raises(ConfigurationError):
            HNSWIndex(dim=8).search(np.ones(8), k=0)
        with pytest.raises(ConfigurationError):
            HNSWIndex(dim=8).add("k", np.zeros(8))
        with pytest.raises(ConfigurationError):
            HNSWIndex(dim=8).add("k", np.ones(4))

    def test_small_corpus_search_is_exact(self):
        index, vectors = self.build(40)
        query = np.random.default_rng(99).normal(size=16)
        keys = sorted(vectors)
        matrix = np.stack([vectors[key] for key in keys])
        exact = brute_force_topk(keys, matrix, query, 5)
        got = index.search(query, 5, ef=64)
        assert [k for k, _ in got] == [k for k, _ in exact]
        for (_, score), (_, want) in zip(got, exact):
            assert score == pytest.approx(want)

    def test_remove_tombstones_and_readd_resurrects(self):
        index, vectors = self.build(20)
        target = index.search(vectors["k/003"], 1)[0][0]
        assert target == "k/003"
        index.remove("k/003")
        assert "k/003" not in index
        assert len(index) == 19 and index.node_count == 20
        hits = [k for k, _ in index.search(vectors["k/003"], 20, ef=64)]
        assert "k/003" not in hits
        index.add("k/003", vectors["k/003"])
        assert index.search(vectors["k/003"], 1)[0][0] == "k/003"
        with pytest.raises(ConfigurationError):
            index.remove("nope")
        assert index.discard("nope") is False

    def test_levels_derive_from_the_key_alone(self):
        empty, busy = HNSWIndex(dim=8), self.build(40, dim=8)[0]
        for i in range(40):
            assert empty.level_for(f"k/{i}") == busy.level_for(f"k/{i}")

    def test_search_keys_are_insertion_order_independent_at_full_beam(self):
        """With the beam covering the whole corpus the returned *keys*
        (the deterministic contract E31 pins) do not depend on insertion
        order; scores may differ in the last ulp from BLAS batching."""
        rng = np.random.default_rng(3)
        vectors = {f"k/{i}": rng.normal(size=8) for i in range(30)}
        forward, backward = HNSWIndex(dim=8), HNSWIndex(dim=8)
        for key in sorted(vectors):
            forward.add(key, vectors[key])
        for key in sorted(vectors, reverse=True):
            backward.add(key, vectors[key])
        query = rng.normal(size=8)
        a, b = forward.search(query, 10, ef=64), backward.search(query, 10, ef=64)
        assert [k for k, _ in a] == [k for k, _ in b]
        for (_, sa), (_, sb) in zip(a, b):
            assert sa == pytest.approx(sb, abs=1e-12)

    def test_distance_evals_count_work(self):
        index, vectors = self.build(64)
        before = index.distance_evals
        index.search(np.ones(16), 5)
        assert index.distance_evals > before

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 11)),
            min_size=1, max_size=40,
        )
    )
    def test_insert_delete_round_trip(self, ops):
        """After any op sequence, search returns exactly the live keys —
        tombstones never resurface, re-inserted keys always do."""
        rng = np.random.default_rng(17)
        vectors = {f"k/{i}": rng.normal(size=8) for i in range(12)}
        index = HNSWIndex(dim=8)
        live = set()
        for op, i in ops:
            key = f"k/{i}"
            if op == "add":
                index.add(key, vectors[key])
                live.add(key)
            else:
                assert index.discard(key) == (key in live)
                live.discard(key)
        assert set(index.keys()) == live
        if live:
            hits = index.search(rng.normal(size=8), len(live) + 4, ef=128)
            assert {k for k, _ in hits} == live

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(30, 120))
    def test_recall_floor_vs_brute_force(self, seed, n):
        rng = np.random.default_rng(seed)
        index = HNSWIndex(dim=12, m=8, ef_construction=64, ef_search=48)
        keys, rows = [], []
        for i in range(n):
            vec = rng.normal(size=12)
            index.add(f"k/{i:03d}", vec)
            keys.append(f"k/{i:03d}")
            rows.append(normalize(vec))
        matrix = np.stack(rows)
        query = rng.normal(size=12)
        exact = {k for k, _ in brute_force_topk(keys, matrix, query, 10)}
        got = {k for k, _ in index.search(query, 10, ef=48)}
        assert len(got & exact) / 10 >= 0.9

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 24),
        n_parts=st.integers(1, 5),
        k=st.integers(1, 12),
    )
    def test_merge_is_partition_invariant(self, data, n, n_parts, k):
        """SemanticModality.merge gives the same top-k no matter how the
        scored items are split across shards."""
        rng = np.random.default_rng(5)
        items = [(f"k/{i:03d}", float(rng.normal())) for i in range(n)]
        assignment = data.draw(
            st.lists(st.integers(0, n_parts - 1), min_size=n, max_size=n)
        )
        partials = [[] for _ in range(n_parts)]
        for item, part in zip(items, assignment):
            partials[part].append(item)
        modality = SemanticModality()
        plan = QueryPlan("semantic", {"k": k})
        merged = modality.merge(partials, plan)
        assert merged == modality.merge([items], plan)
        assert merged == sorted(items, key=lambda p: (-p[1], p[0]))[:k]


class TextbookHNSW(HNSWIndex):
    """The reference: one `_distances` call per candidate in selection and
    per hop in the beam, heap state re-read from the heaps.  The index's
    batched loops must build the same graph, count the same evaluations
    and return the same lists as this, bit for bit."""

    def _search_layer(self, query, entries, ef, level):
        visited = {node for _, node in entries}
        candidates = list(entries)
        heapq.heapify(candidates)
        results = [(-dist, -node) for dist, node in entries]
        heapq.heapify(results)
        while candidates:
            dist, node = heapq.heappop(candidates)
            if len(results) >= ef and dist > -results[0][0]:
                break
            neighbours = [
                n for n in self._links[node][level] if n not in visited
            ]
            if not neighbours:
                continue
            visited.update(neighbours)
            dists = self._distances(neighbours, query)
            worst = -results[0][0] if results else math.inf
            for n_dist, n_id in zip(dists.tolist(), neighbours):
                if len(results) < ef or n_dist < worst:
                    heapq.heappush(candidates, (n_dist, n_id))
                    heapq.heappush(results, (-n_dist, -n_id))
                    if len(results) > ef:
                        heapq.heappop(results)
                    worst = -results[0][0]
        return sorted((-neg, -node) for neg, node in results)

    def _select_neighbours(self, candidates, cap):
        chosen, pruned = [], []
        for dist, node in candidates:
            if len(chosen) >= cap:
                break
            if chosen and bool(
                np.any(self._distances(chosen, self._matrix[node]) < dist)
            ):
                pruned.append(node)
            else:
                chosen.append(node)
        chosen.extend(pruned[: cap - len(chosen)])
        return chosen


class TestBatchedLoopsMatchTextbook:
    """`==` throughout, never `approx`: an ulp that flips one diversity
    test or one beam eviction shows up here as a different link list."""

    def pair(self, **kwargs):
        return HNSWIndex(**kwargs), TextbookHNSW(**kwargs)

    def assert_same_graph(self, index, textbook):
        assert index._links == textbook._links
        assert index.distance_evals == textbook.distance_evals

    def assert_same_search(self, index, textbook, query, k, ef):
        assert index.search(query, k, ef=ef) == textbook.search(query, k, ef=ef)
        assert index.distance_evals == textbook.distance_evals

    @pytest.mark.parametrize("n_parts", [1, 2, 4])
    def test_seeded_scene_corpus(self, n_parts):
        scene = RetrievalWorkload(
            RetrievalConfig(n_objects=320, n_queries=6), seed=31
        )
        records = scene.scene_records()
        queries = [embed_text(text) for text in scene.query_texts()]
        for part in range(n_parts):
            index, textbook = self.pair(dim=64)
            for rec in records[part::n_parts]:
                vector = indexed_vector(rec.key, rec.payload)
                index.add(rec.key, vector)
                textbook.add(rec.key, vector)
            self.assert_same_graph(index, textbook)
            for query in queries:
                for ef in (48, 160):
                    self.assert_same_search(index, textbook, query, 10, ef)

    @pytest.mark.parametrize("seed", [7, 23])
    def test_gaussian_corpus(self, seed):
        rng = np.random.default_rng(seed)
        index, textbook = self.pair(dim=12, m=4, ef_construction=24)
        for i in range(160):
            vector = rng.normal(size=12)
            index.add(f"k/{i:03d}", vector)
            textbook.add(f"k/{i:03d}", vector)
        self.assert_same_graph(index, textbook)
        for _ in range(8):
            self.assert_same_search(index, textbook, rng.normal(size=12), 10, 48)

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "add", "add", "remove"]),
                st.integers(0, 23),   # key
                st.integers(0, 5),    # vector: 6 shared by 24 keys
            ),
            min_size=1, max_size=80,
        ),
        m=st.sampled_from([2, 3, 8]),
    )
    def test_duplicate_vectors_and_add_remove_interleavings(self, ops, m):
        """Exact-duplicate vectors are where every diversity test is a
        tie up to rounding: the one input on which a row-wise product
        and a per-candidate gemv could choose different links."""
        pool = np.random.default_rng(41).normal(size=(6, 8))
        index, textbook = self.pair(dim=8, m=m, ef_construction=8)
        for op, key, vec in ops:
            for graph in (index, textbook):
                if op == "add":
                    graph.add(f"k/{key:02d}", pool[vec])
                else:
                    graph.discard(f"k/{key:02d}")
            self.assert_same_graph(index, textbook)
        for query in pool:
            self.assert_same_search(index, textbook, query, 5, 16)


class TestSemanticIndex:
    def test_index_record_skips_and_evicts_numeric_payloads(self):
        index = SemanticIndex()
        assert index.index_record("a", {"name": "red chair"}) is True
        assert "a" in index and len(index) == 1
        # Updated to pure telemetry: evicted from the graph.
        assert index.index_record("a", {"x": 1.0}) is False
        assert "a" not in index and len(index) == 0
        assert index.index_record("b", {"v": 7}) is False

    def test_exact_search_matches_hnsw_on_small_corpus(self):
        index = SemanticIndex()
        for i in range(24):
            index.index_record(f"s/{i:02d}", scene_payload(i))
        query = embed_text("red chair lobby")
        got, exact = index.search(query, 5, ef=64), index.exact_search(query, 5)
        assert [k for k, _ in got] == [k for k, _ in exact]
        for (_, score), (_, want) in zip(got, exact):
            assert score == pytest.approx(want)

    def test_exact_search_reads_live_rows_in_key_order(self):
        index = SemanticIndex()
        for i in (5, 2, 9, 2, 7):  # out of order, one rewritten
            index.index_record(f"s/{i}", scene_payload(i + 10 * (i == 2)))
            index.index_record(f"s/{i}", scene_payload(i))
        index.on_drop("s/9")
        keys, matrix = index.hnsw.live_rows()
        assert keys == ["s/2", "s/5", "s/7"]
        for key, row in zip(keys, matrix):
            assert np.array_equal(
                row, normalize(indexed_vector(key, scene_payload(int(key[2:]))))
            )
        assert SemanticIndex().exact_search(embed_text("red chair"), 3) == []


class TestModality:
    def test_plan_validation(self):
        modality = SemanticModality()
        with pytest.raises(ConfigurationError, match="k >= 1"):
            modality.plan(semantic_query("chair", k=0))
        with pytest.raises(ConfigurationError, match="'text' or"):
            modality.plan(semantic_query())

    def test_rewrite_embeds_text_once_at_plan_time(self):
        modality = SemanticModality()
        plan = modality.plan(semantic_query("red chair"))
        assert np.array_equal(plan.params["vector"], embed_text("red chair"))

    def test_unembeddable_text_returns_empty_not_garbage(self):
        platform = MetaversePlatform(semantic_index=True)
        platform.ingest(record("s/0", scene_payload(0)))
        platform.tick(1.0)
        result = platform.query(semantic_query("''..!!"))
        assert result.items == []


class TestDeploymentIntegration:
    def seed(self, plane, n=24):
        plane.ingest_many(
            [record(f"s/{i:02d}", scene_payload(i)) for i in range(n)]
        )
        plane.tick(1.0)
        return plane

    def test_platform_search_requires_the_index(self):
        platform = MetaversePlatform()
        with pytest.raises(ConfigurationError, match="semantic_index"):
            platform.semantic_search(np.ones(64), 5)

    def test_platform_drop_entity_evicts_from_index(self):
        platform = self.seed(MetaversePlatform(semantic_index=True))
        top = platform.query(semantic_query("red chair", k=3)).items
        victim = top[0][0]
        platform.drop_entity(victim)
        keys = [k for k, _ in platform.query(semantic_query("red chair", k=24)).items]
        assert victim not in keys

    def test_cluster_topk_identical_one_vs_two_shards(self):
        one = self.seed(
            PlatformCluster(config=ClusterConfig(n_shards=1, semantic_index=True))
        )
        two = self.seed(
            PlatformCluster(config=ClusterConfig(n_shards=2, semantic_index=True))
        )
        request = semantic_query("wooden table garden", k=6, ef=64)
        a, b = one.query(request), two.query(request)
        assert [k for k, _ in a.items] == [k for k, _ in b.items]
        for (_, sa), (_, sb) in zip(a.items, b.items):
            assert sa == pytest.approx(sb, abs=1e-12)

    @pytest.mark.parametrize("batched", [False, True])
    def test_moving_describable_objects_do_not_grow_the_graph(self, batched):
        """A rewrite that changes only x/y stores the bitwise-same
        vector: no tombstone, no fresh node, no distance work.  A new
        description still re-inserts."""
        platform = self.seed(MetaversePlatform(semantic_index=True), n=12)
        hnsw = platform.semantic.hnsw
        nodes, evals = hnsw.node_count, hnsw.distance_evals
        before = platform.query(semantic_query("red chair", k=12)).items
        evals_per_query = hnsw.distance_evals - evals
        for step in range(1, 6):
            moved = [
                record(f"s/{i:02d}", {**scene_payload(i), "x": i + step, "y": step})
                for i in range(12)
            ]
            if batched:
                platform.write_record_batch(moved)
            else:
                for rec in moved:
                    platform.write_record(rec)
        assert hnsw.node_count == nodes
        assert hnsw.distance_evals == evals + evals_per_query
        assert platform.query(semantic_query("red chair", k=12)).items == before
        platform.write_record(record("s/03", scene_payload(4)))
        assert hnsw.node_count == nodes + 1 and len(platform.semantic) == 12

    def test_semantic_index_runs_on_a_storage_tier(self):
        config = ClusterConfig(n_shards=2, n_storage_nodes=2, semantic_index=True)
        assert config.validate() is config

    def test_tier_topk_equals_local_topk_across_a_join_a_drop_and_a_kill(self):
        """Each tier shard hydrates its graph from its owned rows, and a
        remap or a re-mount resets it: the answer is the local cluster's,
        whose graphs were built write by write."""
        tier = self.seed(PlatformCluster(config=ClusterConfig(
            n_shards=3, n_storage_nodes=2, semantic_index=True
        )))
        local = self.seed(
            PlatformCluster(config=ClusterConfig(n_shards=3, semantic_index=True))
        )
        request = semantic_query("wooden table garden", k=6, ef=64)

        def same():
            a, b = tier.query(request), local.query(request)
            assert a.failed_shards == b.failed_shards == ()
            assert [k for k, _ in a.items] == [k for k, _ in b.items]
            for (_, sa), (_, sb) in zip(a.items, b.items):
                assert sa == pytest.approx(sb, abs=1e-12)
            return a.items

        same()
        for plane in (tier, local):
            plane.add_shard("joined")
        victim = same()[0][0]
        for plane in (tier, local):
            plane.drop_entity(victim)
        assert victim not in [k for k, _ in same()]
        tier.kill_shard(tier.router.owner_of(same()[0][0]))
        tier.tick(1.0)
        local.tick(1.0)
        same()

    def test_columnar_batch_update_evicts_describable_records(self):
        """The columnar batch path carries numeric fields only, so a
        batch update of a previously-describable key evicts it (the same
        describable→numeric eviction rule as per-record updates)."""
        from repro.core import RecordBatch

        platform = self.seed(MetaversePlatform(semantic_index=True), n=8)
        assert len(platform.semantic) == 8
        platform.ingest_batch(
            RecordBatch.from_records([record("s/03", {"x": 1.0, "y": 2.0})])
        )
        platform.tick(1.0)
        assert len(platform.semantic) == 7 and "s/03" not in platform.semantic
        keys = [k for k, _ in platform.query(semantic_query("red chair", k=8)).items]
        assert "s/03" not in keys


class TestOneLifecycleDefects:
    """The semantic index is derived state like the position index:
    an engine that already holds entities is hydrated, not assumed
    empty, and ``reset_caches`` drops it like every other cache."""

    def test_an_injected_engine_holding_entities_is_hydrated(self):
        engine = LocalStorageEngine()
        engine.mput([
            (f"obj/{i}", stored_record_value(record(f"obj/{i}", scene_payload(i))))
            for i in range(5)
        ])
        platform = MetaversePlatform(engine=engine, semantic_index=True)
        assert len(platform.scan_prefix("").items) == 5
        hits = platform.query(semantic_query("red chair", k=5)).items
        assert sorted(key for key, _ in hits) == [f"obj/{i}" for i in range(5)]

    def test_a_delete_by_another_writer_is_not_served(self):
        """A platform that is not its keys' sole writer keeps no exact
        state: each search re-hydrates the index from the engine, so a
        key another writer deleted is never answered, with no
        ``reset_caches`` in between."""
        engine = LocalStorageEngine()
        engine.mput([
            (f"obj/{i}", stored_record_value(record(f"obj/{i}", scene_payload(i))))
            for i in range(5)
        ])
        platform = MetaversePlatform(engine=engine, semantic_index=True)
        request = semantic_query("red chair", k=5)
        assert "obj/0" in [key for key, _ in platform.query(request).items]
        engine.delete("obj/0")
        keys = [key for key, _ in platform.query(request).items]
        assert sorted(keys) == [f"obj/{i}" for i in range(1, 5)]

    def test_reset_caches_then_a_delete_behind_its_back_is_not_served(self):
        platform = MetaversePlatform(semantic_index=True)
        platform.ingest_many(
            [record(f"obj/{i}", scene_payload(i)) for i in range(5)]
        )
        platform.tick(1.0)
        request = semantic_query("red chair", k=5)
        assert "obj/0" in [key for key, _ in platform.query(request).items]
        platform.reset_caches()
        platform.engine.delete("obj/0")
        keys = [key for key, _ in platform.query(request).items]
        assert sorted(keys) == [f"obj/{i}" for i in range(1, 5)]

    def test_distance_evals_count_across_a_reset(self):
        platform = MetaversePlatform(semantic_index=True)
        platform.ingest_many(
            [record(f"obj/{i}", scene_payload(i)) for i in range(8)]
        )
        platform.tick(1.0)
        built = platform.semantic.distance_evals
        assert built > 0
        platform.reset_caches()
        assert platform.semantic.hnsw is None
        assert platform.semantic.distance_evals == built
        platform.query(semantic_query("red chair", k=3))
        assert platform.semantic.distance_evals > built


# -- the semantic index on a storage tier -----------------------------------------

N_TIER_KEYS = 12
TIER_TEXTS = ("red chair", "wooden table garden", "glass lamp lobby")
#: Windows of the property's fault plan in which every storage RPC
#: crashes; an ``outage`` op jumps the clock into the next one.
OUTAGES = [1000.0 * (i + 1) for i in range(30)]
OUTAGE_S = 10.0

tier_ops = st.one_of(
    st.tuples(st.just("write"), st.integers(0, N_TIER_KEYS - 1), st.booleans()),
    st.tuples(
        st.just("put"),
        st.lists(
            st.tuples(st.integers(0, N_TIER_KEYS - 1), st.booleans()),
            min_size=1, max_size=4,
        ),
    ),
    st.tuples(st.just("drop"), st.integers(0, N_TIER_KEYS - 1)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("tick")),
    st.tuples(st.just("query"), st.sampled_from(TIER_TEXTS)),
    st.tuples(st.just("join")),
    st.tuples(st.just("leave"), st.integers(0, 7)),
    st.tuples(st.just("kill"), st.integers(0, 7)),
    st.tuples(st.just("outage"), st.sampled_from(TIER_TEXTS)),
)
tier_scripts = st.lists(tier_ops, min_size=1, max_size=20)


def tier_record(index, describable, serial):
    payload = scene_payload(serial) if describable else {"v": serial}
    return record(f"k/{index:02d}", payload)


def stored_rows(cluster):
    """Every (key, stored value) on the tier, read off its nodes directly."""
    rows = {}
    for node in cluster.storage.nodes.values():
        rows.update(node.engine.scan("", KEY_MAX))
    return rows


def down(cluster):
    return {name for name in cluster.shards if cluster._is_down(name)}


def assert_graphs_are_the_tier(cluster, text):
    """Every live shard's graph holds exactly the describable stored keys
    it owns, each with the vector ``indexed_vector`` gives its stored
    payload, and its exact search is the brute force over those rows."""
    rows = stored_rows(cluster)
    query = normalize(embed_text(text))
    for name, shard in cluster.shards.items():
        if cluster._is_down(name):
            continue
        owned = {
            key: indexed_vector(key, value["payload"])
            for key, value in sorted(rows.items())
            if cluster.router.owner_of(key) == name
        }
        owned = {key: vector for key, vector in owned.items() if vector is not None}
        assert shard.semantic.hnsw is not None, name
        keys, matrix = shard.semantic.hnsw.live_rows()
        assert keys == list(owned), name
        for key, row in zip(keys, matrix):
            assert np.array_equal(row, normalize(owned[key])), key
        oracle = brute_force_topk(
            list(owned), np.stack(list(owned.values())), query, 5
        ) if owned else []
        found = shard.semantic.exact_search(query, 5)
        assert [key for key, _ in found] == [key for key, _ in oracle], name
        assert [score for _, score in found] == pytest.approx(
            [score for _, score in oracle], abs=1e-12
        )


def outage(cluster, text):
    """A semantic query while every storage RPC crashes: a shard whose
    graph is unknown cannot hydrate, so it is reported failed and stays
    unknown; a hydrated shard answers from its graph."""
    start = next(at for at in OUTAGES if at > cluster.clock.now)
    cluster.clock.advance(start + 1.0 - cluster.clock.now)
    unknown = {
        name for name, shard in cluster.shards.items()
        if name not in down(cluster) and shard.semantic.hnsw is None
    }
    result = cluster.query(semantic_query(text, k=5))
    assert set(result.failed_shards) == unknown | down(cluster)
    assert all(cluster.shards[name].semantic.hnsw is None for name in unknown)
    cluster.clock.advance(start + OUTAGE_S + 1.0 - cluster.clock.now)


def run_tier_script(script):
    """Play ``script`` on a 3-shard cluster over a 2-node storage tier
    and hold the graphs equal to the tier after every semantic query."""
    plan = FaultPlan(rules=[
        FaultRule(site="storage.rpc", kind="crash", rate=1.0,
                  start=at, end=at + OUTAGE_S)
        for at in OUTAGES
    ], seed=3)
    cluster = PlatformCluster(
        ClusterConfig(n_shards=3, n_storage_nodes=2, semantic_index=True),
        faults=FaultInjector(plan),
    )
    cluster.ingest_many([tier_record(i, i % 3 != 0, i) for i in range(N_TIER_KEYS)])
    cluster.flush()
    cluster.query(semantic_query(TIER_TEXTS[0], k=5))  # hydrate early
    for serial, op in enumerate(script, start=1):
        kind, names = op[0], cluster.router.shards
        if kind == "write":
            cluster.ingest(tier_record(op[1], op[2], serial))
        elif kind == "put":
            cluster.write_records([
                tier_record(index, describable, serial)
                for index, describable in op[1]
            ])
        elif kind == "drop":
            key = f"k/{op[1]:02d}"
            if not cluster.pending_count and not cluster._is_down(
                cluster.router.owner_of(key)
            ):
                cluster.drop_entity(key)
        elif kind == "flush":
            cluster.flush()
        elif kind == "tick":
            cluster.tick(0.5)
        elif kind == "query":
            result = cluster.query(semantic_query(op[1], k=5))
            assert set(result.failed_shards) == down(cluster)
            assert_graphs_are_the_tier(cluster, op[1])
        elif kind == "join" and len(names) < 5:
            cluster.add_shard(f"joined-{serial}")
        elif kind == "leave" and len(names) > 1:
            victim = names[op[1] % len(names)]
            if not cluster._is_down(victim):
                cluster.remove_shard(victim)
        elif kind == "kill":
            victim = names[op[1] % len(names)]
            if not cluster._is_down(victim):
                cluster.kill_shard(victim)
        elif kind == "outage":
            outage(cluster, op[1])
    cluster.tick(0.5)  # re-mounts whatever is down and flushes the rest
    assert down(cluster) == set() and cluster.pending_count == 0
    for text in TIER_TEXTS:
        assert cluster.query(semantic_query(text, k=5)).failed_shards == ()
        assert_graphs_are_the_tier(cluster, text)


class TestSemanticOnATier:
    def test_a_write_raising_mid_mput_resets_the_index(self):
        """A bulk write whose storage-0 group landed and whose storage-1
        group stayed faulted resets the writer's index (it is exact), so
        the next search re-hydrates it from what the tier holds."""
        plan = FaultPlan(rules=[FaultRule(
            site="storage.rpc", kind="crash", rate=1.0, start=100.0,
            end=110.0, target="compute/shard-0@1->storage-1",
        )], seed=3)
        cluster = PlatformCluster(
            ClusterConfig(n_shards=2, n_storage_nodes=2, semantic_index=True),
            faults=FaultInjector(plan),
        )
        cluster.ingest_many([record(f"k/{i:02d}", scene_payload(i)) for i in range(30)])
        cluster.flush()
        request = semantic_query("red chair", k=5)
        assert cluster.query(request).failed_shards == ()
        mine = [key for key in sorted(stored_rows(cluster))
                if cluster.router.owner_of(key) == "shard-0"]
        landed = next(k for k in mine if cluster.storage.node_of(k).name == "storage-0")
        failed = next(k for k in mine if cluster.storage.node_of(k).name == "storage-1")
        index = cluster.shards["shard-0"].semantic
        assert landed in index and failed in index
        cluster.clock.advance(100.0 - cluster.clock.now)
        with pytest.raises(FaultInjectedError):
            cluster.write_records([record(landed, {"v": 1}), record(failed, {"v": 1})])
        assert index.hnsw is None
        cluster.clock.advance(10.0)
        assert cluster.query(request).failed_shards == ()
        assert landed not in index and failed in index
        assert_graphs_are_the_tier(cluster, "red chair")

    @settings(max_examples=50, deadline=None)
    @given(script=tier_scripts)
    def test_graphs_equal_the_tier_under_writes_remaps_kills_and_outages(
        self, script
    ):
        run_tier_script(script)

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(script=tier_scripts)
    def test_sweep_graphs_equal_the_tier(self, request, script):
        """The property above at 1,000 examples, for the nightly tier."""
        if not request.config.getoption("markexpr"):
            pytest.skip("nightly sweep: select it with -m slow")
        run_tier_script(script)
