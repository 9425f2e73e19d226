"""Property tests for consistent-hash placement (repro.placement).

The two properties the scale-out story rests on, checked over
Hypothesis-generated key populations and owner sets, at both vnode
counts in use (64: the shard router; 32: the storage tier and the geo
region ring — all three are one :class:`Placement` construction):

* **balance** — the most loaded shard stays within a constant factor of
  the ideal ``keys / shards`` (vnodes smooth the ownership arcs);
* **minimal movement** — a membership change remaps only the keys whose
  ring arc the change touched: on join, every moved key lands on the new
  shard; on leave, only the departed shard's keys move.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, DataRecord, Space
from repro.net.overlay import ChordRing
from repro.cluster import ClusterConfig, PlatformCluster, ShardRouter
from repro.geo import GeoConfig, GeoDeployment
from repro.placement import Placement, route_by_owner
from repro.storage.engine import StorageTier
from repro.workloads.marketplace import PurchaseRequest

pytestmark = pytest.mark.cluster

N_KEYS = 1000
#: Empirical worst over 200 key populations x {2,4,8} shards is 1.34x the
#: ideal share at 64 vnodes (1.58x over every salt at 32); 1.75x gives
#: slack without hiding regressions (a vnode-less ring blows past 2x
#: routinely).
BALANCE_BOUND = 1.75

salts = st.integers(min_value=0, max_value=10_000)
shard_counts = st.sampled_from([2, 4, 8])
vnode_counts = st.sampled_from([64, 32])


def make_keys(salt, n=N_KEYS):
    return [f"key-{salt}-{i}" for i in range(n)]


def make_placement(n_owners, vnodes=64):
    return Placement([f"s{i}" for i in range(n_owners)], vnodes=vnodes)


class TestBalance:
    @settings(max_examples=40, deadline=None)
    @given(salt=salts, n_shards=shard_counts, vnodes=vnode_counts)
    def test_max_load_within_bound(self, salt, n_shards, vnodes):
        load = make_placement(n_shards, vnodes).load_of(make_keys(salt))
        assert sum(load.values()) == N_KEYS
        assert max(load.values()) <= BALANCE_BOUND * (N_KEYS / n_shards)

    @settings(max_examples=20, deadline=None)
    @given(salt=salts, vnodes=vnode_counts)
    def test_every_shard_owns_some_keys(self, salt, vnodes):
        load = make_placement(4, vnodes).load_of(make_keys(salt))
        assert all(count > 0 for count in load.values())

    def test_more_vnodes_never_worsen_the_probed_worst_case(self):
        """The bound above was probed at 64 vnodes; 256 stays under it."""
        load = make_placement(4, vnodes=256).load_of(make_keys(0))
        assert max(load.values()) <= BALANCE_BOUND * (N_KEYS / 4)


class TestMinimalMovement:
    @settings(max_examples=40, deadline=None)
    @given(salt=salts, n_shards=shard_counts, vnodes=vnode_counts)
    def test_join_moves_keys_only_onto_the_new_shard(self, salt, n_shards, vnodes):
        placement = make_placement(n_shards, vnodes)
        keys = make_keys(salt)
        before = {key: placement.owner_of(key) for key in keys}
        placement.add("joiner")
        for key in keys:
            after = placement.owner_of(key)
            if after != before[key]:
                assert after == "joiner"  # nothing reshuffles between old shards

    @settings(max_examples=40, deadline=None)
    @given(salt=salts, n_shards=shard_counts, vnodes=vnode_counts)
    def test_leave_moves_only_the_departed_shards_keys(self, salt, n_shards, vnodes):
        placement = make_placement(n_shards + 1, vnodes)
        keys = make_keys(salt)
        before = {key: placement.owner_of(key) for key in keys}
        departed = placement.names[-1]
        placement.remove(departed)
        for key in keys:
            if before[key] == departed:
                assert placement.owner_of(key) != departed
            else:
                assert placement.owner_of(key) == before[key]

    @settings(max_examples=25, deadline=None)
    @given(salt=salts, vnodes=vnode_counts)
    def test_join_movement_fraction_is_near_ideal(self, salt, vnodes):
        """Joining the 5th shard should move ~1/5 of the keys, never the
        ~4/5 a naive ``hash(key) % n`` remap would."""
        placement = make_placement(4, vnodes)
        keys = make_keys(salt)
        before = {key: placement.owner_of(key) for key in keys}
        placement.add("joiner")
        moved = sum(1 for key in keys if placement.owner_of(key) != before[key])
        assert moved <= 2 * (N_KEYS / 5)

    @settings(max_examples=25, deadline=None)
    @given(salt=salts, vnodes=vnode_counts)
    def test_leave_then_rejoin_restores_the_mapping(self, salt, vnodes):
        placement = make_placement(4, vnodes)
        keys = make_keys(salt)
        before = {key: placement.owner_of(key) for key in keys}
        placement.remove("s3")
        placement.add("s3")
        assert {key: placement.owner_of(key) for key in keys} == before


class TestDeterminismAndMembership:
    @settings(max_examples=20, deadline=None)
    @given(salt=salts, n_shards=shard_counts, vnodes=vnode_counts)
    def test_independent_routers_agree(self, salt, n_shards, vnodes):
        a, b = make_placement(n_shards, vnodes), make_placement(n_shards, vnodes)
        for key in make_keys(salt, n=100):
            assert a.owner_of(key) == b.owner_of(key)

    @pytest.mark.parametrize("vnodes", [64, 32])
    def test_router_tier_and_bare_placement_share_one_construction(self, vnodes):
        names = [f"s{i}" for i in range(4)]
        bare = Placement(names, vnodes=vnodes)
        router = ShardRouter(names, vnodes=vnodes)
        tier = StorageTier(node_names=names, vnodes=vnodes)
        for key in make_keys(0):
            assert router.owner_of(key) == tier.node_of(key).name == bare.owner_of(key)

    def test_group_by_shard_partitions_and_preserves_order(self):
        router = ShardRouter([f"s{i}" for i in range(4)])
        keys = make_keys(0, n=200)
        groups = router.group(keys)
        assert sorted(k for batch in groups.values() for k in batch) == sorted(keys)
        for batch in groups.values():
            assert batch == sorted(batch, key=keys.index)

    def test_membership_errors(self):
        for vnodes in (64, 32):
            placement = make_placement(2, vnodes)
            with pytest.raises(ConfigurationError):
                placement.add("s0")  # duplicate
            with pytest.raises(ConfigurationError):
                placement.add("bad#name")  # vnode separator reserved
            with pytest.raises(ConfigurationError):
                placement.remove("nope")
            assert "s0" in placement and "nope" not in placement
            assert len(placement) == 2
        router = ShardRouter(["s0", "s1"])
        with pytest.raises(ConfigurationError):
            router.add_shard("s0")
        with pytest.raises(ConfigurationError):
            router.remove_shard("nope")
        with pytest.raises(ConfigurationError):
            ShardRouter(vnodes=0)
        with pytest.raises(ConfigurationError):
            ShardRouter().owner_of("key")  # no shards yet
        assert router.metrics.gauge("cluster.router.shards").value == 2

    def test_lookup_and_shard_count_metrics(self):
        router = ShardRouter([f"s{i}" for i in range(3)])
        for key in make_keys(0, n=10):
            router.owner_of(key)
        assert router.metrics.counter("cluster.router.lookups").value == 10
        assert router.metrics.gauge("cluster.router.shards").value == 3


class TestOneConstruction:
    """No module grows a private vnode ring or owner memo again."""

    #: The two standalone Chord paper exhibits keep their own bare ring.
    CHORD_EXHIBITS = {"storage/sharded.py", "net/p2p_pubsub.py"}

    def test_only_placement_builds_rings_and_memos(self):
        root = Path(__file__).resolve().parents[1] / "src" / "repro"
        offenders = []
        for path in sorted(root.rglob("*.py")):
            name = path.relative_to(root).as_posix()
            text = path.read_text()
            if name != "placement.py" and (
                "_VNODE_SEP" in text
                or "_owner_cache" in text
                or ("ChordRing(" in text and name not in self.CHORD_EXHIBITS)
            ):
                offenders.append(name)
        assert offenders == []
        assert "ShardRouter" not in (root / "geo" / "deployment.py").read_text()


class TestRingSuccessors:
    """The replica-placement walk ShardedKVCluster now routes through."""

    def make_ring(self, n=5):
        ring = ChordRing()
        for i in range(n):
            ring.join(f"n{i}")
        return ring

    @settings(max_examples=25, deadline=None)
    @given(salt=salts, n=st.integers(min_value=1, max_value=5))
    def test_successors_are_distinct_and_start_at_the_owner(self, salt, n):
        ring = self.make_ring()
        key = f"key-{salt}"
        owners = ring.successors(key, n)
        assert len(owners) == n == len(set(owners))
        assert owners[0] == ring.owner_of(key)

    def test_successors_bounds(self):
        ring = self.make_ring(3)
        with pytest.raises(ConfigurationError):
            ring.successors("k", 0)
        with pytest.raises(ConfigurationError):
            ring.successors("k", 4)  # only 3 distinct peers
        assert sorted(ring.successors("k", 3)) == ["n0", "n1", "n2"]


class TestRouteByOwnerAsksOncePerItem:
    """:func:`route_by_owner` splits and merges by the owner column its
    caller built, so a purchase call asks each request's owner once: the
    cluster through one :meth:`ShardRouter.owners` column, geo through
    ``home_of`` per request."""

    @settings(max_examples=100, deadline=None)
    @given(keys=st.lists(st.sampled_from([f"k{i}" for i in range(12)])),
           sorted_owners=st.booleans())
    def test_results_in_input_order_and_one_lookup_per_item(
        self, keys, sorted_owners
    ):
        placement = make_placement(3)
        owners, visited = placement.owners(keys), []

        def run(owner, batch):
            visited.append(owner)
            return [(owner, key) for key in batch]

        merged = route_by_owner(owners, keys, run, sorted_owners=sorted_owners)
        assert merged == [(placement.owner_of(key), key) for key in keys]
        first_seen = list(dict.fromkeys(owners))
        assert visited == (sorted(first_seen) if sorted_owners else first_seen)

    def test_a_cluster_purchase_call_makes_one_router_lookup_per_request(self):
        cluster = PlatformCluster(ClusterConfig(n_shards=4))
        products = [f"p{i}" for i in range(10)]
        cluster.load_catalog([
            DataRecord(key=pid, payload={"stock": 5, "price": 1})
            for pid in products
        ])
        requests = [
            PurchaseRequest(f"s{i}", products[i % 10], Space.PHYSICAL, float(i))
            for i in range(25)
        ]
        lookups = cluster.metrics.counter("cluster.router.lookups")
        before = lookups.value
        cluster.process_purchases(requests)
        assert lookups.value - before == len(requests)

    def test_geo_purchase_routing_asks_home_of_once_per_request(self):
        geo = GeoDeployment(GeoConfig(
            regions=("r0", "r1", "r2"),
            wan_latencies_s={("r0", "r1"): 0.01, ("r0", "r2"): 0.01,
                             ("r1", "r2"): 0.01},
        ))
        products = [f"p{i}" for i in range(10)]
        geo.load_catalog([
            DataRecord(key=pid, payload={"stock": 5, "price": 1})
            for pid in products
        ])
        requests = [
            PurchaseRequest(f"s{i}", products[i % 10], Space.PHYSICAL, float(i))
            for i in range(25)
        ]
        asked = []
        home_of = geo.home_of

        def counting(key):
            asked.append(key)
            return home_of(key)

        geo.home_of = counting
        assert len(geo.process_purchases(requests)) == len(requests)
        assert len(asked) == len(requests)
