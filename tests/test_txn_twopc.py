"""Tests for two-phase commit over the simulated network."""

import pytest

from repro.cluster import ClusterConfig, PlatformCluster
from repro.core import DataRecord, EventScheduler, Space
from repro.net import Link, SimulatedNetwork
from repro.txn import Coordinator, DistributedTxn, Participant
from repro.workloads.marketplace import PurchaseRequest


def build(n_participants=3, latency=0.01):
    scheduler = EventScheduler()
    network = SimulatedNetwork(
        scheduler, default_link=Link(latency_s=latency, bandwidth_bps=1e12)
    )
    coordinator = Coordinator(network)
    participants = {
        f"dc-{i}": Participant(network, f"dc-{i}") for i in range(n_participants)
    }
    return scheduler, network, coordinator, participants


class TestCommitPath:
    def test_all_yes_commits_everywhere(self):
        _, _, coordinator, participants = build()
        txn = DistributedTxn(
            {"dc-0": {"x": 1}, "dc-1": {"y": 2}, "dc-2": {"z": 3}}
        )
        outcome = coordinator.execute(txn)
        assert outcome.committed
        assert participants["dc-0"].data == {"x": 1}
        assert participants["dc-1"].data == {"y": 2}
        assert participants["dc-2"].data == {"z": 3}

    def test_latency_is_two_round_trips(self):
        _, _, coordinator, _ = build(latency=0.05)
        txn = DistributedTxn({"dc-0": {"x": 1}, "dc-1": {"y": 2}})
        outcome = coordinator.execute(txn)
        # prepare out + vote back + decision out + ack back = 4 one-way hops
        assert outcome.total_latency == pytest.approx(0.2, abs=0.02)
        assert outcome.prepare_latency == pytest.approx(0.1, abs=0.02)

    def test_subset_participation(self):
        _, _, coordinator, participants = build()
        txn = DistributedTxn({"dc-1": {"only": True}})
        outcome = coordinator.execute(txn)
        assert outcome.committed
        assert participants["dc-0"].data == {}
        assert participants["dc-1"].data == {"only": True}

    def test_sequential_transactions_isolated(self):
        _, _, coordinator, participants = build()
        coordinator.execute(DistributedTxn({"dc-0": {"a": 1}}))
        coordinator.execute(DistributedTxn({"dc-0": {"b": 2}}))
        assert participants["dc-0"].data == {"a": 1, "b": 2}


class TestAbortPaths:
    def test_no_vote_aborts_all(self):
        _, _, coordinator, participants = build()
        participants["dc-1"].fail_prepares = True
        txn = DistributedTxn({"dc-0": {"x": 1}, "dc-1": {"y": 2}})
        outcome = coordinator.execute(txn)
        assert not outcome.committed
        assert "dc-1" in outcome.reason
        assert participants["dc-0"].data == {}
        assert participants["dc-0"].staged_count == 0  # staged state rolled back

    def test_crashed_participant_aborts(self):
        _, _, coordinator, participants = build()
        participants["dc-2"].crashed = True
        txn = DistributedTxn({"dc-0": {"x": 1}, "dc-2": {"y": 2}})
        outcome = coordinator.execute(txn)
        assert not outcome.committed
        assert "timeout" in outcome.reason
        assert participants["dc-0"].data == {}

    def test_partitioned_participant_aborts(self):
        _, network, coordinator, participants = build()
        network.partition("coordinator", "dc-1")
        txn = DistributedTxn({"dc-0": {"x": 1}, "dc-1": {"y": 2}})
        outcome = coordinator.execute(txn)
        assert not outcome.committed
        assert "unreachable" in outcome.reason
        assert participants["dc-0"].data == {}

    def test_abort_does_not_poison_future_txns(self):
        _, _, coordinator, participants = build()
        participants["dc-1"].fail_prepares = True
        coordinator.execute(DistributedTxn({"dc-1": {"x": 1}}))
        participants["dc-1"].fail_prepares = False
        outcome = coordinator.execute(DistributedTxn({"dc-1": {"x": 2}}))
        assert outcome.committed
        assert participants["dc-1"].data == {"x": 2}


class TestForgetsDecidedTransactions:
    def test_no_per_transaction_state_outlives_its_decision(self):
        _, _, coordinator, participants = build()
        for i in range(60):
            participants["dc-1"].fail_prepares = i % 3 == 1
            participants["dc-2"].crashed = i % 5 == 2
            coordinator.execute(DistributedTxn(
                {"dc-0": {"k": i}, "dc-1": {"k": i}, "dc-2": {"k": i}}
            ))
        assert coordinator._votes == {} and coordinator._acks == {}

    def test_a_late_vote_or_ack_is_ignored(self):
        scheduler, _, coordinator, participants = build()
        participants["dc-1"].crashed = True
        txn = DistributedTxn({"dc-0": {"x": 1}, "dc-1": {"y": 2}})
        assert not coordinator.execute(txn).committed
        late = participants["dc-1"].node
        late.send("coordinator", "2pc.vote",
                  {"txn_id": txn.txn_id, "participant": "dc-1", "vote": True})
        late.send("coordinator", "2pc.ack", {"txn_id": txn.txn_id})
        scheduler.run_until(scheduler.clock.now + 1.0)
        assert coordinator._votes == {} and coordinator._acks == {}

    def test_a_cluster_coordinator_holds_nothing_after_many_baskets(self):
        cluster = PlatformCluster(ClusterConfig(n_shards=3))
        products = [f"p{i}" for i in range(12)]
        cluster.load_catalog([
            DataRecord(key=pid, payload={"stock": 20, "price": 1})
            for pid in products
        ])
        distributed = 0
        for i in range(150):
            basket = [
                PurchaseRequest(
                    f"s{i}", products[(i + j * 5) % 12], Space.PHYSICAL, 0.0
                )
                for j in range(3)
            ]
            distributed += bool(cluster.process_basket(basket).txn)
        assert distributed > 50
        twopc = cluster.coordinator.coordinator
        assert twopc._votes == {} and twopc._acks == {}
        assert not hasattr(twopc, "outcomes")


class TestLatencyScaling:
    def test_wan_latency_dominates(self):
        """E-claim (Sec. IV-E1): inter-DC latency makes distributed txns slow."""
        _, lan_coordinator, _ = None, None, None
        _, _, coord_lan, _ = build(latency=0.0005)
        _, _, coord_wan, _ = build(latency=0.08)
        lan = coord_lan.execute(DistributedTxn({"dc-0": {"k": 1}}))
        wan = coord_wan.execute(DistributedTxn({"dc-0": {"k": 1}}))
        assert wan.total_latency > 50 * lan.total_latency
