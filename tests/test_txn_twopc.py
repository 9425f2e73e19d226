"""Tests for two-phase commit over the simulated network."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, PlatformCluster
from repro.core import DataRecord, EventScheduler, Space
from repro.net import Link, SimulatedNetwork
from repro.txn import Coordinator, DistributedTxn, Participant
from repro.txn.twopc import TxnOutcome
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


class TwoLoopCoordinator(Coordinator):
    """The oracle: ``execute`` as it was before one ``_drive`` loop served
    both phases — a ``Deadline`` guard and a wait loop per phase."""

    def execute(self, txn):
        scheduler = self.network.scheduler
        start = scheduler.clock.now
        participants = list(txn.writes_by_participant)
        self._votes[txn.txn_id] = {}
        self._acks[txn.txn_id] = set()

        unreachable = []
        for participant in participants:
            try:
                self.node.send(
                    participant,
                    "2pc.prepare",
                    {
                        "txn_id": txn.txn_id,
                        "writes": txn.writes_by_participant[participant],
                    },
                )
            except Exception:
                unreachable.append(participant)
        guard = self.timeout.guard(scheduler.clock, label="2pc.prepare")
        while (
            len(self._votes[txn.txn_id]) < len(participants) - len(unreachable)
            and not guard.expired
            and scheduler.next_event_time is not None
        ):
            scheduler.run_until(min(guard.at, scheduler.next_event_time))
        if guard.expired and len(self._votes[txn.txn_id]) < len(participants) - len(
            unreachable
        ):
            self.network.metrics.counter("twopc.prepare_timeouts").inc()
        prepare_latency = scheduler.clock.now - start

        votes = self._votes.pop(txn.txn_id)
        all_yes = (
            not unreachable
            and len(votes) == len(participants)
            and all(votes.values())
        )

        decision_topic = "2pc.commit" if all_yes else "2pc.abort"
        for participant in participants:
            try:
                self.node.send(participant, decision_topic, {"txn_id": txn.txn_id})
            except Exception:
                pass
        guard = self.timeout.guard(scheduler.clock, label="2pc.decision")
        while (
            len(self._acks[txn.txn_id]) < len(participants)
            and not guard.expired
            and scheduler.next_event_time is not None
        ):
            scheduler.run_until(min(guard.at, scheduler.next_event_time))
        if guard.expired and len(self._acks[txn.txn_id]) < len(participants):
            self.network.metrics.counter("twopc.decision_timeouts").inc()
        del self._acks[txn.txn_id]

        reason = ""
        if not all_yes:
            if unreachable:
                reason = f"unreachable: {sorted(unreachable)}"
            elif len(votes) < len(participants):
                reason = "prepare timeout"
            else:
                noes = sorted(p for p, v in votes.items() if not v)
                reason = f"voted no: {noes}"
        return TxnOutcome(
            txn_id=txn.txn_id,
            committed=all_yes,
            reason=reason,
            prepare_latency=prepare_latency,
            total_latency=scheduler.clock.now - start,
        )


_names = [f"dc-{i}" for i in range(4)]
_subsets = st.sets(st.sampled_from(_names))


@st.composite
def scenarios(draw):
    """A run of transactions on a small world: who votes no, who is
    silent, who is cut off before the round, which links are cut and
    healed mid-flight, the loss rate, the latency, the timeout (one
    exact round trip puts the replies on the deadline's instant), and
    whether an unrelated event far ahead keeps the scheduler busy (a wait
    only times out while there is something left to run)."""
    n = draw(st.integers(1, 4))
    names = _names[:n]
    txns = draw(st.lists(
        st.lists(st.sampled_from(names), min_size=1, unique=True),
        min_size=1, max_size=4,
    ))
    return {
        "n": n,
        "txns": txns,
        "fail": draw(_subsets),
        "crashed": draw(_subsets),
        "cut_before": draw(_subsets),
        "cut_mid": draw(st.lists(
            st.tuples(st.sampled_from(names),
                      st.sampled_from([0.005, 0.01, 0.015, 0.02, 0.04]),
                      st.booleans()),
            max_size=3,
        )),
        "loss": draw(st.sampled_from([0.0, 0.0, 0.1, 0.5])),
        "latency": draw(st.sampled_from([0.005, 0.01])),
        "timeout": draw(st.sampled_from(["round_trip", 0.005, 0.02, 0.05, 1.0])),
        "busy": draw(st.booleans()),
    }


def play(coordinator_cls, scenario):
    """Every observable a round leaves: each outcome, the clock, the
    participants' data and staged state, and the ``twopc.*`` and
    ``net.*`` metrics."""
    scheduler = EventScheduler()
    link = Link(latency_s=scenario["latency"], bandwidth_bps=1e12,
                loss_rate=scenario["loss"])
    network = SimulatedNetwork(scheduler, default_link=link, seed=5)
    timeout = scenario["timeout"]
    if timeout == "round_trip":
        timeout = 2 * link.transfer_delay(256)
    coordinator = coordinator_cls(network, timeout_s=timeout)
    participants = {
        name: Participant(network, name) for name in _names[:scenario["n"]]
    }
    for name, participant in participants.items():
        participant.fail_prepares = name in scenario["fail"]
        participant.crashed = name in scenario["crashed"]
        if name in scenario["cut_before"]:
            network.partition("coordinator", name)
    for name, at, heal in scenario["cut_mid"]:
        if name in participants:
            scheduler.schedule(at, lambda name=name, heal=heal: (
                network.heal if heal else network.partition
            )("coordinator", name))
    if scenario["busy"]:
        scheduler.schedule(30.0, lambda: None)
    outcomes = []
    for i, members in enumerate(scenario["txns"]):
        txn = DistributedTxn({name: {f"k{i}": i} for name in members}, txn_id=i)
        outcomes.append(coordinator.execute(txn))
    metrics = {
        name: value for name, value in network.metrics.snapshot().items()
        if name.startswith(("twopc.", "net."))
    }
    return (
        outcomes, scheduler.clock.now, metrics,
        {name: (p.data, p.staged_count) for name, p in participants.items()},
        (coordinator._votes, coordinator._acks),
    )


class TestOneDriveLoopMatchesTheTwoLoopOracle:
    @settings(max_examples=200, deadline=None)
    @given(scenario=scenarios())
    def test_outcomes_counters_and_data_are_equal(self, scenario):
        assert play(Coordinator, scenario) == play(TwoLoopCoordinator, scenario)

    def test_each_timeout_counter_is_equal_on_its_own_path(self):
        scenario = {
            "n": 3, "txns": [["dc-0", "dc-1", "dc-2"]], "fail": set(),
            "crashed": {"dc-2"}, "cut_before": set(), "cut_mid": [],
            "loss": 0.0, "latency": 0.01, "timeout": 0.05, "busy": True,
        }
        new, old = play(Coordinator, scenario), play(TwoLoopCoordinator, scenario)
        assert new == old
        assert new[2]["twopc.prepare_timeouts"] == 1
        assert new[2]["twopc.decision_timeouts"] == 1
        assert new[0][0].reason == "prepare timeout"
