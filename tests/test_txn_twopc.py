"""Tests for two-phase commit over the simulated network."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, PlatformCluster
from repro.core import DataRecord, EventScheduler, Space
from repro.net import Link, SimulatedNetwork
from repro.txn import Coordinator, DistributedTxn, Participant
from repro.resilience.policies import Timeout
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


class RemoteCoordinator(Coordinator):
    """The oracle: ``execute`` as it was while the coordinator was a node
    of its own — every participant remote, so a round over *n*
    participants sends 4*n* messages, and an abort goes to every
    participant and waits for its acks.  It ignores ``at``."""

    def execute(self, txn, at=None):
        clock = self.network.scheduler.clock
        start = clock.now
        participants = list(txn.writes_by_participant)
        votes = {}
        acks = set()
        self._votes[txn.txn_id] = votes
        self._acks[txn.txn_id] = acks

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
        if self._drive(votes, len(participants) - len(unreachable),
                       self.timeout.deadline_from(clock.now)):
            self.network.metrics.counter("twopc.prepare_timeouts").inc()
        prepare_latency = clock.now - start
        del self._votes[txn.txn_id]
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
        if self._drive(acks, len(participants),
                       self.timeout.deadline_from(clock.now)):
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
            total_latency=clock.now - start,
        )


class AckingParticipant(Participant):
    """The oracle's participant: it acks an abort, as every participant
    did before aborts were presumed."""

    def _on_abort(self, message):
        if self.crashed:
            return
        txn_id = message.payload["txn_id"]
        staged = self._staged.pop(txn_id, None)
        if staged is not None:
            self._release(txn_id, staged)
        self.node.send(message.src, "2pc.ack", {"txn_id": txn_id})


class RecordingParticipant(Participant):
    """A participant that remembers, per transaction, whether it voted
    yes (staged), applied or released."""

    def __init__(self, network, name):
        super().__init__(network, name)
        self.staged_ids, self.applied, self.released = set(), set(), set()

    def _stage(self, txn_id, writes):
        self.staged_ids.add(txn_id)
        return super()._stage(txn_id, writes)

    def _apply(self, txn_id, staged):
        self.applied.add(txn_id)
        super()._apply(txn_id, staged)

    def _release(self, txn_id, staged):
        self.released.add(txn_id)
        super()._release(txn_id, staged)


_names = [f"dc-{i}" for i in range(4)]
_subsets = st.sets(st.sampled_from(_names))


@st.composite
def scenarios(draw, exact=False):
    """A run of transactions on a small world: who votes no, who is
    silent, who is cut off before the round, which links are cut and
    healed mid-flight, the loss rate, the latency, the timeout (one
    exact round trip puts the replies on the deadline's instant), and
    whether an unrelated event far ahead keeps the scheduler busy (a wait
    only times out while there is something left to run).

    An ``exact`` scenario loses no message, cuts no link and waits at
    least 2.5 round trips, so no outcome hangs on when a round started:
    the home's local calls end rounds earlier than the oracle's."""
    n = draw(st.integers(1, 4))
    names = _names[:n]
    txns = draw(st.lists(
        st.lists(st.sampled_from(names), min_size=1, unique=True),
        min_size=1, max_size=4,
    ))
    scenario = {
        "n": n,
        "txns": txns,
        "fail": draw(_subsets),
        "crashed": draw(_subsets),
        "latency": draw(st.sampled_from([0.005, 0.01])),
        "busy": draw(st.booleans()),
    }
    if exact:
        return {
            **scenario, "cut_before": set(), "cut_mid": [], "loss": 0.0,
            "timeout": draw(st.sampled_from([0.05, 1.0])),
        }
    return {
        **scenario,
        "cut_before": draw(_subsets),
        "cut_mid": draw(st.lists(
            st.tuples(st.sampled_from(names),
                      st.sampled_from([0.005, 0.01, 0.015, 0.02, 0.04]),
                      st.booleans()),
            max_size=3,
        )),
        "loss": draw(st.sampled_from([0.0, 0.0, 0.1, 0.5])),
        "timeout": draw(st.sampled_from(["round_trip", 0.005, 0.02, 0.05, 1.0])),
    }


def isolate(network, name, heal=False):
    """Cut (or heal) every link of ``name``: to the oracle's coordinator
    node and to every other participant, any of which may be a home."""
    for other in ["coordinator", *_names]:
        if other != name:
            (network.heal if heal else network.partition)(name, other)


def play(coordinator_cls, scenario, participant_cls=Participant):
    """Run ``scenario`` and return its world and, per round, the outcome,
    how far it moved the ``twopc.*`` counters and ``net.messages_sent``,
    and the transactions each participant held staged when it returned.  The oracle runs every round at its own node;
    any other coordinator runs it at its first participant in name
    order."""
    scheduler = EventScheduler()
    link = Link(latency_s=scenario["latency"], bandwidth_bps=1e12,
                loss_rate=scenario["loss"])
    network = SimulatedNetwork(scheduler, default_link=link, seed=5)
    timeout = scenario["timeout"]
    if timeout == "round_trip":
        timeout = 2 * link.transfer_delay(256)
    coordinator = coordinator_cls(network, timeout_s=timeout)
    participants = {
        name: participant_cls(network, name)
        for name in _names[:scenario["n"]]
    }
    for name, participant in participants.items():
        participant.fail_prepares = name in scenario["fail"]
        participant.crashed = name in scenario["crashed"]
        if name in scenario["cut_before"]:
            isolate(network, name)
    for name, at, heal in scenario["cut_mid"]:
        if name in participants:
            scheduler.schedule(
                at, lambda name=name, heal=heal: isolate(network, name, heal)
            )
    if scenario["busy"]:
        scheduler.schedule(30.0, lambda: None)
    counters = ("twopc.prepare_timeouts", "twopc.decision_timeouts",
                "net.messages_sent")
    metrics = network.metrics
    rounds = []
    for i, members in enumerate(scenario["txns"]):
        before = [metrics.counter(name).value for name in counters]
        txn = DistributedTxn({name: {f"k{i}": i} for name in members}, txn_id=i)
        outcome = coordinator.execute(txn, at=participants[min(members)])
        rounds.append((outcome, *(
            metrics.counter(name).value - was
            for name, was in zip(counters, before)
        ), {name: set(p._staged) for name, p in participants.items()}))
    return rounds, participants, coordinator


def saved_messages(scenario, members, committed):
    """What running a lossless, uncut round at its first participant saves
    over the oracle: the home's prepare, vote, decision and ack, and on
    an abort every ack plus each remote no-voter's abort."""
    home = min(members)
    live = [name for name in members if name not in scenario["crashed"]]
    if committed:
        return 4
    remote_noes = [
        name for name in live if name != home and name in scenario["fail"]
    ]
    return 2 + (home in live) + len(remote_noes) + len(live)


class TestOneDriveLoopMatchesTheTwoLoopOracle:
    """The home-run, presumed-abort round against the remote-coordinator
    oracle (``RemoteCoordinator`` over acking participants).  Where no
    message is lost and no link cut, every outcome, every participant's
    data and staged count, and the prepare timeouts are equal; the
    messages differ by :func:`saved_messages`, and an abort, no longer
    acked, never waits out a decision timeout."""

    @settings(max_examples=200, deadline=None)
    @given(scenario=scenarios(exact=True))
    def test_outcomes_counters_and_data_are_equal(self, scenario):
        new, new_world, coordinator = play(Coordinator, scenario)
        old, old_world, _ = play(RemoteCoordinator, scenario, AckingParticipant)
        for members, now, was in zip(scenario["txns"], new, old):
            (outcome, prepare_timeouts, decision_timeouts, sent, _) = now
            (oracle, oracle_prepare, oracle_decision, oracle_sent, _) = was
            assert (outcome.committed, outcome.reason) == (
                oracle.committed, oracle.reason
            )
            assert prepare_timeouts == oracle_prepare
            assert decision_timeouts == (
                oracle_decision if oracle.committed else 0
            )
            assert sent == oracle_sent - saved_messages(
                scenario, members, oracle.committed
            )
        assert {
            name: (p.data, p.staged_count) for name, p in new_world.items()
        } == {
            name: (p.data, p.staged_count) for name, p in old_world.items()
        }
        assert coordinator._votes == {} and coordinator._acks == {}

    def test_each_timeout_counter_is_equal_on_its_own_path(self):
        """A participant silent from the start times the prepare out in
        both, and only the oracle then waits out the abort's acks; one
        that falls silent after voting yes times a commit's acks out in
        both."""
        scenario = {
            "n": 3, "txns": [["dc-0", "dc-1", "dc-2"]], "fail": set(),
            "crashed": {"dc-2"}, "cut_before": set(), "cut_mid": [],
            "loss": 0.0, "latency": 0.01, "timeout": 0.05, "busy": True,
        }
        [(new, *new_counts, _)], _, _ = play(Coordinator, scenario)
        [(old, *old_counts, _)], _, _ = play(
            RemoteCoordinator, scenario, AckingParticipant
        )
        assert (new.committed, new.reason) == (False, "prepare timeout")
        assert (old.committed, old.reason) == (False, "prepare timeout")
        assert old_counts == [1, 1, 10] and new_counts == [1, 0, 5]

        results = []
        for cls, participant_cls in (
            (Coordinator, Participant), (RemoteCoordinator, AckingParticipant)
        ):
            scheduler = EventScheduler()
            network = SimulatedNetwork(
                scheduler, default_link=Link(latency_s=0.01, bandwidth_bps=1e12)
            )
            coordinator = cls(network, timeout_s=0.05)
            participants = {
                f"dc-{i}": participant_cls(network, f"dc-{i}") for i in range(3)
            }
            scheduler.schedule(
                0.015, lambda p=participants: setattr(p["dc-2"], "crashed", True)
            )
            scheduler.schedule(30.0, lambda: None)
            outcome = coordinator.execute(
                DistributedTxn({name: {"k": 1} for name in participants}),
                at=participants["dc-0"],
            )
            snapshot = network.metrics.snapshot()
            results.append((
                outcome.committed, outcome.total_latency,
                snapshot.get("twopc.prepare_timeouts", 0),
                snapshot["twopc.decision_timeouts"],
                {name: (p.data, p.staged_count) for name, p in participants.items()},
            ))
        assert results[0] == results[1]
        assert results[0][:4] == (True, pytest.approx(0.07), 0, 1)


class TestHomeRoundSafety:
    """Lossy links and cut links draw the fabric's RNG differently from
    the oracle's, so these scenarios are held to safety alone: a round is
    all-or-nothing, a commit implies every participant voted yes, and a
    participant reachable from the home holds no stage of the round when
    it returns.  A stage it still holds belongs to an earlier round whose
    home was cut mid-round: 2PC's blocking window, which no later home can
    close."""

    @settings(max_examples=200, deadline=None)
    @given(scenario=scenarios())
    # Round 0's home is cut once dc-2 has staged: dc-2 keeps that stage
    # through round 1.
    @example(scenario={
        "n": 3, "txns": [["dc-1", "dc-2"], ["dc-0", "dc-1", "dc-2"]],
        "fail": set(), "crashed": set(), "latency": 0.005, "busy": False,
        "cut_before": set(), "cut_mid": [("dc-1", 0.01, False)],
        "loss": 0.0, "timeout": "round_trip",
    })
    def test_rounds_are_atomic_and_leave_no_reachable_stage(self, scenario):
        rounds, world, coordinator = play(
            Coordinator, scenario, RecordingParticipant
        )
        isolated = set(scenario["cut_before"]) | {
            name for name, _, _ in scenario["cut_mid"]
        }
        for i, (members, (outcome, *_, staged)) in enumerate(
            zip(scenario["txns"], rounds)
        ):
            applied = {name for name in members if i in world[name].applied}
            released = {name for name in members if i in world[name].released}
            assert not (applied and released)
            if outcome.committed:
                assert all(i in world[name].staged_ids for name in members)
            else:
                assert not applied
            home = min(members)
            if scenario["loss"] or home in isolated:
                continue
            for name in members:
                if name in isolated or name in scenario["crashed"]:
                    continue
                assert i not in staged[name]
                assert all(
                    j < i and min(scenario["txns"][j]) in isolated
                    for j in staged[name]
                )
                if outcome.committed:
                    assert name in applied
        assert coordinator._votes == {} and coordinator._acks == {}


class TestASilentHome:
    def test_a_crashed_home_times_the_prepare_out_and_releases_remote_stages(self):
        scheduler, network, coordinator, participants = build()
        coordinator.timeout = Timeout(0.5)
        scheduler.schedule(30.0, lambda: None)  # a wait only times out while busy
        participants["dc-0"].crashed = True
        txn = DistributedTxn({"dc-0": {"x": 1}, "dc-1": {"y": 2}, "dc-2": {"z": 3}})
        outcome = coordinator.execute(txn, at=participants["dc-0"])
        assert (outcome.committed, outcome.reason) == (False, "prepare timeout")
        assert outcome.prepare_latency == pytest.approx(0.5)
        assert network.metrics.counter("twopc.prepare_timeouts").value == 1
        assert all(p.staged_count == 0 and p.data == {} for p in participants.values())


class TwoCallDrive(Coordinator):
    """The oracle: ``_drive`` as it was, a ``next_event_time`` and a
    ``run_until`` call per instant."""

    def _drive(self, received, expected, deadline):
        scheduler = self.network.scheduler
        clock = scheduler.clock
        while (
            len(received) < expected
            and clock.now < deadline
            and (next_time := scheduler.next_event_time) is not None
        ):
            scheduler.run_until(min(deadline, next_time))
        return clock.now >= deadline and len(received) < expected


class TestTheSchedulerWaitMatchesTheTwoCallDrive:
    """``EventScheduler.run_until_received`` against the two-call loop it
    replaced, over every scenario the fabric draws: loss, cuts before and
    during a round, a busy scheduler and replies due on the deadline's
    instant."""

    @settings(max_examples=200, deadline=None)
    @given(scenario=scenarios())
    @example(scenario={
        "n": 3, "txns": [["dc-1", "dc-2"], ["dc-0", "dc-1", "dc-2"]],
        "fail": set(), "crashed": set(), "latency": 0.005, "busy": False,
        "cut_before": set(), "cut_mid": [("dc-1", 0.01, False)],
        "loss": 0.0, "timeout": "round_trip",
    })
    def test_outcomes_counters_stages_and_clock_are_equal(self, scenario):
        worlds = []
        for coordinator_cls in (Coordinator, TwoCallDrive):
            rounds, participants, coordinator = play(coordinator_cls, scenario)
            network = coordinator.network
            worlds.append((
                rounds,
                {name: (p.data, set(p._staged)) for name, p in participants.items()},
                network.metrics.snapshot(),
                network.scheduler.clock.now,
                len(network.scheduler),
            ))
        assert worlds[0] == worlds[1]


PRODUCTS = [f"p{i}" for i in range(10)]


def market(oracle=False):
    """A 4-shard replicated cluster with ten products of six units; the
    oracle's coordinator is :class:`RemoteCoordinator` on a node of its
    own."""
    cluster = PlatformCluster(ClusterConfig(n_shards=4, n_replicas=2))
    cluster.load_catalog([
        DataRecord(key=pid, payload={"stock": 6, "price": 1})
        for pid in PRODUCTS
    ])
    if oracle:
        twopc = cluster.coordinator
        twopc.coordinator = RemoteCoordinator(
            twopc.network, name="cluster-coordinator"
        )
    return cluster


market_calls = st.lists(
    st.tuples(
        st.sampled_from(["basket", "purchases"]),
        st.lists(
            st.tuples(st.sampled_from(PRODUCTS), st.integers(1, 4)),
            min_size=1, max_size=4,
        ),
    ),
    min_size=1, max_size=8,
)


def play_market(cluster, calls):
    """Every basket's and purchase's outcome, every shard's and replica's
    stock, and the 2PC outcome counters after ``calls``."""
    outcomes = []
    for i, (kind, items) in enumerate(calls):
        requests = [
            PurchaseRequest(f"s{i}.{j}", pid, Space.PHYSICAL, float(i), quantity)
            for j, (pid, quantity) in enumerate(items)
        ]
        if kind == "basket":
            basket = cluster.process_basket(requests)
            outcomes.append((basket.committed, basket.reason, basket.shards))
        else:
            outcomes.append([
                (o.success, o.reason) for o in cluster.process_purchases(requests)
            ])
    owners = {pid: cluster.router.owner_of(pid) for pid in PRODUCTS}
    stock = {
        pid: (
            cluster.shards[owner].get_stock(pid),
            cluster.failover.replica_stock(owner, pid),
        )
        for pid, owner in owners.items()
    }
    counters = {
        name: cluster.metrics.counter(name).value
        for name in ("cluster.twopc.committed", "cluster.twopc.aborted")
    }
    return outcomes, stock, counters


class TestClusterRoundsAtTheHome:
    @settings(max_examples=40, deadline=None)
    @given(calls=market_calls)
    def test_baskets_stock_and_counters_equal_the_remote_coordinator(self, calls):
        assert play_market(market(), calls) == play_market(
            market(oracle=True), calls
        )

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(calls=market_calls)
    def test_sweep_baskets_equal_the_remote_coordinator(self, request, calls):
        """The property above at 1,000 examples, for the nightly tier."""
        if not request.config.getoption("markexpr"):
            pytest.skip("nightly sweep: select it with -m slow")
        assert play_market(market(), calls) == play_market(
            market(oracle=True), calls
        )

    def test_the_network_holds_exactly_the_shards(self):
        cluster = market()
        twopc = cluster.coordinator

        def nodes():
            return set(twopc.network.nodes)

        assert nodes() == set(cluster.shards)
        basket = [
            PurchaseRequest("s", pid, Space.PHYSICAL, 0.0) for pid in PRODUCTS
        ]
        assert cluster.process_basket(basket).committed
        assert nodes() == set(cluster.shards)
        victim = min(cluster.shards)
        cluster.kill_shard(victim)
        while cluster.failover.state(victim) != "up":
            cluster.tick(0.05)
        assert nodes() == set(cluster.shards)
        cluster.add_shard("shard-9")
        assert nodes() == set(cluster.shards)
        cluster.remove_shard("shard-1")
        assert nodes() == set(cluster.shards) and "shard-1" not in nodes()
        assert cluster.process_basket(basket).committed
        assert nodes() == set(cluster.shards)

    def test_a_killed_home_rejects_the_basket_and_starts_no_round(self):
        cluster = market()
        owners = {pid: cluster.router.owner_of(pid) for pid in PRODUCTS}
        basket = [
            PurchaseRequest("s", pid, Space.PHYSICAL, 0.0) for pid in PRODUCTS
        ]
        home = min(owners.values())
        cluster.kill_shard(home)
        sent = cluster.coordinator.network.metrics.counter("net.messages_sent")
        before = sent.value
        outcome = cluster.process_basket(basket)
        assert (outcome.committed, outcome.reason) == (False, f"shard down: {home}")
        assert outcome.txn is None and sent.value == before
        assert cluster.metrics.counter("cluster.twopc.aborted").value == 0
        assert all(
            p.staged_count == 0 for p in cluster.coordinator.participants.values()
        )
