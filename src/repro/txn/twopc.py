"""Two-phase commit over the simulated network (paper Sec. IV-E1).

Decentralized metaverse databases need distributed transactions across data
centers; the paper notes they are "hard to process at scale ... due to the
network partition and non-negligible inter-data-center network latency".
This module implements the canonical blocking 2PC protocol over
:class:`~repro.net.simnet.SimulatedNetwork`, so experiments can measure
exactly that latency cost (message rounds x inter-DC RTT) and observe abort
behaviour under participant failure and partitions.
"""

from __future__ import annotations

import itertools
from collections.abc import Sized
from dataclasses import dataclass, field
from typing import Any

from ..net.simnet import Message, SimulatedNetwork
from ..resilience.policies import Timeout

_txn_ids = itertools.count(1)


@dataclass
class DistributedTxn:
    """A transaction writing key -> value at multiple participants."""

    writes_by_participant: dict[str, dict[str, Any]]
    txn_id: int = field(default_factory=lambda: next(_txn_ids))


@dataclass
class TxnOutcome:
    txn_id: int
    committed: bool
    reason: str = ""
    prepare_latency: float = 0.0
    total_latency: float = 0.0


class Participant:
    """A resource manager holding a local key-value state.

    ``fail_prepares`` makes the participant vote NO (simulating a local
    integrity failure); ``crashed`` makes it silent (simulating a crash),
    which stalls the coordinator until its timeout.
    """

    def __init__(self, network: SimulatedNetwork, name: str) -> None:
        self.name = name
        self.network = network
        self.node = network.add_node(name)
        self.data: dict[str, Any] = {}
        self._staged: dict[int, Any] = {}  # txn_id -> staged resource
        self.fail_prepares = False
        self.crashed = False
        self.node.on("2pc.prepare", self._on_prepare)
        self.node.on("2pc.commit", self._on_commit)
        self.node.on("2pc.abort", self._on_abort)

    def _on_prepare(self, message: Message) -> None:
        if self.crashed:
            return
        txn_id = message.payload["txn_id"]
        writes = message.payload["writes"]
        if self.fail_prepares:
            vote = False
        else:
            vote = self._stage(txn_id, writes)
        self.node.send(
            message.src,
            "2pc.vote",
            {"txn_id": txn_id, "participant": self.name, "vote": vote},
        )

    def _on_commit(self, message: Message) -> None:
        if self.crashed:
            return
        txn_id = message.payload["txn_id"]
        staged = self._staged.pop(txn_id, None)
        if staged is not None:
            self._apply(txn_id, staged)
        self.node.send(message.src, "2pc.ack", {"txn_id": txn_id})

    def _on_abort(self, message: Message) -> None:
        if self.crashed:
            return
        txn_id = message.payload["txn_id"]
        staged = self._staged.pop(txn_id, None)
        if staged is not None:
            self._release(txn_id, staged)
        self.node.send(message.src, "2pc.ack", {"txn_id": txn_id})

    # -- resource-manager hooks (overridden by richer participants) --------

    def _stage(self, txn_id: int, writes: dict[str, Any]) -> bool:
        """Validate and stage a write set; the return value is the vote.

        The base participant is a plain dict store and always votes yes;
        subclasses (e.g. the cluster's shard participant) override the
        stage/apply/release trio to bind phase 1 and phase 2 to a real
        resource manager while inheriting the protocol driver unchanged.
        """
        self._staged[txn_id] = writes
        return True

    def _apply(self, txn_id: int, staged: Any) -> None:
        """Make a staged write set durable (phase-2 commit)."""
        self.data.update(staged)

    def _release(self, txn_id: int, staged: Any) -> None:
        """Undo a staged write set (phase-2 abort)."""

    @property
    def staged_count(self) -> int:
        return len(self._staged)


class Coordinator:
    """Drives 2PC rounds; one instance can coordinate many transactions."""

    def __init__(
        self,
        network: SimulatedNetwork,
        name: str = "coordinator",
        timeout_s: float = 5.0,
    ) -> None:
        self.name = name
        self.network = network
        self.node = network.add_node(name)
        self.timeout = Timeout(timeout_s)
        # Per-transaction state lives only while execute() waits for it:
        # votes until the decision, acks until the decision round ends.
        # A vote or ack arriving after that is for a forgotten
        # transaction and is ignored.
        self._votes: dict[int, dict[str, bool]] = {}
        self._acks: dict[int, set[str]] = {}
        self.node.on("2pc.vote", self._on_vote)
        self.node.on("2pc.ack", self._on_ack)

    def _on_vote(self, message: Message) -> None:
        payload = message.payload
        votes = self._votes.get(payload["txn_id"])
        if votes is not None:
            votes[payload["participant"]] = payload["vote"]

    def _on_ack(self, message: Message) -> None:
        acks = self._acks.get(message.payload["txn_id"])
        if acks is not None:
            acks.add(message.src)

    def _drive(self, received: Sized, expected: int, deadline: float) -> bool:
        """Run the shared scheduler one instant at a time until ``expected``
        replies are in ``received``, ``deadline`` passes or nothing is left
        to run; return whether the deadline cut the wait short."""
        scheduler = self.network.scheduler
        clock = scheduler.clock
        while (
            len(received) < expected
            and clock.now < deadline
            and (next_time := scheduler.next_event_time) is not None
        ):
            scheduler.run_until(min(deadline, next_time))
        return clock.now >= deadline and len(received) < expected

    def execute(self, txn: DistributedTxn) -> TxnOutcome:
        """Run the full protocol to completion on the shared scheduler.

        The call drives the event scheduler; when it returns, the decision
        has been made and (for reachable participants) applied.  Each phase
        waits at most the coordinator's one :class:`Timeout`.
        """
        clock = self.network.scheduler.clock
        start = clock.now
        participants = list(txn.writes_by_participant)
        votes: dict[str, bool] = {}
        acks: set[str] = set()
        self._votes[txn.txn_id] = votes
        self._acks[txn.txn_id] = acks

        # Phase 1: prepare.
        unreachable: list[str] = []
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

        # Phase 2: decision.
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
