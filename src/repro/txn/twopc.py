"""Two-phase commit over the simulated network (paper Sec. IV-E1).

Decentralized metaverse databases need distributed transactions across data
centers; the paper notes they are "hard to process at scale ... due to the
network partition and non-negligible inter-data-center network latency".
This module implements blocking 2PC over
:class:`~repro.net.simnet.SimulatedNetwork`, so experiments can measure
exactly that latency cost (message rounds x inter-DC RTT) and observe abort
behaviour under participant failure and partitions.

A round can run at one of its participants, the *home*, as R* runs it
(Mohan, Lindsay & Obermarck, TODS 1986): the home's prepare and decision
are local calls, so a committed round over *n* participants sends
4(*n*-1) messages.  Aborts are presumed: nobody acks an abort, and a
participant that voted no staged nothing, so it is sent none.  The ack
after a commit stays: when :meth:`Coordinator.execute` returns a commit,
every reachable participant has applied it.

Cost model of a round at its home over *n* participants:

* **Messages.**  A commit sends 4(*n*-1): a prepare, a vote, a commit
  and an ack per remote participant.  An abort sends the prepares, the
  votes that come back, and one abort per remote that did not vote no.
  Each message is one :meth:`~repro.net.simnet.SimulatedNetwork.send`
  (reachability, the fault decision, two bound counters and one heap
  entry with no handle) and one delivery (two bound metrics and the
  node's handler).
* **Waits.**  The driver waits twice: for the votes (up to the
  coordinator's timeout from the prepare) and, after a commit, for the
  acks (up to the timeout again).  Each wait is one
  :meth:`~repro.core.clock.EventScheduler.run_until_received` call.  An
  abort waits for nothing: the driver runs the scheduler until each
  abort's link delay has passed.
* **One instant.**  A wait runs every event due at the earliest queued
  time, then counts the replies.  So replies that arrive at the same
  simulated time are all in before the round decides.  The clock moves
  only to event times, or to the deadline when the next event lies past
  it.  A wait with nothing left to run ends where it is, without a
  timeout.
"""

from __future__ import annotations

import itertools
from collections.abc import Sized
from dataclasses import dataclass, field
from typing import Any

from ..core.errors import NetworkError
from ..net.simnet import Message, Node, SimulatedNetwork
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
    which stalls the coordinator until its timeout.  Commits are acked;
    aborts are presumed and never acked, and a participant that voted no
    is sent no abort (it staged nothing to release).
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

    def _vote(self, txn_id: int, writes: dict[str, Any]) -> bool:
        """Phase 1 at this participant: stage ``writes`` unless told to
        vote no; the home's local prepare and a remote one share it."""
        return not self.fail_prepares and self._stage(txn_id, writes)

    def _decide(self, txn_id: int, commit: bool) -> None:
        """Phase 2 at this participant: apply or release what it staged."""
        staged = self._staged.pop(txn_id, None)
        if staged is not None:
            if commit:
                self._apply(txn_id, staged)
            else:
                self._release(txn_id, staged)

    def _on_prepare(self, message: Message) -> None:
        if self.crashed:
            return
        txn_id = message.payload["txn_id"]
        vote = self._vote(txn_id, message.payload["writes"])
        self.network.send(
            self.name,
            message.src,
            "2pc.vote",
            {"txn_id": txn_id, "participant": self.name, "vote": vote},
        )

    def _on_commit(self, message: Message) -> None:
        if self.crashed:
            return
        txn_id = message.payload["txn_id"]
        self._decide(txn_id, True)
        self.network.send(self.name, message.src, "2pc.ack", {"txn_id": txn_id})

    def _on_abort(self, message: Message) -> None:
        if not self.crashed:
            self._decide(message.payload["txn_id"], False)

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
    """Drives 2PC rounds; one instance can coordinate many transactions.

    A round runs at the coordinator's own node, every participant remote,
    or at the participant the caller names as its home
    (``execute(txn, at=participant)``): the home prepares and decides by
    local calls, and the remote votes and acks come back to the home's
    node.  With ``name=None`` the coordinator has no node of its own, and
    every round it runs names a home.
    """

    def __init__(
        self,
        network: SimulatedNetwork,
        name: str | None = "coordinator",
        timeout_s: float = 5.0,
    ) -> None:
        self.name = name
        self.network = network
        self.timeout = Timeout(timeout_s)
        # Per-transaction state lives only while execute() waits for it:
        # votes until the decision, acks until the decision round ends.
        # A vote or ack arriving after that is for a forgotten
        # transaction and is ignored.
        self._votes: dict[int, dict[str, bool]] = {}
        self._acks: dict[int, set[str]] = {}
        self.node = None if name is None else self._listen(network.add_node(name))

    def _listen(self, node: Node) -> Node:
        node.on("2pc.vote", self._on_vote)
        node.on("2pc.ack", self._on_ack)
        return node

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
        return self.network.scheduler.run_until_received(
            received, expected, deadline
        )

    def execute(
        self, txn: DistributedTxn, at: Participant | None = None
    ) -> TxnOutcome:
        """Run the full protocol to completion on the shared scheduler.

        ``at``, one of ``txn``'s participants, is the home the round runs
        at; without it every participant is remote.  The call drives the
        event scheduler; when it returns, the decision has been made, a
        commit has been applied (and acked) at every reachable
        participant, and an abort has landed at every one that may have
        staged.  The prepare and the commit's acks each wait at most the
        coordinator's one :class:`Timeout`.
        """
        network = self.network
        clock = network.scheduler.clock
        start = clock.now
        txn_id = txn.txn_id
        writes = txn.writes_by_participant
        if at is None:
            node, remote = self.node, list(writes)
        else:
            node = self._listen(at.node)
            remote = [name for name in writes if name != at.name]
        home, send = node.name, network.send
        votes: dict[str, bool] = {}
        acks: set[str] = set()
        self._votes[txn_id] = votes
        self._acks[txn_id] = acks

        # Phase 1: prepare.  The home stages after the remote prepares are
        # out, so every participant is prepared even when the home votes
        # no, and the reason names every no-voter.
        unreachable: list[str] = []
        for participant in remote:
            try:
                send(
                    home,
                    participant,
                    "2pc.prepare",
                    {"txn_id": txn_id, "writes": writes[participant]},
                )
            except NetworkError:
                unreachable.append(participant)
        if at is not None and not at.crashed:
            votes[at.name] = at._vote(txn_id, writes[at.name])
        if self._drive(votes, len(writes) - len(unreachable),
                       self.timeout.deadline_from(clock.now)):
            network.metrics.counter("twopc.prepare_timeouts").inc()
        prepare_latency = clock.now - start
        del self._votes[txn_id]
        all_yes = (
            not unreachable
            and len(votes) == len(writes)
            and all(votes.values())
        )

        # Phase 2: decision.  A commit goes to every remote participant and
        # waits for their acks.  An abort is presumed: it skips the
        # no-voters (they staged nothing) and nobody acks it, but the round
        # lasts until it has landed, so no reachable participant still
        # holds a stage when execute() returns.
        if all_yes:
            topic, targets = "2pc.commit", remote
        else:
            topic = "2pc.abort"
            targets = [name for name in remote if votes.get(name) is not False]
        sent: list[Message] = []
        for participant in targets:
            try:
                sent.append(send(home, participant, topic, {"txn_id": txn_id}))
            except NetworkError:
                pass
        if at is not None and not at.crashed:
            at._decide(txn_id, all_yes)
        if all_yes:
            if self._drive(acks, len(targets),
                           self.timeout.deadline_from(clock.now)):
                network.metrics.counter("twopc.decision_timeouts").inc()
        elif sent:
            # Until each abort's link delay has passed; one an injected
            # fault delays further lands (and releases) when it arrives.
            network.scheduler.run_until(max(
                message.sent_at + network.link_for(
                    message.src, message.dst
                ).transfer_delay(message.size_bytes)
                for message in sent
            ))
        del self._acks[txn_id]

        reason = ""
        if not all_yes:
            if unreachable:
                reason = f"unreachable: {sorted(unreachable)}"
            elif len(votes) < len(writes):
                reason = "prepare timeout"
            else:
                noes = sorted(p for p, v in votes.items() if not v)
                reason = f"voted no: {noes}"
        return TxnOutcome(
            txn_id=txn_id,
            committed=all_yes,
            reason=reason,
            prepare_latency=prepare_latency,
            total_latency=clock.now - start,
        )
