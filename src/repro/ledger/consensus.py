"""Replication and consensus cost models (paper Sec. IV-D).

"Decentralization requires the computation to be byzantine faulty tolerant,
which introduces a huge cost in replication and consensus modeling."  This
module quantifies that cost for experiment E8:

* :class:`PrimaryBackup` — crash-fault-tolerant baseline: primary fans a
  write to ``n-1`` backups, waits for a majority of acks (2 message delays,
  O(n) messages).
* :class:`PbftQuorum` — byzantine-fault-tolerant: pre-prepare, prepare, and
  commit phases with all-to-all exchanges (3 message delays, O(n^2)
  messages), requiring ``n >= 3f + 1`` replicas to tolerate ``f`` byzantine
  faults.

Both run over the simulated network so latency is measured rather than
assumed, and both expose analytic message counts for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.errors import ConfigurationError
from ..net.simnet import Message, SimulatedNetwork


@dataclass
class ConsensusOutcome:
    committed: bool
    latency: float
    messages: int


class PrimaryBackup:
    """Majority-ack primary/backup replication over the simulated network."""

    def __init__(self, network: SimulatedNetwork, n_replicas: int) -> None:
        if n_replicas < 1:
            raise ConfigurationError("need at least one replica")
        self.network = network
        self.n = n_replicas
        self.primary = network.add_node("pb-primary")
        self.backups = [network.add_node(f"pb-backup-{i}") for i in range(n_replicas - 1)]
        self._acks: set[str] = set()
        self.messages = 0
        for backup in self.backups:
            backup.on("replicate", self._make_backup_handler(backup))
        self.primary.on("ack", self._on_ack)

    def _make_backup_handler(self, backup):
        def handler(message: Message) -> None:
            self.messages += 1
            backup.send(message.src, "ack", {"from": backup.name})
        return handler

    def _on_ack(self, message: Message) -> None:
        self.messages += 1
        self._acks.add(message.payload["from"])

    @staticmethod
    def analytic_messages(n: int) -> int:
        """Replicate to n-1 backups + n-1 acks."""
        return 2 * (n - 1)

    def replicate(self, payload: dict) -> ConsensusOutcome:
        scheduler = self.network.scheduler
        start = scheduler.clock.now
        self._acks = set()
        sent = 0
        for backup in self.backups:
            self.primary.send(backup.name, "replicate", payload)
            sent += 1
        majority = self.n // 2  # acks needed beyond the primary's own vote
        scheduler.run_until_received(self._acks, majority, math.inf)
        committed = len(self._acks) >= majority
        return ConsensusOutcome(
            committed=committed,
            latency=scheduler.clock.now - start,
            messages=sent + len(self._acks),
        )


class PbftQuorum:
    """PBFT-shaped three-phase quorum (message pattern, not full protocol).

    Implements the normal-case message flow: the leader pre-prepares to all,
    every replica prepares to every other, then commits to every other; a
    request commits when ``2f + 1`` replicas report a commit quorum.  View
    changes and byzantine equivocation are out of scope — the experiment
    targets the *cost* of the quadratic exchange, which this reproduces
    exactly.
    """

    def __init__(self, network: SimulatedNetwork, f: int) -> None:
        if f < 1:
            raise ConfigurationError("f must be >= 1")
        self.f = f
        self.n = 3 * f + 1
        self.network = network
        self.replicas = [network.add_node(f"pbft-{i}") for i in range(self.n)]
        self._prepares: dict[int, set[str]] = {}
        self._commits: dict[int, set[str]] = {}
        self._committed_replicas: dict[int, set[str]] = {}
        self.messages = 0
        self._silent: set[str] = set()
        for replica in self.replicas:
            replica.on("pre-prepare", self._make_handler(replica, "prepare"))
            replica.on("prepare", self._make_prepare_handler(replica))
            replica.on("commit", self._make_commit_handler(replica))

    def silence(self, count: int) -> None:
        """Make ``count`` non-leader replicas unresponsive (crash faults)."""
        for replica in self.replicas[1 : 1 + count]:
            self._silent.add(replica.name)

    def _broadcast(self, sender, topic: str, payload: dict) -> None:
        for replica in self.replicas:
            if replica.name != sender.name:
                sender.send(replica.name, topic, payload)
                self.messages += 1

    def _make_handler(self, replica, next_topic: str):
        def handler(message: Message) -> None:
            if replica.name in self._silent:
                return
            self._broadcast(replica, next_topic, message.payload)
        return handler

    def _make_prepare_handler(self, replica):
        def handler(message: Message) -> None:
            if replica.name in self._silent:
                return
            seq = message.payload["seq"]
            prepared = self._prepares.setdefault((replica.name, seq), set())  # type: ignore[arg-type]
            prepared.add(message.src)
            # Quorum of 2f prepares counting the replica's own (which it does
            # not receive from the network): trigger at 2f - 1 from others.
            if len(prepared) == 2 * self.f - 1:
                self._broadcast(replica, "commit", message.payload)
        return handler

    def _make_commit_handler(self, replica):
        def handler(message: Message) -> None:
            if replica.name in self._silent:
                return
            seq = message.payload["seq"]
            commits = self._commits.setdefault((replica.name, seq), set())  # type: ignore[arg-type]
            commits.add(message.src)
            if len(commits) >= 2 * self.f:
                self._committed_replicas.setdefault(seq, set()).add(replica.name)
        return handler

    @staticmethod
    def analytic_messages(n: int) -> int:
        """Honest-case message count of this implementation's flow.

        pre-prepare: leader to n-1 replicas; prepare: the n-1 non-leader
        replicas each broadcast to n-1 peers; commit: all n replicas (the
        leader participates from the prepare phase on) broadcast to n-1
        peers.  Still Theta(n^2), the point of experiment E8.
        """
        return (n - 1) + (n - 1) * (n - 1) + n * (n - 1)

    def propose(self, seq: int, payload: dict | None = None) -> ConsensusOutcome:
        scheduler = self.network.scheduler
        start = scheduler.clock.now
        leader = self.replicas[0]
        body = dict(payload or {})
        body["seq"] = seq
        self._broadcast(leader, "pre-prepare", body)
        while scheduler.next_event_time is not None:
            scheduler.run_until(scheduler.next_event_time)
            if len(self._committed_replicas.get(seq, set())) >= 2 * self.f + 1:
                break
        committed = len(self._committed_replicas.get(seq, set())) >= 2 * self.f + 1
        return ConsensusOutcome(
            committed=committed,
            latency=scheduler.clock.now - start,
            messages=self.messages,
        )
