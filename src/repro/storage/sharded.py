"""Sharded, replicated key-value cluster (paper Sec. III / IV-E1).

"Database sharding, workload partitioning ... decentralized databases,
storing data across a network of distributed servers" — this module builds
that substrate over the existing pieces: keys shard across nodes via the
Chord ring, each key replicates to ``n_replicas`` successors, and reads/
writes use configurable quorums (``write_quorum + read_quorum > n_replicas``
gives read-your-writes through node failures, the Dynamo-style recipe).

Versions are (logical timestamp, writer) pairs; reads return the newest
version among the replicas consulted, and stale replicas found during a
read are repaired in place (read repair).

Standalone exhibit (E21: quorum reads/writes and read repair, which
``StorageTier`` does not have); no data-plane path goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.errors import ConfigurationError, KeyNotFoundError, StorageError
from ..net.overlay import ChordRing
from .kv import KVStore


@dataclass(frozen=True)
class Versioned:
    value: Any
    version: int
    writer: str


@dataclass
class _Node:
    name: str
    store: KVStore
    alive: bool = True


class ShardedKVCluster:
    """A quorum-replicated KV cluster over a consistent-hashing ring."""

    def __init__(
        self,
        node_names: list[str],
        n_replicas: int = 3,
        write_quorum: int = 2,
        read_quorum: int = 2,
    ) -> None:
        if not node_names:
            raise ConfigurationError("need at least one node")
        if n_replicas > len(node_names):
            raise ConfigurationError("n_replicas exceeds node count")
        if not 1 <= write_quorum <= n_replicas or not 1 <= read_quorum <= n_replicas:
            raise ConfigurationError("quorums must be within [1, n_replicas]")
        if write_quorum + read_quorum <= n_replicas:
            raise ConfigurationError(
                "need write_quorum + read_quorum > n_replicas for consistency"
            )
        self.n_replicas = n_replicas
        self.write_quorum = write_quorum
        self.read_quorum = read_quorum
        self.ring = ChordRing()
        self.nodes: dict[str, _Node] = {}
        for name in node_names:
            self.ring.join(name)
            self.nodes[name] = _Node(name, KVStore())
        self._clock = 0
        self.read_repairs = 0

    # -- membership / failures --------------------------------------------------

    def fail_node(self, name: str) -> None:
        self._node(name).alive = False

    def recover_node(self, name: str) -> None:
        self._node(name).alive = True

    def _node(self, name: str) -> _Node:
        node = self.nodes.get(name)
        if node is None:
            raise ConfigurationError(f"unknown node {name!r}")
        return node

    def replicas_of(self, key: str) -> list[str]:
        """The ``n_replicas`` distinct owners: successor walk on the ring."""
        return self.ring.successors(key, self.n_replicas)

    # -- operations ----------------------------------------------------------------

    def put(self, key: str, value: Any, writer: str = "client") -> int:
        """Write to the replica set; succeeds with ``write_quorum`` acks."""
        self._clock += 1
        version = self._clock
        record = {"value": value, "version": version, "writer": writer}
        acks = 0
        for name in self.replicas_of(key):
            node = self.nodes[name]
            if not node.alive:
                continue
            node.store.put(key, record)
            acks += 1
        if acks < self.write_quorum:
            raise StorageError(
                f"write quorum not met for {key!r}: {acks}/{self.write_quorum}"
            )
        return version

    def get(self, key: str) -> Versioned:
        """Read from ``read_quorum`` replicas; newest version wins.

        Stale live replicas seen during the read are repaired.
        """
        responses: list[tuple[str, dict | None]] = []
        for name in self.replicas_of(key):
            node = self.nodes[name]
            if not node.alive:
                continue
            responses.append((name, node.store.get_or(key)))  # type: ignore[arg-type]
            if len(responses) >= self.read_quorum:
                break
        if len(responses) < self.read_quorum:
            raise StorageError(f"read quorum not met for {key!r}")
        freshest: dict | None = None
        for _, record in responses:
            if record is not None and (
                freshest is None or record["version"] > freshest["version"]
            ):
                freshest = record
        if freshest is None:
            raise KeyNotFoundError(key)
        # Read repair: bring consulted stale replicas up to date.
        for name, record in responses:
            if record is None or record["version"] < freshest["version"]:
                self.nodes[name].store.put(key, freshest)
                self.read_repairs += 1
        return Versioned(
            value=freshest["value"],
            version=freshest["version"],
            writer=freshest["writer"],
        )

    # -- introspection ----------------------------------------------------------

    def alive_count(self) -> int:
        return sum(node.alive for node in self.nodes.values())

    def keys_per_node(self) -> dict[str, int]:
        return {name: len(node.store.keys()) for name, node in self.nodes.items()}

    def replica_versions(self, key: str) -> dict[str, int | None]:
        """Version held at each replica (None = missing), dead ones included."""
        out = {}
        for name in self.replicas_of(key):
            record = self.nodes[name].store.get_or(key)
            out[name] = record["version"] if record else None
        return out
