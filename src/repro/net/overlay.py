"""Peer-to-peer overlay for decentralized search (paper Sec. IV-E1).

The paper envisions "a publish/subscribe system over peer-to-peer networks
where each peer may be a highly parallel cluster".  This module supplies the
P2P substrate: a consistent-hashing ring with finger tables (Chord-style
greedy routing) and a balanced multi-way search tree overlay in the spirit
of BATON [45], both supporting key lookup with O(log n) hop counts.

These are *logical* overlays: routing is computed synchronously and hop
counts / per-hop latencies are reported so experiments can account network
cost, which is what the paper's scalability argument is about.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass

from ..core.errors import ConfigurationError


def stable_hash(key: str, bits: int = 32) -> int:
    """Deterministic hash of ``key`` into ``bits`` bits (stable across runs)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (1 << bits)


@dataclass
class LookupResult:
    """Result of an overlay lookup: owning peer and the route taken."""

    owner: str
    hops: int
    route: list[str]


class ChordRing:
    """Consistent-hashing ring with Chord-style finger routing.

    Peers own the arc ending at their id.  ``lookup`` routes greedily through
    each hop's finger table — the classic O(log n) hop bound — starting from
    any peer.
    """

    def __init__(self, bits: int = 32) -> None:
        if not 8 <= bits <= 64:
            raise ConfigurationError("ring bits must be in [8, 64]")
        self.bits = bits
        self.size = 1 << bits
        self._ids: list[int] = []          # sorted peer ids
        self._peers: dict[int, str] = {}   # id -> name

    # -- membership -------------------------------------------------------

    def join(self, peer: str) -> int:
        peer_id = stable_hash(peer, self.bits)
        while peer_id in self._peers:  # resolve (unlikely) collisions
            peer_id = (peer_id + 1) % self.size
        bisect.insort(self._ids, peer_id)
        self._peers[peer_id] = peer
        return peer_id

    def leave(self, peer: str) -> None:
        for peer_id, name in list(self._peers.items()):
            if name == peer:
                self._ids.remove(peer_id)
                del self._peers[peer_id]
                return
        raise ConfigurationError(f"peer {peer!r} not in ring")

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def peers(self) -> list[str]:
        return [self._peers[i] for i in self._ids]

    # -- routing ----------------------------------------------------------

    def successor(self, point: int) -> int:
        """The peer id owning ``point`` (first id >= point, wrapping)."""
        if not self._ids:
            raise ConfigurationError("ring is empty")
        idx = bisect.bisect_left(self._ids, point % self.size)
        if idx == len(self._ids):
            idx = 0
        return self._ids[idx]

    def owner_of(self, key: str) -> str:
        return self._peers[self.successor(stable_hash(key, self.bits))]

    def successors(self, key: str, n: int) -> list[str]:
        """The ``n`` distinct peers reached by walking clockwise from the
        owner of ``key`` — the replica-placement walk shared by
        :class:`~repro.storage.sharded.ShardedKVCluster` and
        :meth:`repro.placement.Placement.replica_holders` (on its
        bare-name ring).  Raises when the ring holds fewer than ``n``
        distinct peers.
        """
        if n < 1:
            raise ConfigurationError("need n >= 1 successors")
        distinct = set(self._peers.values())
        if n > len(distinct):
            raise ConfigurationError(
                f"ring has {len(distinct)} distinct peers, need {n}"
            )
        start = bisect.bisect_left(
            self._ids, self.successor(stable_hash(key, self.bits))
        )
        owners: list[str] = []
        idx = start
        while len(owners) < n:
            candidate = self._peers[self._ids[idx % len(self._ids)]]
            if candidate not in owners:
                owners.append(candidate)
            idx += 1
        return owners

    def _fingers(self, peer_id: int) -> list[int]:
        """Finger table of ``peer_id``: successor(peer_id + 2^k) for each k."""
        return [self.successor(peer_id + (1 << k)) for k in range(self.bits)]

    def lookup(self, key: str, start_peer: str | None = None) -> LookupResult:
        """Route to the owner of ``key`` from ``start_peer``, counting hops."""
        if not self._ids:
            raise ConfigurationError("ring is empty")
        target = self.successor(stable_hash(key, self.bits))
        if start_peer is None:
            current = self._ids[0]
        else:
            candidates = [i for i, n in self._peers.items() if n == start_peer]
            if not candidates:
                raise ConfigurationError(f"unknown start peer {start_peer!r}")
            current = candidates[0]
        route = [self._peers[current]]
        hops = 0
        while current != target:
            # Greedy: furthest finger that does not overshoot the target arc.
            best = self.successor(current + 1)
            for finger in self._fingers(current):
                if _in_arc(current, finger, target, self.size):
                    if _arc_len(current, finger, self.size) > _arc_len(current, best, self.size):
                        best = finger
            if best == current:  # safety: should not happen with >=1 peer
                break
            current = best
            route.append(self._peers[current])
            hops += 1
            if hops > 4 * self.bits:
                raise ConfigurationError("routing failed to converge")
        return LookupResult(owner=self._peers[target], hops=hops, route=route)


def _arc_len(start: int, end: int, size: int) -> int:
    return (end - start) % size


def _in_arc(start: int, point: int, end: int, size: int) -> bool:
    """True if ``point`` lies on the clockwise arc (start, end]."""
    return 0 < _arc_len(start, point, size) <= _arc_len(start, end, size)


class BatonTree:
    """Balanced multi-way tree overlay for range-capable P2P search [45].

    Peers hold contiguous key ranges at the leaves of an m-way search tree;
    lookups descend from the root, giving O(log_m n) hops, and range scans
    walk sibling leaves — the capability flat hashing lacks and the reason
    the paper cites tree overlays for search/discovery.
    """

    def __init__(self, fanout: int = 4) -> None:
        if fanout < 2:
            raise ConfigurationError("fanout must be >= 2")
        self.fanout = fanout
        self._peers: list[str] = []          # leaf order = key-range order
        self._boundaries: list[int] = []     # len(peers)-1 split points

    def build(self, peers: list[str], key_space: int = 1 << 32) -> None:
        """(Re)build the overlay over ``peers`` with even range split."""
        if not peers:
            raise ConfigurationError("need at least one peer")
        self._peers = list(peers)
        n = len(peers)
        self._boundaries = [key_space * (i + 1) // n for i in range(n - 1)]
        self.key_space = key_space

    def __len__(self) -> int:
        return len(self._peers)

    def owner_of(self, key: str) -> str:
        point = stable_hash(key) % self.key_space
        idx = bisect.bisect_right(self._boundaries, point)
        return self._peers[idx]

    def lookup(self, key: str) -> LookupResult:
        """Descend the implicit m-way tree; route records visited levels."""
        point = stable_hash(key) % self.key_space
        idx = bisect.bisect_right(self._boundaries, point)
        # Hop count is the tree depth to that leaf in an m-way tree.
        hops = 0
        span = len(self._peers)
        route: list[str] = []
        lo = 0
        while span > 1:
            hops += 1
            child_span = max(1, -(-span // self.fanout))  # ceil division
            child = min((idx - lo) // child_span, self.fanout - 1)
            lo = lo + child * child_span
            span = min(child_span, len(self._peers) - lo)
            route.append(self._peers[min(lo, len(self._peers) - 1)])
        return LookupResult(owner=self._peers[idx], hops=hops, route=route)

    def range_owners(self, lo_key: str, hi_key: str) -> list[str]:
        """Peers covering the hashed range [h(lo), h(hi)] (unwrapped)."""
        lo = stable_hash(lo_key) % self.key_space
        hi = stable_hash(hi_key) % self.key_space
        if lo > hi:
            lo, hi = hi, lo
        i = bisect.bisect_right(self._boundaries, lo)
        j = bisect.bisect_right(self._boundaries, hi)
        return self._peers[i : j + 1]
