"""Consistent-hash routing of entities onto platform shards (paper Sec. IV).

The paper's scale-out argument — "database sharding, workload
partitioning" — needs a stable key → shard mapping that (a) spreads load
evenly and (b) moves as few keys as possible when the shard set changes.
:class:`ShardRouter` provides both by reusing the :class:`ChordRing` from
the P2P overlay (the same ring :class:`~repro.storage.sharded.ShardedKVCluster`
shards over), with each shard joining under ``vnodes`` virtual points so
ownership arcs stay balanced even for small clusters.

Properties the test tier holds the router to (``tests/test_cluster_ring.py``):

* **balance** — over random key sets, the most loaded shard stays within a
  small constant factor of the ideal ``keys / shards``;
* **minimal movement** — when a shard joins, the only keys that change
  owner are those the new shard now owns; when a shard leaves, the only
  keys that change owner are those the departed shard used to own.
"""

from __future__ import annotations

from ..core.errors import ConfigurationError
from ..core.metrics import MetricsRegistry
from ..net.overlay import ChordRing

#: Separator between a shard name and its virtual-node index on the ring.
_VNODE_SEP = "#"

#: Separator between a salted key's base and its salt-bucket index.
_SALT_SEP = "~s"


class ShardRouter:
    """Maps entity/region keys onto named shards via a vnode hash ring."""

    def __init__(
        self,
        shard_names: list[str] | None = None,
        vnodes: int = 64,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if vnodes < 1:
            raise ConfigurationError("vnodes must be >= 1")
        self.vnodes = vnodes
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ring = ChordRing()
        # A second, bare-name ring (no vnodes) fixes the replica-placement
        # walk: each shard joins at exactly one point, so its ring
        # successors are n-1 *other* shards — the holder set the failover
        # layer replicates each shard's op log to.
        self.replica_ring = ChordRing()
        self._shards: list[str] = []
        # key → owner memo.  A ring lookup is a sha256 + bisect per call
        # and the hot paths (batch routing, purchase routing, owned-slice
        # filters) ask about the same keys every tick; the memo makes the
        # steady state a dict hit.  Any membership change invalidates it
        # wholesale — correctness over cleverness.
        self._owner_cache: dict[str, str] = {}
        self._owner_cache_cap = 1 << 20
        # Hot-key salting (elasticity layer): base key → bucket count.
        # The router only keeps the map — splitting stock into buckets
        # and merging it back is the cluster's job (it owns the data
        # paths); routing a salted key's *buckets* goes through the
        # normal ring, so buckets land on distinct shards naturally.
        self._salted: dict[str, int] = {}
        for name in shard_names or []:
            self.add_shard(name)

    # -- membership ---------------------------------------------------------

    def add_shard(self, name: str) -> None:
        if _VNODE_SEP in name:
            raise ConfigurationError(
                f"shard name {name!r} may not contain {_VNODE_SEP!r}"
            )
        if name in self._shards:
            raise ConfigurationError(f"duplicate shard {name!r}")
        for i in range(self.vnodes):
            self.ring.join(f"{name}{_VNODE_SEP}{i}")
        self.replica_ring.join(name)
        self._shards.append(name)
        self._owner_cache.clear()
        self.metrics.gauge("cluster.router.shards").set(len(self._shards))

    def remove_shard(self, name: str) -> None:
        if name not in self._shards:
            raise ConfigurationError(f"unknown shard {name!r}")
        for i in range(self.vnodes):
            self.ring.leave(f"{name}{_VNODE_SEP}{i}")
        self.replica_ring.leave(name)
        self._shards.remove(name)
        self._owner_cache.clear()
        self.metrics.gauge("cluster.router.shards").set(len(self._shards))

    @property
    def shards(self) -> list[str]:
        """Shard names in registration order."""
        return list(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, name: str) -> bool:
        return name in self._shards

    # -- routing ------------------------------------------------------------

    def owner_of(self, key: str) -> str:
        """The shard owning ``key`` (the vnode arc it hashes into)."""
        if not self._shards:
            raise ConfigurationError("router has no shards")
        self.metrics.counter("cluster.router.lookups").inc()
        owner = self._owner_cache.get(key)
        if owner is None:
            if len(self._owner_cache) >= self._owner_cache_cap:
                self._owner_cache.clear()
            owner = self.ring.owner_of(key).split(_VNODE_SEP, 1)[0]
            self._owner_cache[key] = owner
        return owner

    def replica_holders(self, name: str, n: int) -> list[str]:
        """The ``n`` distinct shards holding copies of ``name``'s op log:
        the shard itself plus its clockwise successors on the bare-name
        ring (:meth:`~repro.net.overlay.ChordRing.successors`)."""
        if name not in self._shards:
            raise ConfigurationError(f"unknown shard {name!r}")
        return self.replica_ring.successors(name, n)

    def group_by_shard(self, keys: list[str]) -> dict[str, list[str]]:
        """Partition ``keys`` by owning shard (input order preserved)."""
        out: dict[str, list[str]] = {}
        for key in keys:
            out.setdefault(self.owner_of(key), []).append(key)
        return out

    # -- hot-key salting ----------------------------------------------------

    def salt_key(self, key: str, n_buckets: int) -> list[str]:
        """Register ``key`` as salted across ``n_buckets`` buckets.

        Bucket 0 is the base key itself (so unsalted readers still find
        *a* record); buckets 1..n-1 are ``<key>~s<i>``, which hash to
        their own ring positions and therefore spread across shards.
        Returns the bucket key list.
        """
        if n_buckets < 2:
            raise ConfigurationError("salting needs at least 2 buckets")
        if key in self._salted:
            raise ConfigurationError(f"key {key!r} is already salted")
        if _SALT_SEP in key:
            raise ConfigurationError(
                f"key {key!r} may not contain {_SALT_SEP!r} (reserved for "
                "salt buckets; nested salting is not supported)"
            )
        self._salted[key] = n_buckets
        self.metrics.gauge("cluster.router.salted_keys").set(
            float(len(self._salted))
        )
        return self.buckets_of(key)

    def unsalt_key(self, key: str) -> None:
        """Forget ``key``'s salt map entry (the cluster merges its stock)."""
        if key not in self._salted:
            raise ConfigurationError(f"key {key!r} is not salted")
        del self._salted[key]
        self.metrics.gauge("cluster.router.salted_keys").set(
            float(len(self._salted))
        )

    def is_salted(self, key: str) -> bool:
        return key in self._salted

    def salted_keys(self) -> list[str]:
        """Currently salted base keys, in registration order."""
        return list(self._salted)

    def buckets_of(self, key: str) -> list[str]:
        """The bucket keys a salted ``key`` is split across (bucket 0 is
        the base key itself); ``[key]`` when the key is not salted."""
        n = self._salted.get(key)
        if n is None:
            return [key]
        return [key] + [f"{key}{_SALT_SEP}{i}" for i in range(1, n)]

    @staticmethod
    def base_key(key: str) -> str:
        """Strip a salt-bucket suffix: ``product~s2`` → ``product``.
        Keys without a well-formed suffix pass through unchanged."""
        base, sep, tail = key.rpartition(_SALT_SEP)
        if sep and tail.isdigit():
            return base
        return key

    def load_of(self, keys: list[str]) -> dict[str, int]:
        """Keys per shard for balance introspection (all shards listed)."""
        counts = {name: 0 for name in self._shards}
        for key in keys:
            counts[self.owner_of(key)] += 1
        return counts
