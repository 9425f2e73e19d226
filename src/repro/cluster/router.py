"""Routing of entities onto platform shards (paper Sec. IV).

The paper's scale-out argument — "database sharding, workload
partitioning" — needs a stable key → shard mapping that (a) spreads load
evenly and (b) moves as few keys as possible when the shard set changes.
:class:`ShardRouter` is the cluster's :class:`~repro.placement.Placement`
(the vnode ring, its lookup memo and the replica walk all live there, as
do the balance and minimal-movement properties
``tests/test_cluster_ring.py`` holds every placement to); this module
adds only what is router-specific: the ``cluster.router.*`` metrics and
the hot-key salt map.
"""

from __future__ import annotations

from ..core.errors import ConfigurationError
from ..core.metrics import MetricsRegistry
from ..placement import Placement

#: Separator between a salted key's base and its salt-bucket index.
_SALT_SEP = "~s"


class ShardRouter(Placement):
    """The :class:`Placement` of entity/region keys onto named shards."""

    def __init__(
        self,
        shard_names: list[str] | None = None,
        vnodes: int = 64,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(vnodes=vnodes)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lookups = self.metrics.counter("cluster.router.lookups")
        # Hot-key salting (elasticity layer): base key → bucket count.
        # The router only keeps the map — splitting stock into buckets
        # and merging it back is the cluster's job (it owns the data
        # paths); routing a salted key's *buckets* goes through the
        # normal ring, so buckets land on distinct shards naturally.
        self._salted: dict[str, int] = {}
        for name in shard_names or []:
            self.add_shard(name)

    # -- membership and routing, counted ------------------------------------

    def add_shard(self, name: str) -> None:
        self.add(name)
        self.metrics.gauge("cluster.router.shards").set(len(self))

    def remove_shard(self, name: str) -> None:
        self.remove(name)
        self.metrics.gauge("cluster.router.shards").set(len(self))

    @property
    def shards(self) -> list[str]:
        """Shard names in registration order."""
        return self.names

    def owner_of(self, key: str) -> str:
        """The shard owning ``key``; every answered lookup is counted."""
        owner = Placement.owner_of(self, key)
        self._lookups.inc()
        return owner

    def owners(self, keys: list[str]) -> list[str]:
        """Each key's shard, one lookup counted per key."""
        owners = Placement.owners(self, keys)
        self._lookups.inc(len(owners))
        return owners

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
