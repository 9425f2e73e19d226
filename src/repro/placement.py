"""Placement core: which of N named owners holds this key.

The paper's scale-out answer (Sec. IV-E, Fig. 7) takes one decision at
three levels — compute shards (:class:`~repro.cluster.router.ShardRouter`),
storage nodes (:class:`~repro.storage.engine.StorageTier`) and home
regions (:class:`~repro.geo.deployment.GeoDeployment`).  This module is
the single owner of its four parts:

* **the construction** — every owner joins a :class:`ChordRing` under
  ``vnodes`` virtual points (``name#i``), so ownership arcs stay balanced
  for small member sets and a join/leave moves only the keys whose arc it
  touched (``tests/test_cluster_ring.py`` holds every user to both);
* **the memo** — key → owner, capped, dropped wholesale on any
  membership change;
* **the replica walk** — :meth:`Placement.replica_holders`: the distinct
  clockwise successors on a second, bare-name ring;
* **the routing idioms** — :meth:`Placement.owners` (a key column's
  owners in one memo pass), :func:`group_by_owner` and
  :func:`route_by_owner` (split an ordered stream by owner, run each
  owner's subsequence, re-merge positionally).

How many vnodes, what an owner *is* (a platform, a node, a cluster) and
what rides on a lookup (the router's metrics and salt map, the geo
layer's home overrides) stay with the three users.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import is_
from typing import Callable, Iterable

from .core.errors import ConfigurationError
from .net.overlay import ChordRing

#: Separator between an owner's name and its virtual-node index on the ring.
_VNODE_SEP = "#"


def group_by_owner(owners: list, items: Iterable) -> dict:
    """Partition ``items`` by owner, ``owners[i]`` owning ``items[i]``:
    input order kept within each owner's list, owners in first-appearance
    order.  The owner column is the caller's (a router's
    :meth:`Placement.owners`, geo's ``home_of`` per item)."""
    out: dict = {}
    for owner, item in zip(owners, items):
        out.setdefault(owner, []).append(item)
    return out


def route_by_owner(
    owners: list[str],
    items: list,
    run: Callable[[str, list], Iterable],
    sorted_owners: bool = False,
) -> list:
    """Split ``items`` by owner (``owners[i]`` owns ``items[i]``),
    ``run(owner, subsequence)`` once per owner, and re-merge the results
    into input order.

    ``run`` must return one result per item of its subsequence, in order;
    each subsequence is order-preserved, so the positional merge is exact.
    Owners are visited in first-appearance order, or name order with
    ``sorted_owners`` — the visit order fixes the order of fault-injector
    draws and clock advances inside ``run``, so each caller keeps its own.
    The split (:func:`group_by_owner`) and the merge both walk the
    owner column.
    """
    groups = group_by_owner(owners, items)
    streams = {
        owner: iter(run(owner, groups[owner]))
        for owner in (sorted(groups) if sorted_owners else groups)
    }
    return [next(streams[owner]) for owner in owners]


class Placement:
    """Named owners on a vnode consistent-hash ring, with a lookup memo."""

    def __init__(self, names: Iterable[str] = (), vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ConfigurationError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._ring = ChordRing()
        # A second, bare-name ring (no vnodes) fixes the replica-placement
        # walk: each owner joins at exactly one point, so its ring
        # successors are n-1 *other* owners.
        self._name_ring = ChordRing()
        self._names: list[str] = []
        # key → owner memo.  A ring lookup is a sha256 + bisect per call
        # and the hot paths (batch routing, purchase routing, a tier
        # node's ``owns`` filter, per-key storage RPCs) ask about the
        # same keys every tick; the memo makes the steady state a dict
        # hit.  Any membership change invalidates it wholesale —
        # correctness over cleverness; the cap only bounds memory under
        # adversarial churn.
        self._owner_cache: dict[str, str] = {}
        self._owner_cache_cap = 1 << 20
        for name in names:
            self.add(name)

    # -- membership ---------------------------------------------------------

    def add(self, name: str) -> None:
        if _VNODE_SEP in name:
            raise ConfigurationError(
                f"name {name!r} may not contain {_VNODE_SEP!r}"
            )
        if name in self._names:
            raise ConfigurationError(f"duplicate name {name!r}")
        for i in range(self.vnodes):
            self._ring.join(f"{name}{_VNODE_SEP}{i}")
        self._name_ring.join(name)
        self._names.append(name)
        self._owner_cache.clear()

    def remove(self, name: str) -> None:
        if name not in self._names:
            raise ConfigurationError(f"unknown name {name!r}")
        for i in range(self.vnodes):
            self._ring.leave(f"{name}{_VNODE_SEP}{i}")
        self._name_ring.leave(name)
        self._names.remove(name)
        self._owner_cache.clear()

    @property
    def names(self) -> list[str]:
        """Owner names in registration order."""
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._names

    # -- lookups ------------------------------------------------------------

    def owner_of(self, key: str) -> str:
        """The owner of ``key`` (the vnode arc it hashes into); a
        :class:`ConfigurationError` from the empty ring while there are
        no owners (the memo is empty then, so every lookup reaches it)."""
        owner = self._owner_cache.get(key)
        if owner is None:
            if len(self._owner_cache) >= self._owner_cache_cap:
                self._owner_cache.clear()
            owner = self._ring.owner_of(key).split(_VNODE_SEP, 1)[0]
            self._owner_cache[key] = owner
        return owner

    def owners(self, keys: list[str]) -> list[str]:
        """``[owner_of(key) for key in keys]`` in one pass over the memo.

        Only the keys the memo misses go through :meth:`owner_of`, in
        column order, so the memo ends as the per-key loop leaves it.  A
        column whose misses could reach the memo's cap takes that loop
        itself, since a cap reached mid-column drops hits it has read."""
        cache = self._owner_cache
        owners = list(map(cache.get, keys))
        misses = owners.count(None)
        if misses:
            owner_of = Placement.owner_of
            if len(cache) + misses >= self._owner_cache_cap:
                return [owner_of(self, key) for key in keys]
            for i in compress(range(len(keys)), map(is_, owners, repeat(None))):
                owners[i] = owner_of(self, keys[i])
        return owners

    def replica_holders(self, name: str, n: int) -> list[str]:
        """The ``n`` distinct owners holding copies of ``name``'s state:
        ``name`` itself plus its clockwise successors on the bare-name
        ring (:meth:`~repro.net.overlay.ChordRing.successors`)."""
        if name not in self._names:
            raise ConfigurationError(f"unknown name {name!r}")
        return self._name_ring.successors(name, n)

    def group(self, items: Iterable, key: Callable | None = None) -> dict[str, list]:
        """:func:`group_by_owner` under this placement's :meth:`owner_of`,
        asked once for the whole key column (:meth:`owners`)."""
        items = list(items)
        keys = items if key is None else list(map(key, items))
        return group_by_owner(self.owners(keys), items)

    def load_of(self, keys: Iterable[str]) -> dict[str, int]:
        """Keys per owner for balance introspection (all owners listed)."""
        counts = {name: 0 for name in self._names}
        for key in keys:
            counts[self.owner_of(key)] += 1
        return counts
