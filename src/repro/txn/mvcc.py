"""Multi-version concurrency control with snapshot isolation.

The cloud layer of the disaggregated architecture (paper Fig. 7) runs
"transaction/query executors"; this module provides their concurrency
control.  Readers never block: each transaction reads the committed state
as of its begin timestamp.  Writers buffer locally and commit under
first-committer-wins — a concurrent committed write to the same key aborts
the later transaction with :class:`WriteConflictError`, giving snapshot
isolation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator

from ..core.errors import KeyNotFoundError, TransactionAborted, WriteConflictError
from ..core.metrics import MetricsRegistry
from ..obs.tracing import NoopTracer, Tracer

_DELETED = object()


@dataclass
class _Version:
    commit_ts: int
    value: Any  # _DELETED marks a deleted version


class MVStore:
    """Versioned key-value state shared by transactions."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self._versions: dict[str, list[_Version]] = {}
        self._commit_counter = itertools.count(1)
        self.last_commit_ts = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self._commits = self.metrics.counter("mvcc.commits")

    # -- version access -----------------------------------------------------

    def read_at(self, key: str, snapshot_ts: int) -> Any:
        """Latest committed value for ``key`` visible at ``snapshot_ts``."""
        for version in reversed(self._versions.get(key, [])):
            if version.commit_ts <= snapshot_ts:
                if version.value is _DELETED:
                    raise KeyNotFoundError(key)
                return version.value
        raise KeyNotFoundError(key)

    def latest_commit_of(self, key: str) -> int:
        """Commit timestamp of the newest version of ``key`` (0 if none)."""
        versions = self._versions.get(key)
        return versions[-1].commit_ts if versions else 0

    def scan_at(self, snapshot_ts: int) -> Iterator[tuple[str, Any]]:
        """All live (key, value) pairs at ``snapshot_ts``, sorted by key."""
        for key in sorted(self._versions):
            try:
                yield key, self.read_at(key, snapshot_ts)
            except KeyNotFoundError:
                continue

    # -- commit ------------------------------------------------------------

    def apply_commit(self, writes: dict[str, Any], deletes: set[str]) -> int:
        """Install a write set atomically; returns the new commit ts."""
        commit_ts = next(self._commit_counter)
        self.last_commit_ts = commit_ts
        for key, value in writes.items():
            self._versions.setdefault(key, []).append(_Version(commit_ts, value))
        for key in deletes:
            self._versions.setdefault(key, []).append(_Version(commit_ts, _DELETED))
        self._commits.inc()
        return commit_ts

    def vacuum(self, horizon_ts: int) -> int:
        """Drop versions unreadable by any snapshot >= ``horizon_ts``.

        For each key, every version except the newest one at-or-below the
        horizon can be discarded.  Returns the number of versions removed.
        """
        removed = 0
        for key, versions in list(self._versions.items()):
            keep_from = 0
            for idx, version in enumerate(versions):
                if version.commit_ts <= horizon_ts:
                    keep_from = idx
            kept = versions[keep_from:]
            # A sole deleted version below the horizon can vanish entirely.
            if len(kept) == 1 and kept[0].value is _DELETED and kept[0].commit_ts <= horizon_ts:
                removed += len(versions)
                del self._versions[key]
                continue
            removed += len(versions) - len(kept)
            self._versions[key] = kept
        return removed

    def version_count(self) -> int:
        return sum(len(v) for v in self._versions.values())


class Transaction:
    """A snapshot-isolation transaction over an :class:`MVStore`."""

    def __init__(self, store: MVStore, txn_id: int, snapshot_ts: int) -> None:
        self.store = store
        self.txn_id = txn_id
        self.snapshot_ts = snapshot_ts
        self.writes: dict[str, Any] = {}
        self.deletes: set[str] = set()
        self.read_keys: set[str] = set()
        self.status = "active"

    def _check_active(self) -> None:
        if self.status != "active":
            raise TransactionAborted(f"transaction {self.txn_id} is {self.status}")

    def read(self, key: str) -> Any:
        """Read ``key``: own writes first, then the snapshot."""
        self._check_active()
        self.read_keys.add(key)
        if key in self.writes:
            return self.writes[key]
        if key in self.deletes:
            raise KeyNotFoundError(key)
        return self.store.read_at(key, self.snapshot_ts)

    def read_or(self, key: str, default: Any = None) -> Any:
        try:
            return self.read(key)
        except KeyNotFoundError:
            return default

    def write(self, key: str, value: Any) -> None:
        self._check_active()
        self.deletes.discard(key)
        self.writes[key] = value

    def delete(self, key: str) -> None:
        self._check_active()
        self.writes.pop(key, None)
        self.deletes.add(key)

    @property
    def write_set(self) -> set[str]:
        return set(self.writes) | self.deletes


class TransactionManager:
    """Hands out transactions and enforces first-committer-wins at commit.

    ``metrics``/``tracer`` follow the repo-wide injection convention; when
    a store is constructed here they are passed through so that conflict
    counters land in the caller's registry instead of a private one.
    """

    def __init__(
        self,
        store: MVStore | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.store = store if store is not None else MVStore(metrics=metrics)
        self.metrics = metrics if metrics is not None else self.store.metrics
        self.tracer = tracer if tracer is not None else NoopTracer()
        self._txn_ids = itertools.count(1)
        self.aborts = 0
        self.commits = 0

    def begin(self) -> Transaction:
        return Transaction(
            self.store, next(self._txn_ids), self.store.last_commit_ts
        )

    def commit(self, txn: Transaction) -> int:
        """Commit ``txn``; raises :class:`WriteConflictError` on conflict."""
        with self.tracer.span("txn.commit"):
            if txn.status != "active":
                raise TransactionAborted(
                    f"transaction {txn.txn_id} is {txn.status}"
                )
            for key in txn.write_set:
                if self.store.latest_commit_of(key) > txn.snapshot_ts:
                    self.abort(txn)
                    self.store.metrics.counter("mvcc.conflicts").inc()
                    raise WriteConflictError(
                        f"txn {txn.txn_id}: key {key!r} modified since snapshot"
                    )
            commit_ts = self.store.apply_commit(txn.writes, txn.deletes)
            txn.status = "committed"
            self.commits += 1
            return commit_ts

    def abort(self, txn: Transaction) -> None:
        if txn.status == "active":
            txn.status = "aborted"
            self.aborts += 1
