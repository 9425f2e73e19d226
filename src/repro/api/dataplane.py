"""The :class:`DataPlane` protocol: one surface for every deployment shape.

The protocol is *structural* (:func:`typing.runtime_checkable`): neither
implementation imports this module to conform, and the conformance suite
(``tests/test_api_dataplane.py``) runs the same driver against both a
single platform node and a sharded cluster, asserting identical observable
results.  :class:`GatherResult` lives here because it is the protocol's
query return type; :mod:`repro.cluster` re-exports it for compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from ..core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.columns import RecordBatch
    from ..core.metrics import Counter
    from ..core.records import DataRecord, PurchaseRequest
    from ..platform.platform import PurchaseOutcome
    from ..query.plane import QueryModality, QueryPlan, QueryRequest
    from ..spatial.geometry import BBox


@dataclass
class GatherResult:
    """Outcome of one query fan-out (single node: never partial)."""

    items: list
    failed_shards: tuple[str, ...] = ()

    @property
    def partial(self) -> bool:
        return bool(self.failed_shards)


@dataclass
class ContinuousQuery:
    """One standing query, planned once at registration, and its latest
    results.

    ``modality`` and ``plan`` are what planning the registered request
    (any modality) gave; every refresh reuses them.  A standing prefix
    query is answered from each shard's view of it
    (:meth:`~repro.platform.platform.MetaversePlatform.standing_items`);
    any other modality is re-evaluated at each refresh.
    """

    query_id: str
    modality: "QueryModality"
    plan: "QueryPlan"
    results: GatherResult | None = field(default=None)


class ContinuousQueries:
    """The standing queries of one data plane, keyed by query id.

    Both planes own one and differ only in what they pass to
    :meth:`register` (their executor's ``resolve``) and :meth:`refresh`
    (how they answer one standing query, and their own evaluations
    counter, bound once).
    """

    def __init__(self) -> None:
        self._queries: dict[str, ContinuousQuery] = {}

    def register(
        self,
        query_id: str,
        request: "QueryRequest",
        resolve: "Callable[[QueryRequest], tuple[QueryModality, QueryPlan]]",
    ) -> None:
        """Plan ``request`` with ``resolve`` and keep it under
        ``query_id``.  A request that does not plan (an unknown modality,
        a malformed parameter) raises :class:`ConfigurationError` here
        and is not kept."""
        if query_id in self._queries:
            raise ConfigurationError(f"duplicate continuous query {query_id!r}")
        modality, plan = resolve(request)
        self._queries[query_id] = ContinuousQuery(query_id, modality, plan)

    def results(self, query_id: str) -> GatherResult | None:
        return self._queries[query_id].results

    def refresh(
        self,
        answer: "Callable[[ContinuousQuery], GatherResult]",
        evaluations: "Counter",
    ) -> dict[str, GatherResult]:
        """Answer every standing query with ``answer``, counting each
        in ``evaluations``; returns the fresh results."""
        results: dict[str, GatherResult] = {}
        for query in self._queries.values():
            query.results = answer(query)
            evaluations.inc()
            results[query.query_id] = query.results
        return results


@runtime_checkable
class DataPlane(Protocol):
    """What a metaverse data plane does, independent of deployment shape.

    Implemented by :class:`~repro.platform.platform.MetaversePlatform`
    (one node) and :class:`~repro.cluster.cluster.PlatformCluster`
    (N shards).  Contract highlights the conformance suite holds both to:

    * :meth:`ingest`/:meth:`ingest_many`/:meth:`ingest_batch` buffer;
      nothing is visible to queries until :meth:`flush` (or :meth:`tick`);
    * :meth:`flush` returns the number of records written;
    * buffered units land in arrival order, whichever ingest call
      queued them: the later of two buffered writes to one key is the
      one a read returns.  A unit is a run of records (a list) or a
      columnar batch, each written by one ``write_record_batch`` call.
      A cluster shard's queue joins consecutive records into one run;
      a single node queues each record as a run of one, so its flush
      pays one storage round trip per record (E27's per-record
      baseline);
    * a failed flush keeps unwritten units queued: when a write raises,
      the unit it was writing and everything behind it stay buffered
      (``pending_count`` counts them) and a later :meth:`flush` lands
      them;
    * :meth:`query` runs any registered query-plane modality
      (:mod:`repro.query.plane`) and returns a :class:`GatherResult`;
      :meth:`scan_prefix`/:meth:`query_spatial` are thin wrappers over
      it whose items are ``(key, stored_value)`` pairs sorted by key;
    * :meth:`tick` advances simulated time, flushes, and refreshes
      every registered continuous query, returning fresh results: a
      standing prefix query answers from per-shard views, any other
      modality is re-evaluated;
    * :meth:`process_purchases` decides an identically-ordered request
      stream identically on every implementation (E24/E26/E27 assert
      byte-identical outcomes across shapes and ingest paths).
    """

    # -- ingest ------------------------------------------------------------

    def ingest(self, record: "DataRecord") -> None: ...

    def ingest_many(self, records: "list[DataRecord]") -> None: ...

    def ingest_batch(self, batch: "RecordBatch") -> None: ...

    def flush(self) -> int: ...

    def tick(self, dt: float) -> "dict[str, GatherResult]": ...

    # -- queries -----------------------------------------------------------

    def query(self, request: "QueryRequest") -> GatherResult: ...

    def scan_prefix(self, prefix: str) -> GatherResult: ...

    def query_spatial(self, region: "BBox") -> GatherResult: ...

    def register_continuous(self, query_id: str, prefix: str) -> None: ...

    def continuous_results(self, query_id: str) -> "GatherResult | None": ...

    # -- marketplace -------------------------------------------------------

    def load_catalog(self, records: "list[DataRecord]") -> None:
        """Install each record's payload as its product: one bulk import
        (one MVCC commit) per owner, a single platform being one owner; a
        replicated cluster logs one record per owner."""

    def process_purchases(
        self, requests: "list[PurchaseRequest]"
    ) -> "list[PurchaseOutcome]": ...

    def get_stock(self, product_id: str) -> int: ...
