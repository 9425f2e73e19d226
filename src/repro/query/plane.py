"""The modality-agnostic query plane: one dispatch path for every modality.

Every query modality used to be a hand-rolled vertical — ``scan_prefix``,
``query_spatial``, and continuous queries each re-implemented dispatch,
deadline handling, partial results, and merge logic in
:class:`~repro.platform.platform.MetaversePlatform`,
:class:`~repro.cluster.cluster.PlatformCluster`, and
:class:`~repro.geo.deployment.GeoDeployment`.  This module factors the
modality out of the deployment shape:

* a :class:`QueryRequest` names a modality and carries its parameters;
* the modality (a :class:`QueryModality` in a :class:`ModalityRegistry`)
  turns the request into a :class:`QueryPlan` once per query
  (:meth:`~QueryModality.plan`), runs the plan against one shard
  (:meth:`~QueryModality.execute`), and combines per-shard partial
  results order-deterministically (:meth:`~QueryModality.merge`);
* the deployment layers own *only* dispatch: each node answers a plan
  for the keys it serves
  (:meth:`~repro.platform.platform.MetaversePlatform.answer`), a single
  platform merges its own answer, the cluster scatter-gathers the
  answers across its ring under per-shard deadlines, and the geo
  deployment fans out per consistency mode.  None of them know which
  modalities exist — registering a new modality (see
  :mod:`repro.semantic`) requires zero edits to any dispatch code.

``merge`` receives the per-shard partial lists in deterministic ring
order and must itself be order-deterministic (every built-in sorts by an
explicit total order), so a query answers identically regardless of how
the corpus is sharded — the property E31 pins for the semantic modality
and the conformance suite pins for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Mapping

from ..api.dataplane import GatherResult
from ..core.errors import ConfigurationError
from ..core.records import KEY_MAX


@dataclass(frozen=True)
class QueryRequest:
    """One query as the caller states it: a modality name + parameters.

    ``params`` is treated as immutable; planning copies it into the
    :class:`QueryPlan` rather than mutating it in place.
    """

    modality: str
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class QueryPlan:
    """A planned query, ready to execute.

    Plans are shard-agnostic: the same plan object is handed to every
    shard's ``execute``, so per-query work (parameter validation, text
    embedding) happens exactly once at planning time.
    """

    modality: str
    params: Mapping[str, Any] = field(default_factory=dict)


class QueryModality:
    """One query modality: shard-local execution + deterministic merge.

    Subclasses set :attr:`name` and implement :meth:`execute` /
    :meth:`merge`; :meth:`plan` and :meth:`item_key` have useful
    defaults.  ``item_key`` is what keeps ownership filtering
    modality-agnostic: a node on a shared storage tier keeps the items of
    its own ring slice
    (:meth:`~repro.platform.platform.MetaversePlatform.answer`), and the
    geo layer restricts each region to its home keyspace, both by calling
    ``item_key`` instead of assuming the item shape.
    """

    #: Registry key; subclasses override.
    name = "abstract"

    def plan(self, request: QueryRequest) -> QueryPlan:
        """Validate the request and freeze it into a plan, once per query
        before any dispatch."""
        return QueryPlan(request.modality, dict(request.params))

    def execute(self, shard, plan: QueryPlan) -> list:
        """Run the plan against one shard; returns that shard's items."""
        raise NotImplementedError

    def merge(self, partials: list[list], plan: QueryPlan) -> list:
        """Combine per-shard partials (given in deterministic ring order)
        into the final item list.  Must be order-deterministic."""
        raise NotImplementedError

    def item_key(self, item) -> str:
        """The routing key of one result item (default: ``item[0]``)."""
        return item[0]


def _sorted_by_key(partials: list[list]) -> list:
    items = [item for partial in partials for item in partial]
    items.sort(key=itemgetter(0))
    return items


class PrefixScanModality(QueryModality):
    """Range query: every ``(key, stored_value)`` under a key prefix."""

    name = "prefix"

    def plan(self, request: QueryRequest) -> QueryPlan:
        params = dict(request.params)
        if not isinstance(params.get("prefix"), str):
            raise ConfigurationError("prefix queries need a string 'prefix'")
        return QueryPlan(request.modality, params)

    def execute(self, shard, plan: QueryPlan) -> list:
        prefix = plan.params["prefix"]
        return shard.scan(prefix, prefix + KEY_MAX)

    def merge(self, partials: list[list], plan: QueryPlan) -> list:
        return _sorted_by_key(partials)


class SpatialModality(QueryModality):
    """Entities whose payload position (``x``/``y``) lies in a ``BBox``."""

    name = "spatial"

    def plan(self, request: QueryRequest) -> QueryPlan:
        params = dict(request.params)
        region = params.get("region")
        if region is None or not hasattr(region, "x_min"):
            raise ConfigurationError("spatial queries need a BBox 'region'")
        return QueryPlan(request.modality, params)

    def execute(self, shard, plan: QueryPlan) -> list:
        return shard.spatial_items(plan.params["region"])

    def merge(self, partials: list[list], plan: QueryPlan) -> list:
        return _sorted_by_key(partials)


class ModalityRegistry:
    """Name → :class:`QueryModality` lookup shared by every executor."""

    def __init__(self) -> None:
        self._modalities: dict[str, QueryModality] = {}

    def register(
        self, modality: QueryModality, *, replace: bool = False
    ) -> QueryModality:
        if not replace and modality.name in self._modalities:
            raise ConfigurationError(
                f"query modality {modality.name!r} already registered"
            )
        self._modalities[modality.name] = modality
        return modality

    def get(self, name: str) -> QueryModality:
        try:
            return self._modalities[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown query modality {name!r}; registered: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._modalities)


#: Process-wide default registry.  Built-in modalities register here at
#: import; add-on packages (``repro.semantic``) register theirs the same
#: way, which is the *only* step a new modality needs — no dispatch edits.
DEFAULT_REGISTRY = ModalityRegistry()


def register_modality(
    modality: QueryModality, *, replace: bool = False
) -> QueryModality:
    """Register ``modality`` in the default registry."""
    return DEFAULT_REGISTRY.register(modality, replace=replace)


class QueryExecutor:
    """Binds the default modality registry to one deployment shape's
    dispatch.

    :meth:`resolve` is the shared planning front half (registry lookup →
    ``plan``); :meth:`run_single` is the whole back half for a
    single-shard deployment: the shard's one answer
    (:meth:`~repro.platform.platform.MetaversePlatform.answer`), merged.
    Multi-shard deployments call :meth:`resolve`, scatter ``answer``
    and merge themselves.
    """

    def resolve(self, request: QueryRequest) -> tuple[QueryModality, QueryPlan]:
        modality = DEFAULT_REGISTRY.get(request.modality)
        return modality, modality.plan(request)

    def run_single(self, shard, request: QueryRequest) -> GatherResult:
        modality, plan = self.resolve(request)
        items = modality.merge([shard.answer(modality, plan)], plan)
        return GatherResult(items=items)


def prefix_query(prefix: str) -> QueryRequest:
    """A :class:`QueryRequest` for the built-in prefix-scan modality."""
    return QueryRequest("prefix", {"prefix": prefix})


def spatial_query(region) -> QueryRequest:
    """A :class:`QueryRequest` for the built-in spatial modality."""
    return QueryRequest("spatial", {"region": region})


register_modality(PrefixScanModality())
register_modality(SpatialModality())
