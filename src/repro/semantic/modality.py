"""The semantic-retrieval query modality: the query plane's fourth tenant.

This module is the *entire* integration surface between semantic
retrieval and the deployment layers: :class:`SemanticModality` registers
itself in the plane's default registry (see :mod:`repro.semantic`) and
from then on ``platform.query``, ``cluster.query``, and ``geo.query``
dispatch it exactly like prefix/spatial — zero edits to any of their
code, which is the property the tentpole exists to prove.

Planning embeds the query text *once* (the text → vector step is
per-query work, not per-shard work); shard-local execution is a
:meth:`~repro.platform.platform.MetaversePlatform.semantic_search`
over that shard's HNSW graph; the merge is the
scatter-gather top-k fold ordered by ``(-score, key)``, identical no
matter how the corpus is sharded.
"""

from __future__ import annotations

from typing import Any

from ..core.errors import ConfigurationError
from ..query.plane import QueryModality, QueryPlan, QueryRequest
from .embed import embed_text

#: Default result width for semantic queries.
DEFAULT_K = 10


class SemanticModality(QueryModality):
    """Top-k semantic retrieval over per-shard HNSW indexes."""

    name = "semantic"

    def plan(self, request: QueryRequest) -> QueryPlan:
        """Validate, then embed the query text once, not once per shard.

        A text whose tokens all hash away plans to a ``None`` vector,
        which executes as an empty result set rather than a meaningless
        similarity ranking.
        """
        params = dict(request.params)
        params.setdefault("k", DEFAULT_K)
        if int(params["k"]) < 1:
            raise ConfigurationError("semantic queries need k >= 1")
        if not params.get("text"):
            raise ConfigurationError(
                "semantic queries need 'text' or there is nothing to embed"
            )
        params["vector"] = embed_text(str(params["text"]))
        return QueryPlan(request.modality, params)

    def execute(self, shard, plan: QueryPlan) -> list:
        vector = plan.params.get("vector")
        if vector is None:
            return []
        return shard.semantic_search(
            vector, int(plan.params["k"]), ef=plan.params.get("ef")
        )

    def merge(self, partials: list[list], plan: QueryPlan) -> list:
        """Fold per-shard top-k lists into the global top-k by (score, key)."""
        items = [item for partial in partials for item in partial]
        items.sort(key=lambda pair: (-pair[1], pair[0]))
        return items[: int(plan.params["k"])]


def semantic_query(
    text: str | None = None,
    *,
    k: int = DEFAULT_K,
    ef: int | None = None,
) -> QueryRequest:
    """A :class:`QueryRequest` for the semantic modality."""
    params: dict[str, Any] = {"k": k}
    if text is not None:
        params["text"] = text
    if ef is not None:
        params["ef"] = ef
    return QueryRequest("semantic", params)
