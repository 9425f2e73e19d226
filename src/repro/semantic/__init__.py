"""Semantic retrieval: language-based queries over the metaverse world.

Deterministic feature-hashed embeddings (:mod:`repro.semantic.embed`), a
from-scratch HNSW ANN index maintained per shard from the ingest path
(:mod:`repro.semantic.hnsw`, :mod:`repro.semantic.index`), and the query
modality that plugs it all into the modality-agnostic query plane
(:mod:`repro.semantic.modality`).  Importing this package registers the
modality — the one and only integration step; no deployment-layer
dispatch code knows semantic retrieval exists.
"""

from ..query.plane import register_modality
from .embed import (
    DEFAULT_DIM,
    embed_payload,
    embed_text,
    embed_tokens,
    payload_tokens,
    tokenize,
)
from .hnsw import HNSWIndex, brute_force_topk, normalize
from .index import (
    JITTER_SCALE,
    SemanticIndex,
    indexed_vector,
    tie_break_jitter,
)
from .modality import DEFAULT_K, SemanticModality, semantic_query

#: The registered modality instance (idempotent across re-imports).
SEMANTIC_MODALITY = register_modality(SemanticModality(), replace=True)

__all__ = [
    "DEFAULT_DIM",
    "DEFAULT_K",
    "HNSWIndex",
    "JITTER_SCALE",
    "SEMANTIC_MODALITY",
    "SemanticIndex",
    "SemanticModality",
    "brute_force_topk",
    "embed_payload",
    "embed_text",
    "embed_tokens",
    "indexed_vector",
    "normalize",
    "payload_tokens",
    "semantic_query",
    "tie_break_jitter",
    "tokenize",
]
