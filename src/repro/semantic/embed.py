"""Deterministic feature-hashed embeddings for text and scene payloads.

Language-based retrieval (ROADMAP item 1, grounded in "A Language-based
solution to enable Metaverse Retrieval") needs query and object vectors
that are *reproducible*: every benchmark claim in this repo derives from
seeded streams, so embeddings come from feature hashing — each token is
hashed with the repo-wide :func:`repro.net.overlay.stable_hash` onto one
of ``dim`` buckets with a deterministic ±1 sign, and the bucket counts
are L2-normalized.  Cosine similarity between two such vectors is then a
signed bag-of-words overlap: no model weights, no floating-point
nondeterminism, identical on every host and every run.

Objects embed from the *describable* parts of their payload only: string
fields and lists of strings (names, tags, room labels).  Numeric
telemetry (positions, stock, prices) contributes no tokens, so pure
telemetry records embed to ``None`` and stay out of the semantic index —
which also keeps the ingest hot path cheap for the numeric workloads
E27 measures.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from ..net.overlay import stable_hash

#: Default embedding width.  64 signed buckets keep hash collisions rare
#: for scene-scale vocabularies while a 20k-object corpus still fits in
#: ~10 MB of float64.
DEFAULT_DIM = 64

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lower-cased alphanumeric tokens, in order of appearance."""
    return _TOKEN_RE.findall(text.lower())


def payload_tokens(payload: dict) -> list[str]:
    """Tokens from a payload's describable fields, in sorted-field order.

    Strings and (nested) lists/tuples of strings contribute; numbers and
    everything else do not.  Field order is sorted so dict insertion
    order can never leak into the embedding.
    """
    tokens: list[str] = []
    for name in sorted(payload):
        value = payload[name]
        if isinstance(value, str):
            tokens.extend(tokenize(value))
        elif isinstance(value, (list, tuple)):
            for element in value:
                if isinstance(element, str):
                    tokens.extend(tokenize(element))
    return tokens


@lru_cache(maxsize=4096)
def _token_hash(token: str) -> int:
    """A token's feature hash, memoised: vocabularies are a few hundred
    words used thousands of times (``dim`` is applied after the cache)."""
    return stable_hash(f"embed:{token}")


def embed_tokens(tokens: list[str], dim: int = DEFAULT_DIM) -> np.ndarray | None:
    """L2-normalized signed bucket counts, or ``None`` with no tokens."""
    if not tokens:
        return None
    vector = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        h = _token_hash(token)
        # Low bits pick the bucket, an independent high bit the sign
        # (classic feature hashing keeps collisions unbiased in
        # expectation).
        vector[h % dim] += 1.0 if (h >> 16) & 1 else -1.0
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        # Colliding signs cancelled every bucket; treat as undescribable.
        return None
    return vector / norm


def embed_text(text: str, dim: int = DEFAULT_DIM) -> np.ndarray | None:
    """Embed a free-text query phrase."""
    return embed_tokens(tokenize(text), dim)


def embed_payload(payload: dict, dim: int = DEFAULT_DIM) -> np.ndarray | None:
    """Embed a stored object's payload (``None`` if nothing describable)."""
    return embed_tokens(payload_tokens(payload), dim)
