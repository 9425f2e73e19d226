"""Per-shard semantic index: embeddings + HNSW, on the derived-state lifecycle.

:class:`SemanticIndex` is what a :class:`~repro.platform.platform.
MetaversePlatform` owns when built with ``semantic_index``: a
:class:`~repro.derived.DerivedState` like the position index, hydrated
from the node's owned scan by the first search, maintained by every
entity write and ``drop_entity``, and reset with the node's caches, so a
remap or a re-mount on a storage tier rebuilds it from the stored rows.
Records whose payloads carry nothing describable (pure numeric
telemetry) embed to ``None`` and are skipped; a record *updated* from
describable to numeric is evicted.

Stored vectors are the payload embedding plus a tiny deterministic
per-key **tie-breaking jitter** (:func:`tie_break_jitter`).  Bag-of-words
embeddings give distinct objects with the same description *identical*
vectors; exact-duplicate clusters are the one input graph-based ANN
handles badly (they collapse into distance-zero cliques that can trap or
exclude the search beam), and they make "the top-k" ill-defined — any
tie member is as right as another.  An ~1e-4 key-derived offset gives
every query a strict total score order that is a pure function of
``(key, payload)``: the same record scores bit-identically on any shard
of any deployment, which is what lets E31 pin identical top-k across
1-vs-4-shard builds.  The brute-force oracle (:meth:`SemanticIndex.
exact_search`) reads the same stored vectors, so recall is measured
against the same order.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..core.records import KEY_MAX
from ..derived import DerivedState, stored_payload
from .embed import DEFAULT_DIM, embed_payload
from .hnsw import HNSWIndex, brute_force_topk, normalize

#: Jitter magnitude per component: large enough to order ties strictly
#: (float64 resolves ~1e-16), small enough to never reorder genuinely
#: different similarity scores (token-overlap steps are >= ~1e-2).
JITTER_SCALE = 1e-4


def tie_break_jitter(key: str, dim: int) -> np.ndarray:
    """A key-derived offset in [-scale/2, +scale/2]^dim.

    Components come straight from counter-mode SHA-256 of the key, not a
    seeded RNG, so the bytes (and every artifact derived from them) are
    identical on every host, numpy version, and run.
    """
    out = np.empty(dim, dtype=np.float64)
    filled, block = 0, 0
    while filled < dim:
        digest = hashlib.sha256(f"jitter:{key}:{block}".encode()).digest()
        take = min(dim - filled, len(digest))
        out[filled:filled + take] = [
            byte / 255.0 - 0.5 for byte in digest[:take]
        ]
        filled += take
        block += 1
    return out * JITTER_SCALE


def indexed_vector(key: str, payload: dict) -> np.ndarray | None:
    """The exact vector the index stores for ``(key, payload)`` —
    embedding plus jitter, normalized — or ``None`` if undescribable.
    Benchmarks build their brute-force oracle matrices from this."""
    vector = embed_payload(payload, DEFAULT_DIM)
    if vector is None:
        return None
    return normalize(vector + tie_break_jitter(key, DEFAULT_DIM))


class SemanticIndex(DerivedState):
    """Embeds payloads and maintains the shard-local ANN graph, its ``data``.
    Exact: a search answers from the graph alone.

    Every vector, stored or queried, has :data:`DEFAULT_DIM` components,
    so an index and the queries planned against it cannot disagree; the
    graph runs on :class:`HNSWIndex`'s own defaults."""

    exact = True

    def __init__(self) -> None:
        super().__init__("", KEY_MAX, HNSWIndex(dim=DEFAULT_DIM))
        self._reset_evals = 0  # distance work of the graphs reset dropped

    @property
    def hnsw(self) -> HNSWIndex | None:  # None while unknown
        return self.data

    def __len__(self) -> int:
        return len(self.hnsw)

    def __contains__(self, key: str) -> bool:
        return key in self.hnsw

    @property
    def distance_evals(self) -> int:  # of every graph it built, across resets
        return self._reset_evals + (0 if self.data is None else self.data.distance_evals)

    def hydrate(self, rows: list) -> None:
        self.data = HNSWIndex(dim=DEFAULT_DIM)
        for key, value in rows:
            self.index_record(key, stored_payload(value))

    def on_write(self, items: list, payloads: list) -> None:
        if self.data is None:
            return  # unknown: writes pay nothing
        for (key, _), payload in zip(items, payloads):
            self.index_record(key, payload)

    def on_drop(self, key: str) -> None:
        if self.data is not None:
            self.data.discard(key)

    def reset(self) -> None:
        self._reset_evals = self.distance_evals
        self.data = None

    def index_record(self, key: str, payload: dict) -> bool:
        """(Re-)index one entity; True when it landed in the graph."""
        vector = indexed_vector(key, payload)
        if vector is None:
            self.hnsw.discard(key)
            return False
        self.hnsw.add(key, vector)
        return True

    def search(
        self, vector: np.ndarray, k: int, ef: int | None = None
    ) -> list[tuple[str, float]]:
        return self.hnsw.search(vector, k, ef=ef)

    def exact_search(self, vector: np.ndarray, k: int) -> list[tuple[str, float]]:
        """Brute-force oracle over the *live* indexed vectors (recall floor)."""
        keys, matrix = self.hnsw.live_rows()
        return brute_force_topk(keys, matrix, normalize(vector), k)
