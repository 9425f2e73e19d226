"""A from-scratch HNSW approximate-nearest-neighbour index.

Hierarchical Navigable Small World graphs (Malkov & Yashunin) built like
everything else in this repo: deterministic and instrumented.  The three
departures from a textbook implementation, and why:

* **Node levels derive from the key, not an RNG stream.**  A node's
  level is ``⌊-ln(u)·mL⌋`` with ``u`` uniform from
  :func:`repro.net.overlay.stable_hash` of the key, so there is no RNG
  state to thread through shards: the same ingest sequence builds the
  same graph on every host and every run, and a key keeps its level no
  matter which shard it lands on — which is what lets E31 pin identical
  top-k across 1-vs-4-shard builds (at search beams wide enough that
  link-order differences cannot change the returned keys).
* **Deletes are tombstones.**  A removed node keeps its links and stays
  traversable (dropping it could disconnect the graph) but is filtered
  from results; re-adding the key inserts a fresh node (unless its
  live vector is bitwise the one offered: a moving object rewritten
  with the same description costs nothing).  Ingest-path maintenance
  (``drop_entity``, payload updates) therefore never degrades
  reachability.
* **Distance work is counted.**  :attr:`HNSWIndex.distance_evals` is
  the number of node pairs the algorithm *consults* — each neighbour
  scored on a hop, and in neighbour selection one pair per link already
  chosen per examined candidate — however few numpy calls produce them;
  the benchmark's ≥5× speedup claim is over this simulated work metric
  (evaluations avoided vs brute force), which is host-independent, with
  wall-clock reported alongside.

Vectors are L2-normalized on insert so cosine similarity is a dot
product, and numpy is called per *decision*, not per distance: a beam
hop scores its unvisited neighbours in one gather + product; selection
scores each **chosen** link against all candidates in one product and
keeps a running nearest-chosen-link score per candidate.  A diversity
test within rounding noise of a tie is re-decided over exactly the
chosen rows, so the graph is bit-for-bit the per-candidate textbook
loop's (the oracle in ``tests/test_semantic.py``).  All orderings break
ties on node id (insertion order) or key, never on float identity alone.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..core.errors import ConfigurationError
from ..net.overlay import stable_hash

#: Two summation orders of one dot product of unit vectors differ by at
#: most ~2·dim·2⁻⁵³ (1e-14 at dim 64); scores closer than this are ties.
_TIE_BAND = 1e-9


def normalize(vector: np.ndarray) -> np.ndarray:
    """L2-normalize; rejects zero vectors (no direction to compare)."""
    arr = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ConfigurationError("cannot index/search a zero vector")
    return arr / norm


def brute_force_topk(
    keys: list[str], matrix: np.ndarray, vector: np.ndarray, k: int
) -> list[tuple[str, float]]:
    """Exact top-k by cosine score over normalized rows: the recall oracle.

    Scores every row (``len(keys)`` distance evaluations — the baseline
    the index's ``distance_evals`` speedup is measured against) and
    orders by ``(-score, key)``, the same total order the ANN paths use.
    """
    if not keys:
        return []
    scores = matrix @ normalize(vector)
    ranked = sorted(zip(keys, scores.tolist()), key=lambda pair: (-pair[1], pair[0]))
    return ranked[:k]


class HNSWIndex:
    """Deterministic HNSW over cosine similarity.

    ``m`` is the connectivity (max degree ``m`` per upper layer, ``2m``
    on layer 0), ``ef_construction``/``ef_search`` the candidate-beam
    widths for insert and query.  ``search`` returns ``(key, score)``
    pairs ordered by ``(-score, key)``.
    """

    def __init__(
        self,
        dim: int,
        m: int = 8,
        ef_construction: int = 64,
        ef_search: int = 48,
    ) -> None:
        if dim < 1:
            raise ConfigurationError("dim must be >= 1")
        if m < 2:
            raise ConfigurationError("m must be >= 2")
        if ef_construction < m or ef_search < 1:
            raise ConfigurationError(
                "ef_construction must be >= m and ef_search >= 1"
            )
        self.dim = dim
        self.m = m
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self._level_mult = 1.0 / math.log(m)
        # Node storage: id = insertion order.  The matrix over-allocates
        # (doubling) so per-hop scoring can fancy-index live rows.
        self._matrix = np.zeros((0, dim), dtype=np.float64)
        self._count = 0
        self._key_of: list[str] = []
        self._level_of: list[int] = []
        self._links: list[list[list[int]]] = []  # id → level → neighbour ids
        self._alive: list[bool] = []
        self._id_of: dict[str, int] = {}
        self._entry: int | None = None
        self._max_level = -1
        #: Cumulative consulted-pair count (the simulated work metric).
        self.distance_evals = 0

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._id_of)

    def __contains__(self, key: str) -> bool:
        return key in self._id_of

    def keys(self) -> list[str]:
        return sorted(self._id_of)

    @property
    def node_count(self) -> int:
        """Graph nodes including tombstones (storage actually held)."""
        return self._count

    def live_rows(self) -> tuple[list[str], np.ndarray]:
        """Live keys in sorted order and their stored vectors, row for key."""
        keys = self.keys()
        return keys, self._matrix.take([self._id_of[key] for key in keys], axis=0)

    # -- level assignment ---------------------------------------------------

    def level_for(self, key: str) -> int:
        """The key's graph level: exponential, derived from the key alone."""
        u = (stable_hash(f"hnsw:{key}") + 1) / float((1 << 32) + 1)
        return int(-math.log(u) * self._level_mult)

    # -- scoring ------------------------------------------------------------

    def _distances(self, ids: list[int], query: np.ndarray) -> np.ndarray:
        """Negated cosine scores of ``ids`` (lower = closer), counted."""
        self.distance_evals += len(ids)
        return -self._matrix.take(ids, axis=0).dot(query)

    # -- graph search -------------------------------------------------------

    def _greedy_descent(
        self, query: np.ndarray, entry: tuple[float, int], level: int
    ) -> tuple[float, int]:
        """ef=1 walk on one upper layer: hop to the best neighbour until
        no neighbour improves."""
        best_dist, best_id = entry
        improved = True
        while improved:
            improved = False
            neighbours = self._links[best_id][level]
            if not neighbours:
                break
            dists = self._distances(neighbours, query)
            pick = int(np.argmin(dists))  # first occurrence: id-order tie-break
            if dists[pick] < best_dist:
                best_dist, best_id = float(dists[pick]), neighbours[pick]
                improved = True
        return best_dist, best_id

    def _search_layer(
        self,
        query: np.ndarray,
        entries: list[tuple[float, int]],
        ef: int,
        level: int,
    ) -> list[tuple[float, int]]:
        """Beam search on one layer; returns ≤ ``ef`` (dist, id) ascending."""
        links, matrix = self._links, self._matrix
        push, pop, pushpop = heapq.heappush, heapq.heappop, heapq.heappushpop
        visited = {node for _, node in entries}
        candidates = list(entries)
        heapq.heapify(candidates)
        # Max-heap of the current best ef results, as (-dist, -id): when
        # the beam overflows on equal distances it must evict the LARGEST
        # id, because the final ranking breaks score ties toward smaller
        # keys (ids follow insertion order, which follows key order on
        # the seeded corpora) — evicting small ids first would throw away
        # exactly the tie members the exact oracle keeps.
        results = [(-dist, -node) for dist, node in entries]
        heapq.heapify(results)
        size, worst, evals = len(results), -results[0][0], 0
        while candidates:
            dist, node = pop(candidates)
            if size >= ef and dist > worst:
                break
            neighbours = [n for n in links[node][level] if n not in visited]
            if not neighbours:
                continue
            visited.update(neighbours)
            evals += len(neighbours)
            scores = matrix.take(neighbours, axis=0).dot(query).tolist()
            for score, n_id in zip(scores, neighbours):
                if size < ef:
                    push(results, (score, -n_id))
                    size += 1
                elif -score < worst:
                    pushpop(results, (score, -n_id))
                else:
                    continue
                push(candidates, (-score, n_id))
                worst = -results[0][0]
        self.distance_evals += evals
        return sorted((-neg, -node) for neg, node in results)

    # -- neighbour selection ------------------------------------------------

    def _select_neighbours(
        self, candidates: list[tuple[float, int]], cap: int
    ) -> list[int]:
        """Diversity-pruned selection (the paper's SELECT-NEIGHBORS-HEURISTIC).

        Taking the ``cap`` *closest* candidates fails on clustered data:
        every link lands inside the new node's own near-duplicate
        cluster and the graph loses the long-range edges beam search
        needs to hop between clusters.  So a candidate is kept only if
        it is closer to the new node than to every neighbour already
        chosen — each accepted link covers a distinct direction — and
        any remaining capacity is backfilled with the closest pruned
        candidates (keepPrunedConnections) so degree stays high.
        """
        matrix = self._matrix
        rows = matrix.take([node for _, node in candidates], axis=0)
        # Per candidate, its score against the nearest link chosen so far:
        # one product per *chosen* link keeps it current, so the diversity
        # test is one list read per candidate.
        closest = np.full(len(candidates), -math.inf)
        scores = closest.tolist()
        chosen: list[int] = []
        pruned: list[int] = []
        evals = 0
        for i, (dist, node) in enumerate(candidates):
            if len(chosen) >= cap:
                break
            evals += len(chosen)
            gap = -scores[i] - dist
            if -_TIE_BAND < gap < _TIE_BAND:
                # BLAS sums a row in an order that depends on where it
                # sits in the matrix, so inside rounding noise only a
                # product over exactly the chosen rows is the textbook's.
                gap = float(np.min(-(matrix[chosen] @ matrix[node]))) - dist
            if gap < 0.0:
                pruned.append(node)
            else:
                chosen.append(node)
                np.maximum(closest, rows.dot(rows[i]), out=closest)
                scores = closest.tolist()
        self.distance_evals += evals
        chosen.extend(pruned[: cap - len(chosen)])
        return chosen

    # -- mutation -----------------------------------------------------------

    def _append_node(self, key: str, vector: np.ndarray, level: int) -> int:
        if self._count == self._matrix.shape[0]:
            grown = np.zeros(
                (max(64, 2 * self._matrix.shape[0]), self.dim), dtype=np.float64
            )
            grown[: self._count] = self._matrix[: self._count]
            self._matrix = grown
        node = self._count
        self._matrix[node] = vector
        self._count += 1
        self._key_of.append(key)
        self._level_of.append(level)
        self._links.append([[] for _ in range(level + 1)])
        self._alive.append(True)
        self._id_of[key] = node
        return node

    def add(self, key: str, vector: np.ndarray) -> None:
        """Insert (or replace) ``key``; the replace is delete + fresh insert,
        except that re-adding the bitwise-same stored vector is a no-op."""
        query = normalize(vector)
        if query.shape != (self.dim,):
            raise ConfigurationError(
                f"vector has dim {query.shape}, index wants ({self.dim},)"
            )
        live = self._id_of.get(key)
        if live is not None:
            if np.array_equal(self._matrix[live], query):
                return
            self.remove(key)
        level = self.level_for(key)
        node = self._append_node(key, query, level)
        if self._entry is None:
            self._entry, self._max_level = node, level
            return
        entry_dist = float(self._distances([self._entry], query)[0])
        entry: tuple[float, int] = (entry_dist, self._entry)
        for layer in range(self._max_level, level, -1):
            entry = self._greedy_descent(query, entry, layer)
        for layer in range(min(level, self._max_level), -1, -1):
            found = self._search_layer(
                query, [entry], self.ef_construction, layer
            )
            cap = self.m if layer > 0 else 2 * self.m
            chosen = self._select_neighbours(found, self.m)
            self._links[node][layer] = chosen
            for neighbour in chosen:
                back = self._links[neighbour][layer]
                back.append(node)
                if len(back) > cap:
                    # Re-select the neighbour's links with the same
                    # diversity pruning (ranked ascending, id tie-break).
                    dists = self._distances(back, self._matrix[neighbour])
                    ranked = sorted(zip(dists.tolist(), back))
                    self._links[neighbour][layer] = self._select_neighbours(
                        ranked, cap
                    )
            entry = found[0]
        if level > self._max_level:
            self._entry, self._max_level = node, level

    def remove(self, key: str) -> None:
        """Tombstone ``key``: unreturnable, but still traversable."""
        node = self._id_of.pop(key, None)
        if node is None:
            raise ConfigurationError(f"key {key!r} not in index")
        self._alive[node] = False

    def discard(self, key: str) -> bool:
        """Tombstone ``key`` if present; True when something was removed."""
        if key in self._id_of:
            self.remove(key)
            return True
        return False

    # -- queries ------------------------------------------------------------

    def search(
        self, vector: np.ndarray, k: int, ef: int | None = None
    ) -> list[tuple[str, float]]:
        """Approximate top-k: ``(key, score)`` ordered by ``(-score, key)``."""
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        if self._entry is None or not self._id_of:
            return []
        query = normalize(vector)
        beam = max(ef if ef is not None else self.ef_search, k)
        entry_dist = float(self._distances([self._entry], query)[0])
        entry: tuple[float, int] = (entry_dist, self._entry)
        for layer in range(self._max_level, 0, -1):
            entry = self._greedy_descent(query, entry, layer)
        found = self._search_layer(query, [entry], beam, 0)
        out = [
            (self._key_of[node], -dist)
            for dist, node in found
            if self._alive[node]
        ]
        out.sort(key=lambda pair: (-pair[1], pair[0]))
        return out[:k]
