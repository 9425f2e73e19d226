"""Per-key heat estimation for hot-shard mitigation (paper Sec. IV).

Flash sales concentrate the deluge on a few keys (Sec. II "The
Marketplace"; Sec. IV-E's elasticity argument), so the cluster's
elasticity layer needs to know *which* keys are hot right now without
holding a counter per key.  :class:`HeatSketch` is a count-min sketch
with exponential decay:

* **count-min core** — :data:`DEPTH` rows of :data:`WIDTH` float cells;
  a key increments one cell per row (sha256-derived, deterministic
  across runs) and its estimate is the minimum over its cells.
  Collisions only ever *over*-estimate, so a key the sketch calls cold
  really is cold — the safe direction for a controller that salts hot
  keys.
* **exponential decay** — :meth:`decay` multiplies every cell by a
  factor, so the estimate tracks recent traffic rather than lifetime
  counts (the same recency argument as
  :meth:`repro.core.metrics.Histogram.window`).
* **candidate tracking** — the sketch alone cannot enumerate keys, so a
  bounded candidate dict remembers keys whose estimated *share* of total
  traffic crossed :data:`CANDIDATE_FRACTION` when observed;
  :meth:`hot_keys` reports the candidates currently above the caller's
  threshold, sorted hottest first (deterministically tie-broken by key).

Used by :class:`repro.cluster.elasticity.ElasticityController` to drive
key salting; generic enough for any skew detector.
"""

from __future__ import annotations

import hashlib

from ..core.errors import ConfigurationError


#: Sketch shape: ``DEPTH`` rows of ``WIDTH`` cells.
WIDTH = 512
DEPTH = 4
#: What :meth:`HeatSketch.decay` multiplies every cell by.
DECAY = 0.5
#: A key becomes a candidate once its estimated share of total traffic
#: reaches this fraction when it is observed.
CANDIDATE_FRACTION = 0.05
#: Candidates kept; the hottest survive a prune.
MAX_CANDIDATES = 64


def _cell_index(key: str, row: int) -> int:
    """Deterministic per-row cell index (independent hashes per row)."""
    digest = hashlib.sha256(f"{row}\x1f{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % WIDTH


class HeatSketch:
    """Count-min sketch with decay and heavy-hitter candidate tracking."""

    def __init__(self) -> None:
        self._rows = [[0.0] * WIDTH for _ in range(DEPTH)]
        self.total = 0.0
        # Insertion-ordered; pruned on decay and when over capacity.
        self._candidates: dict[str, None] = {}

    # -- observation --------------------------------------------------------

    def observe(self, key: str) -> None:
        """Record one access of ``key``."""
        for row in range(DEPTH):
            self._rows[row][_cell_index(key, row)] += 1.0
        self.total += 1.0
        if (
            key not in self._candidates
            and self.estimate(key) >= CANDIDATE_FRACTION * self.total
        ):
            self._candidates[key] = None
            if len(self._candidates) > MAX_CANDIDATES:
                self._prune_candidates()

    def decay(self) -> None:
        """Age the sketch: every cell (and the total) shrinks by the decay
        factor, so estimates track recent traffic.  Candidates whose share
        fell below half the candidate fraction are forgotten."""
        for row in self._rows:
            for i, value in enumerate(row):
                row[i] = value * DECAY
        self.total *= DECAY
        self._prune_candidates()

    def _prune_candidates(self) -> None:
        floor = 0.5 * CANDIDATE_FRACTION * self.total
        kept = {
            key: None
            for key in self._candidates
            if self.estimate(key) >= floor
        }
        if len(kept) > MAX_CANDIDATES:
            # Keep the hottest; deterministic tie-break by key.
            kept = {
                key: None
                for key in sorted(
                    kept, key=lambda key: (-self.estimate(key), key)
                )[:MAX_CANDIDATES]
            }
        self._candidates = kept

    # -- queries ------------------------------------------------------------

    def estimate(self, key: str) -> float:
        """Estimated (decayed) access count; never under the true count
        for an un-decayed sketch."""
        return min(
            self._rows[row][_cell_index(key, row)] for row in range(DEPTH)
        )

    def share(self, key: str) -> float:
        """Estimated fraction of total (decayed) traffic on ``key``."""
        return self.estimate(key) / self.total if self.total > 0 else 0.0

    def hot_keys(
        self, fraction: float, min_total: float = 0.0
    ) -> list[tuple[str, float]]:
        """Tracked keys whose traffic share is at least ``fraction``,
        hottest first (ties broken by key for determinism).  Empty until
        total traffic reaches ``min_total`` — a controller should not
        salt on a handful of samples."""
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError("fraction must be in (0, 1]")
        if self.total < min_total or self.total <= 0.0:
            return []
        hot = [
            (key, self.share(key))
            for key in self._candidates
            if self.share(key) >= fraction
        ]
        hot.sort(key=lambda item: (-item[1], item[0]))
        return hot
