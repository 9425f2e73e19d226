"""Stream cleaning for raw sensor observations (paper Sec. IV, [32], [46]).

Raw RFID and sensor streams are unreliable: missed reads, duplicates, and
outliers.  Cleaning runs *before* fusion:

* :class:`SmoothingFilter` — sliding-window presence smoothing in the SMURF
  mold: an entity is declared present in a zone if it was read there in at
  least ``min_support`` of the last ``window`` read cycles, bridging missed
  reads without hallucinating long-gone tags.
* :func:`deduplicate` — drop repeated (entity, attribute, value, cycle)
  observations.
* :class:`OutlierFilter` — reject numeric observations more than ``z_max``
  robust z-scores from the rolling median.
"""

from __future__ import annotations

from collections import defaultdict, deque

from ..core.errors import ConfigurationError
from .sources import Observation


def deduplicate(observations: list[Observation]) -> list[Observation]:
    """Remove exact duplicate claims (same entity/attribute/value/source/time)."""
    seen: set[tuple] = set()
    out = []
    for obs in observations:
        key = (obs.entity_id, obs.attribute, repr(obs.value), obs.source, obs.timestamp)
        if key in seen:
            continue
        seen.add(key)
        out.append(obs)
    return out


class SmoothingFilter:
    """SMURF-style temporal smoothing of RFID presence streams.

    Feed one batch of observations per read cycle via :meth:`add_cycle`;
    query :meth:`current_zone` for the smoothed location of an entity: the
    majority zone among that entity's reads in the last ``window`` cycles,
    provided it reaches ``min_support`` reads — otherwise None (unknown).
    """

    def __init__(self, window: int = 5, min_support: int = 2) -> None:
        if window < 1 or min_support < 1 or min_support > window:
            raise ConfigurationError("need 1 <= min_support <= window")
        self.window = window
        self.min_support = min_support
        self._history: dict[str, deque] = defaultdict(lambda: deque(maxlen=window))
        self._cycle = 0

    def add_cycle(self, observations: list[Observation]) -> None:
        """Record one read cycle's observations (location attribute only)."""
        self._cycle += 1
        zones_this_cycle: dict[str, list[str]] = defaultdict(list)
        for obs in observations:
            if obs.attribute == "location":
                zones_this_cycle[obs.entity_id].append(str(obs.value))
        for entity, history in self._history.items():
            if entity not in zones_this_cycle:
                history.append(None)
        for entity, zones in zones_this_cycle.items():
            # Majority zone within the cycle (duplicates collapse naturally).
            zone = max(set(zones), key=zones.count)
            self._history[entity].append(zone)

    def current_zone(self, entity_id: str) -> str | None:
        history = self._history.get(entity_id)
        if not history:
            return None
        counts: dict[str, int] = defaultdict(int)
        for zone in history:
            if zone is not None:
                counts[zone] += 1
        if not counts:
            return None
        best_zone, best_count = max(counts.items(), key=lambda kv: kv[1])
        return best_zone if best_count >= self.min_support else None


class OutlierFilter:
    """Rolling robust outlier rejection for numeric observation streams."""

    def __init__(self, window: int = 20, z_max: float = 4.0) -> None:
        if window < 3 or z_max <= 0:
            raise ConfigurationError("need window >= 3 and z_max > 0")
        self.window = window
        self.z_max = z_max
        self._values: dict[tuple[str, str], deque] = defaultdict(
            lambda: deque(maxlen=window)
        )
        self.rejected = 0

    def accept(self, obs: Observation) -> bool:
        """True if ``obs`` is consistent with its recent history."""
        if not isinstance(obs.value, (int, float)):
            return True
        key = (obs.entity_id, obs.attribute)
        history = self._values[key]
        value = float(obs.value)
        if len(history) >= 3:
            ordered = sorted(history)
            median = ordered[len(ordered) // 2]
            mad = sorted(abs(v - median) for v in ordered)[len(ordered) // 2]
            scale = max(mad * 1.4826, 1e-9)
            if abs(value - median) / scale > self.z_max:
                self.rejected += 1
                return False
        history.append(value)
        return True

    def filter(self, observations: list[Observation]) -> list[Observation]:
        return [obs for obs in observations if self.accept(obs)]
