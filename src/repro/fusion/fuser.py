"""Truth inference over conflicting multi-source claims (paper Sec. IV-A).

"Fusion of information on a single entity requires a substantial amount of
inference over semantics that are extracted from multiple data sources."

Given cleaned observations, :class:`TruthFusion` resolves, per
(entity, attribute), a single fused value:

* categorical attributes — confidence-weighted voting with iterative source
  trustworthiness re-estimation (a TruthFinder-style EM loop: sources that
  agree with the consensus gain weight, so a systematically wrong source is
  discounted even if prolific);
* numeric attributes — trust-weighted mean with the same re-estimation,
  using agreement within a tolerance band.

Baselines for experiment E13: :func:`majority_vote` (unweighted) and
:func:`single_source` (best single source).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.errors import ConfigurationError, FusionError
from ..obs.profiling import timed
from .sources import Observation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .batch import ObservationBatch


@dataclass(slots=True)
class FusedValue:
    """The fused estimate for one (entity, attribute)."""

    entity_id: str
    attribute: str
    value: Any
    support: float        # total trust mass behind the winning value
    contributors: int     # observations that agreed


def _is_numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class TruthFusion:
    """Iterative trust-weighted fusion engine."""

    def __init__(
        self,
        iterations: int = 5,
        numeric_tolerance: float = 1.0,
        initial_trust: float = 0.8,
    ) -> None:
        if iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if numeric_tolerance < 0:
            raise ConfigurationError("numeric_tolerance must be >= 0")
        self.iterations = iterations
        self.numeric_tolerance = numeric_tolerance
        self.initial_trust = initial_trust
        self.source_trust: dict[str, float] = {}

    # -- public API -----------------------------------------------------------

    @timed("fusion.fuse")
    def fuse(self, observations: list[Observation]) -> dict[tuple[str, str], FusedValue]:
        """Fuse all observations; returns {(entity, attribute): FusedValue}."""
        if not observations:
            return {}
        groups: dict[tuple[str, str], list[Observation]] = defaultdict(list)
        sources = set()
        for obs in observations:
            groups[(obs.entity_id, obs.attribute)].append(obs)
            sources.add(obs.source)
        trust = {s: self.initial_trust for s in sources}
        fused: dict[tuple[str, str], FusedValue] = {}
        for _ in range(self.iterations):
            fused = {
                key: self._fuse_group(key, group, trust)
                for key, group in groups.items()
            }
            trust = self._reestimate_trust(groups, fused, trust)
        self.source_trust = trust
        return fused

    @timed("fusion.fuse_batch")
    def fuse_batch(
        self, batch: "ObservationBatch"
    ) -> dict[tuple[str, str], FusedValue]:
        """Vectorized :meth:`fuse` over a columnar numeric batch.

        Runs the same EM loop with numpy kernels: per-observation weights
        in one multiply, per-group sums via ``np.bincount`` (which adds
        each group's terms in arrival order, exactly like the Python
        accumulator), agreement counting as one comparison, and trust
        re-estimation as two bincounts.  Returns *equal*
        :class:`FusedValue` objects to ``fuse(batch.to_observations())``
        — same floats, not merely close ones — so callers can mix paths.
        """
        if len(batch) == 0:
            return {}
        group_codes, group_keys = batch.group_codes()
        source_codes, source_names = batch.source_codes()
        n_groups = len(group_keys)
        n_sources = len(source_names)
        values = batch.values
        confidences = batch.confidences
        trust = np.full(n_sources, self.initial_trust, dtype=np.float64)
        total = np.bincount(source_codes, minlength=n_sources).astype(
            np.float64
        )
        fused_values = np.zeros(n_groups)
        weight_sums = np.zeros(n_groups)
        for _ in range(self.iterations):
            weights = trust[source_codes] * confidences
            weight_sums = np.bincount(
                group_codes, weights=weights, minlength=n_groups
            )
            value_sums = np.bincount(
                group_codes, weights=weights * values, minlength=n_groups
            )
            fused_values = value_sums / np.maximum(weight_sums, 1e-12)
            agrees = (
                np.abs(values - fused_values[group_codes])
                <= self.numeric_tolerance
            )
            agree = np.bincount(
                source_codes, weights=agrees.astype(np.float64),
                minlength=n_sources,
            )
            # Same Laplace-smoothed agreement rate as _reestimate_trust;
            # every source in the batch has total >= 1 by construction.
            trust = np.maximum(0.05, (agree + 1.0) / (total + 2.0))
        contributors = np.bincount(
            group_codes,
            weights=(
                np.abs(values - fused_values[group_codes])
                <= self.numeric_tolerance
            ).astype(np.float64),
            minlength=n_groups,
        )
        self.source_trust = {
            name: float(trust[i]) for i, name in enumerate(source_names)
        }
        fused_list = fused_values.tolist()
        support_list = weight_sums.tolist()
        contributor_list = contributors.tolist()
        return {
            key: FusedValue(
                key[0], key[1], fused_list[g], support_list[g],
                int(contributor_list[g]),
            )
            for g, key in enumerate(group_keys)
        }

    def fuse_one(self, observations: list[Observation]) -> FusedValue:
        """Fuse observations that all concern one (entity, attribute)."""
        fused = self.fuse(observations)
        if len(fused) != 1:
            raise FusionError(
                f"expected one (entity, attribute) group, got {len(fused)}"
            )
        return next(iter(fused.values()))

    # -- internals ---------------------------------------------------------------

    def _fuse_group(
        self,
        key: tuple[str, str],
        group: list[Observation],
        trust: dict[str, float],
    ) -> FusedValue:
        entity_id, attribute = key
        if all(_is_numeric(obs.value) for obs in group):
            weight_sum = 0.0
            value_sum = 0.0
            for obs in group:
                weight = trust[obs.source] * obs.confidence
                weight_sum += weight
                value_sum += weight * float(obs.value)
            value = value_sum / max(weight_sum, 1e-12)
            agreeing = sum(
                1
                for obs in group
                if abs(float(obs.value) - value) <= self.numeric_tolerance
            )
            return FusedValue(entity_id, attribute, value, weight_sum, agreeing)
        votes: dict[Any, float] = defaultdict(float)
        counts: dict[Any, int] = defaultdict(int)
        for obs in group:
            votes[obs.value] += trust[obs.source] * obs.confidence
            counts[obs.value] += 1
        winner = max(votes.items(), key=lambda kv: kv[1])
        return FusedValue(entity_id, attribute, winner[0], winner[1], counts[winner[0]])

    def _reestimate_trust(
        self,
        groups: dict[tuple[str, str], list[Observation]],
        fused: dict[tuple[str, str], FusedValue],
        trust: dict[str, float],
    ) -> dict[str, float]:
        agree: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for key, group in groups.items():
            consensus = fused[key].value
            for obs in group:
                total[obs.source] += 1.0
                if _is_numeric(obs.value) and _is_numeric(consensus):
                    if abs(float(obs.value) - float(consensus)) <= self.numeric_tolerance:
                        agree[obs.source] += 1.0
                elif obs.value == consensus:
                    agree[obs.source] += 1.0
        new_trust = {}
        for source in trust:
            if total[source] == 0:
                new_trust[source] = trust[source]
            else:
                # Laplace-smoothed agreement rate, floored to keep every
                # source minimally audible.
                rate = (agree[source] + 1.0) / (total[source] + 2.0)
                new_trust[source] = max(0.05, rate)
        return new_trust


def majority_vote(observations: list[Observation]) -> dict[tuple[str, str], Any]:
    """Baseline: unweighted plurality per (entity, attribute)."""
    groups: dict[tuple[str, str], list[Any]] = defaultdict(list)
    for obs in observations:
        groups[(obs.entity_id, obs.attribute)].append(obs.value)
    out = {}
    for key, values in groups.items():
        if all(_is_numeric(v) for v in values):
            out[key] = sum(float(v) for v in values) / len(values)
        else:
            out[key] = max(set(values), key=values.count)
    return out


def single_source(
    observations: list[Observation], source: str
) -> dict[tuple[str, str], Any]:
    """Baseline: believe one source only (its last claim per entity/attr)."""
    out: dict[tuple[str, str], Any] = {}
    for obs in sorted(
        (o for o in observations if o.source == source), key=lambda o: o.timestamp
    ):
        out[(obs.entity_id, obs.attribute)] = obs.value
    return out


def accuracy_against_truth(
    fused: dict[tuple[str, str], Any],
    truth: dict[str, Any],
    attribute: str,
    numeric_tolerance: float = 1.0,
) -> float:
    """Fraction of entities whose fused ``attribute`` matches ground truth."""
    if not truth:
        raise FusionError("empty ground truth")
    correct = 0
    for entity, true_value in truth.items():
        value = fused.get((entity, attribute))
        if isinstance(value, FusedValue):
            value = value.value
        if value is None:
            continue
        if _is_numeric(true_value) and _is_numeric(value):
            correct += int(abs(float(value) - float(true_value)) <= numeric_tolerance)
        else:
            correct += int(value == true_value)
    return correct / len(truth)
