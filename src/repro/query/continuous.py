"""Moving queries over moving objects (paper Sec. IV-G; [29], [30]).

"We are dealing not only with moving objects ... we are also dealing with
moving queries (a user moving in the virtual environment may need to track
all users within his/her views)."  This module provides continuous range
queries whose *anchor itself moves*, evaluated under three strategies:

* :class:`RescanStrategy` — baseline: test every object every tick.
* :class:`GridStrategy` — maintain objects in a :class:`GridIndex` and
  probe only overlapping cells per tick.
* :class:`BxStrategy` — maintain motion states in a :class:`BxTree` and
  answer with predicted positions, so objects moving predictably need no
  per-tick index updates at all (the motion-adaptive idea of [30]).

All strategies expose the same interface, so experiment E5 can compare
their per-tick cost while asserting identical answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable

from ..core.errors import ConfigurationError
from ..spatial.bxtree import BxTree
from ..spatial.geometry import BBox, Point, Velocity, predicted_position
from ..spatial.grid import GridIndex


@dataclass
class MovingObject:
    """Ground-truth motion state of one tracked object."""

    object_id: Hashable
    position: Point
    velocity: Velocity

    def advance(self, dt: float) -> None:
        self.position = predicted_position(self.position, self.velocity, dt)


@dataclass
class MovingRangeQuery:
    """A square range query attached to a moving observer."""

    query_id: str
    anchor: Point
    velocity: Velocity
    half_extent: float

    def __post_init__(self) -> None:
        if self.half_extent <= 0:
            raise ConfigurationError("half_extent must be positive")

    def advance(self, dt: float) -> None:
        self.anchor = predicted_position(self.anchor, self.velocity, dt)

    def region(self) -> BBox:
        return BBox.around(self.anchor, self.half_extent)


@dataclass
class MovingKnnQuery:
    """Continuously track the k nearest objects to a moving observer.

    The paper's "a user moving in the virtual environment may need to track
    all users within his/her views" in its k-nearest form.
    """

    query_id: str
    anchor: Point
    velocity: Velocity
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")

    def advance(self, dt: float) -> None:
        self.anchor = predicted_position(self.anchor, self.velocity, dt)


@dataclass
class QueryResult:
    query_id: str
    matches: frozenset
    cost: int  # objects examined to produce this answer
    ranked: tuple = ()  # kNN answers preserve order here


class RescanStrategy:
    """Baseline: brute-force scan of every object per query per tick."""

    def __init__(self) -> None:
        self._objects: dict[Hashable, MovingObject] = {}

    def ingest(self, obj: MovingObject, now: float) -> None:
        self._objects[obj.object_id] = obj

    def tick(self, objects: list[MovingObject], now: float) -> None:
        for obj in objects:
            self._objects[obj.object_id] = obj

    def evaluate(self, query: MovingRangeQuery, now: float) -> QueryResult:
        region = query.region()
        matches = frozenset(
            obj.object_id
            for obj in self._objects.values()
            if region.contains_point(obj.position)
        )
        return QueryResult(query.query_id, matches, cost=len(self._objects))

    def evaluate_knn(self, query: MovingKnnQuery, now: float) -> QueryResult:
        ranked = sorted(
            self._objects.values(),
            key=lambda obj: obj.position.distance_to(query.anchor),
        )[: query.k]
        ids = tuple(obj.object_id for obj in ranked)
        return QueryResult(
            query.query_id, frozenset(ids), cost=len(self._objects), ranked=ids
        )


class GridStrategy:
    """Maintain positions in a grid; probe only overlapping cells."""

    def __init__(self, cell_size: float = 50.0) -> None:
        self._grid = GridIndex(cell_size=cell_size)
        self.update_cost = 0

    def ingest(self, obj: MovingObject, now: float) -> None:
        self._grid.insert(obj.object_id, obj.position)
        self.update_cost += 1

    def tick(self, objects: list[MovingObject], now: float) -> None:
        for obj in objects:
            self._grid.insert(obj.object_id, obj.position)
            self.update_cost += 1

    def evaluate(self, query: MovingRangeQuery, now: float) -> QueryResult:
        region = query.region()
        # Cost: objects in overlapping cells (candidates examined).
        candidates = 0
        matches = []
        cell = self._grid.cell_size
        x0 = math.floor(region.x_min / cell)
        x1 = math.floor(region.x_max / cell)
        y0 = math.floor(region.y_min / cell)
        y1 = math.floor(region.y_max / cell)
        for cx in range(x0, x1 + 1):
            for cy in range(y0, y1 + 1):
                for object_id in self._grid.objects_in_cell((cx, cy)):
                    candidates += 1
                    if region.contains_point(self._grid.position(object_id)):
                        matches.append(object_id)
        return QueryResult(query.query_id, frozenset(matches), cost=candidates)

    def evaluate_knn(self, query: MovingKnnQuery, now: float) -> QueryResult:
        ids = tuple(self._grid.nearest(query.anchor, k=query.k))
        return QueryResult(
            query.query_id, frozenset(ids), cost=len(ids), ranked=ids
        )


class BxStrategy:
    """Index motion states; evaluate with dead reckoning.

    Objects are re-ingested only when their *velocity* changes (the caller
    decides), so steadily moving objects cost nothing per tick — the
    motion-adaptive advantage.
    """

    def __init__(self, domain: BBox, max_speed: float, cell_bits: int = 6) -> None:
        self._tree = BxTree(
            domain=domain,
            resolution_bits=cell_bits,
            phase_interval=60.0,
            max_speed=max_speed,
        )
        self.update_cost = 0

    def ingest(self, obj: MovingObject, now: float) -> None:
        self._tree.update(obj.object_id, obj.position, obj.velocity, now)
        self.update_cost += 1

    def tick(self, objects: list[MovingObject], now: float) -> None:
        """No per-tick work: dead reckoning covers steady motion."""

    def evaluate(self, query: MovingRangeQuery, now: float) -> QueryResult:
        matches = frozenset(self._tree.query_range(query.region(), t=now))
        # Cost proxy: matches plus the enlarged-window overshoot is internal;
        # report the number of indexed objects probed via the tree size cap.
        return QueryResult(query.query_id, matches, cost=len(matches))


@dataclass
class ContinuousQueryEngine:
    """Drives moving objects and moving queries against a strategy."""

    strategy: RescanStrategy | GridStrategy | BxStrategy
    objects: dict[Hashable, MovingObject] = field(default_factory=dict)
    queries: dict[str, MovingRangeQuery] = field(default_factory=dict)
    knn_queries: dict[str, MovingKnnQuery] = field(default_factory=dict)
    now: float = 0.0
    total_eval_cost: int = 0

    def add_object(self, obj: MovingObject) -> None:
        self.objects[obj.object_id] = obj
        self.strategy.ingest(obj, self.now)

    def add_query(self, query: MovingRangeQuery) -> None:
        self.queries[query.query_id] = query

    def add_knn_query(self, query: MovingKnnQuery) -> None:
        if not hasattr(self.strategy, "evaluate_knn"):
            raise ConfigurationError(
                f"{type(self.strategy).__name__} does not support kNN queries"
            )
        self.knn_queries[query.query_id] = query

    def change_velocity(self, object_id: Hashable, velocity: Velocity) -> None:
        obj = self.objects[object_id]
        obj.velocity = velocity
        self.strategy.ingest(obj, self.now)

    def tick(self, dt: float) -> dict[str, QueryResult]:
        """Advance time, refresh the strategy, evaluate every query."""
        self.now += dt
        for obj in self.objects.values():
            obj.advance(dt)
        for query in self.queries.values():
            query.advance(dt)
        for knn_query in self.knn_queries.values():
            knn_query.advance(dt)
        self.strategy.tick(list(self.objects.values()), self.now)
        results = {}
        for query in self.queries.values():
            result = self.strategy.evaluate(query, self.now)
            self.total_eval_cost += result.cost
            results[query.query_id] = result
        for knn_query in self.knn_queries.values():
            result = self.strategy.evaluate_knn(knn_query, self.now)  # type: ignore[union-attr]
            self.total_eval_cost += result.cost
            results[knn_query.query_id] = result
        return results
