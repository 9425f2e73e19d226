"""Entities and avatars of the twin world (paper Fig. 1).

A physical entity (soldier, shopper, book, sensor) has a position and a set
of dynamic attributes; a cyber user's :class:`Avatar` is its presence in
the virtual space.  Linking the two is what makes cross-space features
(the paper's "detect a friend at the same location in the other space")
expressible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.records import Space
from ..spatial.geometry import Point, Velocity


@dataclass
class Entity:
    """A tracked object in the physical space."""

    entity_id: str
    position: Point
    velocity: Velocity = field(default_factory=lambda: Velocity(0.0, 0.0))
    attributes: dict[str, Any] = field(default_factory=dict)
    kind: str = "generic"

    def advance(self, dt: float) -> None:
        self.position = Point(
            self.position.x + self.velocity.vx * dt,
            self.position.y + self.velocity.vy * dt,
        )


@dataclass
class Avatar:
    """A presence in the virtual space, optionally bound to a physical user."""

    avatar_id: str
    position: Point
    owner_entity_id: str | None = None
    attributes: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ProximityMatch:
    """Two principals near each other, possibly across spaces."""

    first: str
    second: str
    distance: float
    first_space: Space
    second_space: Space

    @property
    def cross_space(self) -> bool:
        return self.first_space is not self.second_space
