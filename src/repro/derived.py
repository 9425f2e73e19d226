"""Derived state: what a compute node rebuilds from its stored entities (DESIGN §9)."""

from __future__ import annotations

from .core.records import KEY_MAX


def stored_payload(value: object) -> dict:
    """The record payload inside a stored entity value (``{}`` for a
    value that is not a :func:`stored_record_value` wrapper)."""
    return value.get("payload", {}) if isinstance(value, dict) else {}


def payload_position(payload: dict) -> tuple | None:
    """``(x, y)`` when the payload carries a numeric ``x`` and ``y`` —
    the one membership rule of spatial queries — else ``None``."""
    x, y = payload.get("x"), payload.get("y")
    if isinstance(x, (int, float)) and isinstance(y, (int, float)):
        return (x, y)
    return None


class DerivedState:
    """Compute-side state derived from the entities a node serves, on
    the platform's one lifecycle: *unknown* (``data is None``) →
    *hydrated* by its first reader's owned pass over ``span`` →
    *maintained* on every write and drop the node makes → *reset* to
    unknown.

    The platform drives it from ``_after_write`` (:meth:`on_write`),
    ``drop_entity`` (:meth:`on_drop`) and ``reset_caches``
    (:meth:`reset`), the step a remap runs; readers hydrate it through
    ``MetaversePlatform._hydrated``.  ``exact`` state is an answer in
    itself, so a write that raised part-way, which may have landed on
    some storage nodes unseen, resets it as well.  Inexact state is a
    candidate filter whose hits are re-checked against what is fetched:
    a stale entry costs a fetch, never a wrong answer.
    """

    exact = False

    def __init__(self, lo: str, hi: str, data: dict | None = None) -> None:
        self.span = (lo, hi)
        self.data = data

    def hydrate(self, rows: list) -> None:
        """Build ``data`` from the owned ``(key, stored value)`` rows of
        ``span``."""
        raise NotImplementedError

    def on_write(self, items: list, payloads: list) -> None:
        """Follow the ``(key, stored value)`` items the engine just
        accepted, with their record payloads."""
        raise NotImplementedError

    def on_drop(self, key: str) -> None:
        if self.data is not None:
            self.data.pop(key, None)

    def reset(self) -> None:
        self.data = None


class PositionIndex(DerivedState):
    """key → ``(x, y)`` over the entities a node serves, so a spatial
    query filters a dict instead of scanning the keyspace.  Inexact:
    ``spatial_items`` re-checks every fetched value against the box."""

    def __init__(self) -> None:
        super().__init__("", KEY_MAX, {})

    def hydrate(self, rows: list) -> None:
        positions: dict[str, tuple] = {}
        for key, value in rows:
            position = payload_position(stored_payload(value))
            if position is not None:
                positions[key] = position
        self.data = positions

    def on_write(self, items: list, payloads: list) -> None:
        positions = self.data
        if positions is None:
            return  # unknown: writes pay nothing
        for (key, _), payload in zip(items, payloads):
            position = payload_position(payload)
            if position is not None:
                positions[key] = position
            else:
                positions.pop(key, None)


class PrefixView(DerivedState):
    """key → stored value of the entities a node serves under one
    standing query's prefix: the node's answer to that query, given
    without a storage read.  Exact, and kept only by a node that is its
    keys' sole writer (see ``MetaversePlatform._sole_writer``).
    Membership is the prefix scan's own range test, ``lo <= key <= hi``."""

    exact = True

    def __init__(self, prefix: str) -> None:
        super().__init__(prefix, prefix + KEY_MAX)

    def hydrate(self, rows: list) -> None:
        self.data = dict(rows)

    def on_write(self, items: list, payloads: list) -> None:
        rows = self.data
        if rows is None:
            return
        lo, hi = self.span
        for key, value in items:
            if lo <= key <= hi:
                rows[key] = value
