"""Typed data records, schemas, and space tagging.

The paper (Sec. III) observes that metaverse data is heterogeneous: static
and dynamic, structured and unstructured, and originates from two spaces.
``DataRecord`` is the unit that flows through every pipeline in this
library; it carries a :class:`Space` tag (Sec. IV-F "Organization of Data"),
a timestamp, and a free-form payload validated against an optional
:class:`Schema`.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .errors import SchemaError

#: Above every key the system stores: a scan from ``""`` to ``KEY_MAX``
#: covers the whole keyspace, and one from ``prefix`` to
#: ``prefix + KEY_MAX`` every key under ``prefix``.
KEY_MAX = "\uffff"


class Space(enum.Enum):
    """Which half of the metaverse a datum belongs to (paper Fig. 1)."""

    PHYSICAL = "physical"
    VIRTUAL = "virtual"

    @property
    def other(self) -> "Space":
        """The opposite space; used when mirroring data across the boundary."""
        return Space.VIRTUAL if self is Space.PHYSICAL else Space.PHYSICAL


class DataKind(enum.Enum):
    """Coarse data modality, used by space-aware caching and degradation."""

    STRUCTURED = "structured"
    TEXT = "text"
    LOCATION = "location"
    SENSOR = "sensor"
    MEDIA = "media"
    EVENT = "event"


@dataclass(frozen=True)
class FieldSpec:
    """One field of a :class:`Schema`.

    ``types`` is the tuple of accepted Python types; ``required`` fields must
    be present in every record.
    """

    name: str
    types: tuple[type, ...]
    required: bool = True

    def validate(self, payload: Mapping[str, Any]) -> None:
        if self.name not in payload:
            if self.required:
                raise SchemaError(f"missing required field {self.name!r}")
            return
        value = payload[self.name]
        if not isinstance(value, self.types):
            expected = "/".join(t.__name__ for t in self.types)
            raise SchemaError(
                f"field {self.name!r} expects {expected}, got {type(value).__name__}"
            )


class Schema:
    """A named, ordered collection of :class:`FieldSpec`.

    Schemas are intentionally lightweight — the platform is schema-on-read
    for most streams (paper Sec. IV-G), but typed ingestion points (e.g. the
    relational side of fusion) use them to reject malformed inputs early.
    """

    def __init__(self, name: str, fields: Iterable[FieldSpec]) -> None:
        self.name = name
        self.fields = tuple(fields)
        self._by_name = {f.name: f for f in self.fields}
        if len(self._by_name) != len(self.fields):
            raise SchemaError(f"schema {name!r} has duplicate field names")

    def field(self, name: str) -> FieldSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"schema {self.name!r} has no field {name!r}") from None

    def validate(self, payload: Mapping[str, Any]) -> None:
        """Raise :class:`SchemaError` if ``payload`` violates this schema."""
        for spec in self.fields:
            spec.validate(payload)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __repr__(self) -> str:
        return f"Schema({self.name!r}, {[f.name for f in self.fields]})"


_record_ids = itertools.count(1)


def payload_wire_size(payload: Mapping[str, Any]) -> int:
    """Approximate wire size of one record's payload.

    Media records carry an explicit ``size_bytes`` entry, used as stated
    when it is a finite, non-negative number.  Any other payload — one
    without the entry, or whose entry is negative, infinite, NaN or not
    a number — is estimated from its repr length plus a fixed header.
    """
    explicit = payload.get("size_bytes")
    if (
        isinstance(explicit, int)
        or (isinstance(explicit, float) and math.isfinite(explicit))
    ) and explicit >= 0:
        return int(explicit)
    return 48 + len(repr(payload))


@dataclass(slots=True)
class DataRecord:
    """The unit of data flowing through the platform.

    Attributes
    ----------
    key:
        Logical identity (entity id, product id, sensor id ...).
    payload:
        The actual values.  For ``DataKind.MEDIA`` this is metadata plus a
        ``size_bytes`` field; raw media bytes never flow through the control
        plane.
    space:
        Originating space; preserved across mirroring so consumers can apply
        space-aware policies (Sec. IV-F/IV-G).
    timestamp:
        Simulated event time in seconds.
    kind:
        Coarse modality tag.
    source:
        Identifier of the producing source/adapter (used by fusion).
    """

    key: str
    payload: dict[str, Any]
    space: Space = Space.PHYSICAL
    timestamp: float = 0.0
    kind: DataKind = DataKind.STRUCTURED
    source: str = "unknown"
    record_id: int = field(default_factory=lambda: next(_record_ids))

    def mirrored(self, timestamp: float | None = None) -> "DataRecord":
        """A copy of this record tagged for the *other* space.

        Mirroring is how the twin model synchronizes the two halves of the
        metaverse; the mirror keeps the source space's payload but flips the
        space tag and (optionally) re-stamps time.
        """
        return DataRecord(
            key=self.key,
            payload=dict(self.payload),
            space=self.space.other,
            timestamp=self.timestamp if timestamp is None else timestamp,
            kind=self.kind,
            source=self.source,
        )

    def size_bytes(self) -> int:
        """Approximate wire size, used by the simulated network
        (:func:`payload_wire_size` of the payload)."""
        return payload_wire_size(self.payload)

    def age(self, now: float) -> float:
        """Seconds since this record's event time."""
        return max(0.0, now - self.timestamp)


@dataclass(frozen=True)
class PurchaseRequest:
    """One shopper attempting to buy ``quantity`` units of one product."""

    shopper_id: str
    product_id: str
    space: Space
    timestamp: float
    quantity: int = 1
