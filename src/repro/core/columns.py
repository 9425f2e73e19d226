"""Columnar record batches: the vectorized ingest unit (ROADMAP item 2).

The per-record pipeline moves one Python object per observation through
gateway → platform → storage; at deluge rates the object churn itself
becomes the bottleneck.  A :class:`RecordBatch` moves one *tick* of
observations as parallel arrays — keys, numeric payload columns,
timestamps, space tags — so the hot path can aggregate, route, and
persist with numpy kernels and one bulk storage call instead of N.

The batch is convertible to and from the per-record representation
(:meth:`from_records` / :meth:`to_records`), and the platform's batch
ingest is required to leave *byte-identical* stored state to the
per-record path over the same rows (property-tested in
``tests/test_batch_hotpath.py``): columnar is a wire/compute format, not
a different data model.  Payload columns keep their integer/float dtype
so round-tripped payload dicts preserve ``int`` vs ``float`` exactly.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError
from .records import DataKind, DataRecord, Space

#: Space codes used in the ``spaces`` column (index == code).
_SPACES = (Space.PHYSICAL, Space.VIRTUAL)
_SPACE_CODE = {space: code for code, space in enumerate(_SPACES)}
#: The stored name of each space code (``Space.value``, read once here
#: instead of once per row through the enum's property).
SPACE_NAMES = tuple(space.value for space in _SPACES)


def dense_codes(keys: Iterable[Hashable]) -> tuple[np.ndarray, list]:
    """Dense ``intp`` codes for ``keys`` in first-appearance order, and
    the distinct keys by code.  One ``setdefault`` a key into a list, one
    array conversion: a new key's code is ``len(index)`` before it joins."""
    index: dict = {}
    codes = [index.setdefault(key, len(index)) for key in keys]
    return np.array(codes, dtype=np.intp), list(index)


def _column_array(values: Sequence) -> np.ndarray:
    """Array for one payload column, preserving int-ness exactly.

    Columns must be homogeneous (all int or all float): a mixed column
    would silently widen ints to floats and break the byte-identical
    round trip the batch path guarantees against the per-record path.
    A column of exactly ``int`` (or no values) or exactly ``float`` is
    told from its set of types; any other type takes the per-value
    checks, which also raise the errors.
    """
    types = set(map(type, values))
    if types <= {int}:
        return np.asarray(values, dtype=np.int64)
    if types == {float}:
        return np.asarray(values, dtype=np.float64)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigurationError(
                "columnar payload fields must be int or float"
            )
    if all(isinstance(v, int) for v in values):
        return np.asarray(values, dtype=np.int64)
    if not all(isinstance(v, float) for v in values):
        raise ConfigurationError(
            "mixed int/float column; cast to one type before batching"
        )
    return np.asarray(values, dtype=np.float64)


class RecordBatch:
    """One tick's observations as parallel columns.

    ``keys`` is a list of record keys; ``columns`` maps payload field
    names to numeric arrays (all the same length as ``keys``);
    ``timestamps`` and ``spaces`` (codes into physical/virtual) are
    per-row arrays; ``kind``/``source`` are batch-wide (a batch is one
    sensor stream).  ``groups`` optionally tags each row with its
    device-side aggregation group (see
    :meth:`~repro.platform.gateway.DeviceGateway.flush_batch`).
    """

    __slots__ = ("keys", "columns", "timestamps", "spaces", "kind",
                 "source", "groups")

    def __init__(
        self,
        keys: Sequence[str],
        columns: Mapping[str, np.ndarray | Sequence[float]],
        timestamps: np.ndarray | Sequence[float],
        spaces: np.ndarray | Space | None = None,
        kind: DataKind = DataKind.SENSOR,
        source: str = "unknown",
        groups: Sequence[str] | None = None,
    ) -> None:
        self.keys = list(keys)
        n = len(self.keys)
        self.columns: dict[str, np.ndarray] = {}
        for name, values in columns.items():
            arr = (values if isinstance(values, np.ndarray)
                   else _column_array(list(values)))
            if len(arr) != n:
                raise ConfigurationError(
                    f"column {name!r} has {len(arr)} rows, expected {n}"
                )
            self.columns[name] = arr
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        if len(self.timestamps) != n:
            raise ConfigurationError("timestamps length mismatch")
        if spaces is None:
            spaces = Space.PHYSICAL
        if isinstance(spaces, Space):
            self.spaces = np.full(n, _SPACE_CODE[spaces], dtype=np.uint8)
        else:
            self.spaces = np.asarray(spaces, dtype=np.uint8)
            if len(self.spaces) != n:
                raise ConfigurationError("spaces length mismatch")
        self.kind = kind
        self.source = source
        self.groups = list(groups) if groups is not None else None
        if self.groups is not None and len(self.groups) != n:
            raise ConfigurationError("groups length mismatch")

    def __len__(self) -> int:
        return len(self.keys)

    # -- conversion ---------------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence[DataRecord]) -> "RecordBatch":
        """Columnarize uniform records (same payload fields/kind/source)."""
        if not records:
            raise ConfigurationError("cannot columnarize an empty batch")
        first = records[0]
        fields = list(first.payload)
        for record in records:
            if list(record.payload) != fields:
                raise ConfigurationError(
                    "records in a batch must share payload fields"
                )
        return cls(
            keys=[r.key for r in records],
            columns={
                name: _column_array([r.payload[name] for r in records])
                for name in fields
            },
            timestamps=[r.timestamp for r in records],
            # ``tuple.index`` finds a member by identity, where a dict
            # lookup would call ``Enum.__hash__`` once a record.
            spaces=np.array(
                list(map(_SPACES.index, map(attrgetter("space"), records))),
                dtype=np.uint8,
            ),
            kind=first.kind,
            source=first.source,
        )

    def payloads(self) -> list[dict]:
        """Per-row payload dicts, bit-exact vs the per-record path.

        ``ndarray.tolist`` converts whole columns to Python scalars in C
        (exact for float64/int64), so rebuilding N dicts costs one pass
        of dict construction instead of N·F array indexings.
        """
        cols = [(name, arr.tolist()) for name, arr in self.columns.items()]
        return [
            {name: values[i] for name, values in cols}
            for i in range(len(self.keys))
        ]

    def space_values(self) -> list[Space]:
        """Per-row :class:`Space` tags."""
        return [_SPACES[code] for code in self.spaces.tolist()]

    def to_records(self) -> list[DataRecord]:
        """Expand into per-record form (the equivalence baseline)."""
        payloads = self.payloads()
        spaces = self.space_values()
        times = self.timestamps.tolist()
        return [
            DataRecord(
                key=key, payload=payload, space=space, timestamp=ts,
                kind=self.kind, source=self.source,
            )
            for key, payload, space, ts in zip(
                self.keys, payloads, spaces, times
            )
        ]

    def take(self, indices: Sequence[int]) -> "RecordBatch":
        """Row subset in the given order (e.g. after fault-drop masking)."""
        idx = np.asarray(indices, dtype=np.intp)
        return RecordBatch(
            keys=[self.keys[i] for i in indices],
            columns={name: arr[idx] for name, arr in self.columns.items()},
            timestamps=self.timestamps[idx],
            spaces=self.spaces[idx],
            kind=self.kind,
            source=self.source,
            groups=(
                None if self.groups is None
                else [self.groups[i] for i in indices]
            ),
        )

    @classmethod
    def concat(cls, batches: Iterable["RecordBatch"]) -> "RecordBatch":
        """Stitch same-shaped batches into one (buffered tick flush)."""
        batches = list(batches)
        if not batches:
            raise ConfigurationError("cannot concat zero batches")
        if len(batches) == 1:
            return batches[0]
        first = batches[0]
        fields = list(first.columns)
        for batch in batches[1:]:
            if list(batch.columns) != fields:
                raise ConfigurationError(
                    "concat requires identical column sets"
                )
        keys: list[str] = []
        groups: list[str] | None = [] if first.groups is not None else None
        for batch in batches:
            keys.extend(batch.keys)
            if groups is not None:
                if batch.groups is None:
                    raise ConfigurationError(
                        "cannot concat grouped and ungrouped batches"
                    )
                groups.extend(batch.groups)
        return cls(
            keys=keys,
            columns={
                name: np.concatenate([b.columns[name] for b in batches])
                for name in fields
            },
            timestamps=np.concatenate([b.timestamps for b in batches]),
            spaces=np.concatenate([b.spaces for b in batches]),
            kind=first.kind,
            source=first.source,
            groups=groups,
        )

    def describe(self) -> dict:
        return {
            "rows": len(self.keys),
            "columns": list(self.columns),
            "kind": self.kind.value,
            "source": self.source,
        }
