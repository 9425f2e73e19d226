"""Device-side gateway: the "metaverse devices" tier of Fig. 7.

Devices "can afford part of computation tasks like data aggregation and
fusion" — the gateway buffers raw sensor records and, when aggregation is
enabled, ships one aggregate per (group, window) instead of every raw
reading, cutting device-to-cloud uplink bytes by roughly the window size
(experiment E11 measures exactly this).
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..core.columns import RecordBatch, dense_codes
from ..core.errors import ConfigurationError
from ..core.records import DataKind, DataRecord, payload_wire_size
from ..core.metrics import MetricsRegistry
from ..obs.tracing import NoopTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultInjector


def batch_uplink_bytes(batch: RecordBatch) -> int:
    """Wire size of a batch: to the byte, the sum of
    :meth:`DataRecord.size_bytes` over the rows the per-record path
    would ship.

    Every row's payload ``repr`` has the same skeleton — braces, each
    ``'name': `` and the ``, `` between fields — so only the values are
    measured per row, a column at a time, and no payload dict is built.
    A ``size_bytes`` column states each row's size itself; those rows
    are sized one by one, by the same rule (:func:`payload_wire_size`).
    """
    columns = batch.columns
    if "size_bytes" in columns:
        return sum(map(payload_wire_size, batch.payloads()))
    skeleton = (
        48 + 2
        + sum(len(repr(name)) + 2 for name in columns)
        + 2 * max(len(columns) - 1, 0)
    )
    return len(batch) * skeleton + sum(
        sum(map(len, map(repr, values.tolist())))
        for values in columns.values()
    )


class DeviceGateway:
    """Buffers records on-device and flushes raw or aggregated batches.

    ``group_fn`` maps a record to its aggregation group (e.g. district);
    aggregation averages every numeric payload field per group over the
    buffered window.

    A gateway constructed without a tracer keeps a no-op default until
    :meth:`MetaversePlatform.register_gateway` adopts it into the
    platform's tracer (``tracer_injected`` records which case applies).
    """

    def __init__(
        self,
        aggregate: bool,
        group_fn: Callable[[DataRecord], str] | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        if aggregate and group_fn is None:
            raise ConfigurationError("aggregation requires a group_fn")
        self.aggregate = aggregate
        self.group_fn = group_fn
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._raw, self._uplink, self._sent = map(self.metrics.counter, (
            "gateway.raw_records", "gateway.uplink_bytes", "gateway.sent_records",
        ))
        self.tracer_injected = tracer is not None
        self.tracer = tracer if tracer is not None else NoopTracer()
        self.faults = faults
        self._buffer: list[DataRecord] = []
        self._batch_buffer: list[RecordBatch] = []

    def ingest(self, record: DataRecord) -> None:
        """Buffer one sensor record (an injected ``drop`` models dropout)."""
        if self.faults is not None:
            if self.faults.decide("gateway.ingest", kinds=("drop",)).faulted:
                self.metrics.counter("gateway.dropped_records").inc()
                return
        self._buffer.append(record)
        self._raw.inc()

    def ingest_many(self, records: list[DataRecord]) -> None:
        with self.tracer.span("gateway.ingest", batch=len(records)):
            for record in records:
                self.ingest(record)

    def ingest_batch(self, batch: RecordBatch) -> None:
        """Buffer one columnar batch (vectorized twin of :meth:`ingest_many`).

        Fault decisions are still taken per row — the injector's RNG
        sequence must not depend on which ingest path carried the rows —
        but surviving rows stay columnar end to end.
        """
        if self.faults is not None:
            keep = [
                i for i in range(len(batch))
                if not self.faults.decide(
                    "gateway.ingest", kinds=("drop",)
                ).faulted
            ]
            dropped = len(batch) - len(keep)
            if dropped:
                self.metrics.counter("gateway.dropped_records").inc(dropped)
                if not keep:
                    return
                batch = batch.take(keep)
        self._batch_buffer.append(batch)
        self._raw.inc(len(batch))

    def flush(self) -> tuple[list[DataRecord], int]:
        """Return (records to send upstream, uplink bytes) and clear."""
        with self.tracer.span("gateway.flush", buffered=len(self._buffer)):
            return self._flush_buffer()

    def flush_batch(self) -> tuple[RecordBatch | None, int]:
        """Columnar flush: (batch to send upstream or None, uplink bytes).

        The aggregated output reproduces :meth:`flush` exactly — per-group
        means accumulate in arrival order (``np.bincount`` adds terms in
        the same sequence as the Python loop), the ``count`` column stays
        ``int``, timestamps take the group max, and the group's space is
        the first row's.  Grouping uses the batch's ``groups`` tags when
        present (devices tag rows at capture time), else the record key.
        """
        buffered = sum(len(b) for b in self._batch_buffer)
        with self.tracer.span("gateway.flush", buffered=buffered):
            if not self._batch_buffer:
                return None, 0
            merged = RecordBatch.concat(self._batch_buffer)
            self._batch_buffer = []
            if not self.aggregate:
                uplink = batch_uplink_bytes(merged)
                self._uplink.inc(uplink)
                self._sent.inc(len(merged))
                return merged, uplink
            out = self._aggregate_batch(merged)
            uplink = batch_uplink_bytes(out)
            self._uplink.inc(uplink)
            self._sent.inc(len(out))
            return out, uplink

    def _aggregate_batch(self, merged: RecordBatch) -> RecordBatch:
        codes, keys = dense_codes(
            merged.groups if merged.groups is not None else merged.keys
        )
        n_groups = len(keys)
        counts = np.bincount(codes, minlength=n_groups)
        columns: dict[str, np.ndarray] = {
            name: np.bincount(codes, weights=arr, minlength=n_groups) / counts
            for name, arr in merged.columns.items()
        }
        columns["count"] = counts.astype(np.int64)
        timestamps = np.full(n_groups, -np.inf)
        np.maximum.at(timestamps, codes, merged.timestamps)
        # The first row of each group decides its space; codes run in
        # first-appearance order, so the first index of code g is the
        # g-th of ``np.unique``'s first indices.
        first = np.unique(codes, return_index=True)[1]
        return RecordBatch(
            keys=keys,
            columns=columns,
            timestamps=timestamps,
            spaces=merged.spaces[first],
            kind=DataKind.SENSOR,
            source="device-aggregate",
        )

    def _flush_buffer(self) -> tuple[list[DataRecord], int]:
        if not self._buffer:
            return [], 0
        if not self.aggregate:
            out = self._buffer
            self._buffer = []
            uplink = sum(r.size_bytes() for r in out)
            self._uplink.inc(uplink)
            self._sent.inc(len(out))
            return out, uplink
        assert self.group_fn is not None
        groups: dict[str, list[DataRecord]] = defaultdict(list)
        for record in self._buffer:
            groups[self.group_fn(record)].append(record)
        out = []
        for group, records in groups.items():
            numeric_fields: dict[str, list[float]] = defaultdict(list)
            for record in records:
                for field, value in record.payload.items():
                    if isinstance(value, (int, float)):
                        numeric_fields[field].append(float(value))
            payload = {
                field: sum(values) / len(values)
                for field, values in numeric_fields.items()
            }
            payload["count"] = len(records)
            out.append(
                DataRecord(
                    key=group,
                    payload=payload,
                    space=records[0].space,
                    timestamp=max(r.timestamp for r in records),
                    kind=DataKind.SENSOR,
                    source="device-aggregate",
                )
            )
        self._buffer = []
        uplink = sum(r.size_bytes() for r in out)
        self._uplink.inc(uplink)
        self._sent.inc(len(out))
        return out, uplink
