"""Columnar observations for vectorized truth fusion (ROADMAP item 2).

:class:`ObservationBatch` is the fusion-side twin of
:class:`~repro.core.columns.RecordBatch`: one tick of *numeric* sensor
claims as parallel arrays.  :meth:`TruthFusion.fuse_batch
<repro.fusion.fuser.TruthFusion.fuse_batch>` runs the same iterative
trust-weighted EM loop as the per-record :meth:`fuse
<repro.fusion.fuser.TruthFusion.fuse>` but with every per-observation
step — weighting, per-group accumulation, agreement counting, trust
re-estimation — as ``numpy`` kernels over these columns.

The accumulation order is engineered to match the per-record path
bit-for-bit: observations keep their arrival order, ``np.bincount`` adds
each group's terms in exactly the sequence the Python loop would, and
scalar formulas reuse the same expressions — so ``fuse_batch`` returns
*equal* :class:`~repro.fusion.fuser.FusedValue` objects, not merely close
ones (asserted in ``tests/test_batch_hotpath.py``).

Building and coding a batch pays per column, not per row: numeric-ness
is decided from the set of value types, and the group and source codes
are one ``setdefault`` a row into a list, turned into an array once
(:func:`~repro.core.columns.dense_codes`); ``tests/test_batch_hotpath.py``
holds each pass equal to the per-row loop it stands for.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.columns import dense_codes
from ..core.errors import ConfigurationError
from .sources import Observation


class ObservationBatch:
    """Numeric observations as parallel columns.

    ``entity_ids``/``attributes``/``sources`` are per-row string lists;
    ``values``/``confidences``/``timestamps`` are float64 arrays.  Only
    numeric claims columnarize — categorical fusion stays on the
    per-record path, which remains fully supported.  A column handed
    over as a list (or a float64 array) becomes the batch's own, not a
    copy.
    """

    __slots__ = ("entity_ids", "attributes", "values", "sources",
                 "confidences", "timestamps")

    def __init__(
        self,
        entity_ids: Sequence[str],
        attributes: Sequence[str],
        values: np.ndarray | Sequence[float],
        sources: Sequence[str],
        timestamps: np.ndarray | Sequence[float] | None = None,
        confidences: np.ndarray | Sequence[float] | None = None,
    ) -> None:
        self.entity_ids = _as_list(entity_ids)
        n = len(self.entity_ids)
        self.attributes = _as_list(attributes)
        self.sources = _as_list(sources)
        self.values = np.asarray(values, dtype=np.float64)
        self.timestamps = (
            np.zeros(n) if timestamps is None
            else np.asarray(timestamps, dtype=np.float64)
        )
        self.confidences = (
            np.ones(n) if confidences is None
            else np.asarray(confidences, dtype=np.float64)
        )
        for name, column in (
            ("attributes", self.attributes), ("values", self.values),
            ("sources", self.sources), ("timestamps", self.timestamps),
            ("confidences", self.confidences),
        ):
            if len(column) != n:
                raise ConfigurationError(f"{name} length mismatch")

    def __len__(self) -> int:
        return len(self.entity_ids)

    @classmethod
    def from_observations(
        cls, observations: Sequence[Observation]
    ) -> "ObservationBatch":
        """Columnarize numeric observations (order preserved).

        Numeric-ness is read from the set of value types: values that
        are all ``float`` are taken as they are, and any other mix is
        converted by ``float()``; a type other than ``int`` and ``float``
        (``bool``, a numeric subclass, a string) first takes the
        per-value ``isinstance`` check, which raises for a categorical
        claim.
        """
        values = [o.value for o in observations]
        types = set(map(type, values))
        if not types <= {float, int}:
            for value in values:
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    raise ConfigurationError(
                        "only numeric observations columnarize; fuse "
                        "categorical claims through the per-record path"
                    )
        if types != {float}:
            values = [float(value) for value in values]
        return cls(
            entity_ids=[o.entity_id for o in observations],
            attributes=[o.attribute for o in observations],
            values=values,
            sources=[o.source for o in observations],
            timestamps=[o.timestamp for o in observations],
            confidences=[o.confidence for o in observations],
        )

    def to_observations(self) -> list[Observation]:
        """Expand into per-record form (the equivalence baseline)."""
        return [
            Observation(
                entity_id=e, attribute=a, value=v, source=s,
                timestamp=t, confidence=c,
            )
            for e, a, v, s, t, c in zip(
                self.entity_ids, self.attributes, self.values.tolist(),
                self.sources, self.timestamps.tolist(),
                self.confidences.tolist(),
            )
        ]

    # -- encoding -----------------------------------------------------------

    def group_codes(self) -> tuple[np.ndarray, list[tuple[str, str]]]:
        """Dense (entity, attribute) codes in first-appearance order —
        the same order the per-record path's ``defaultdict`` grouping
        produces, so downstream accumulators see identical sequences."""
        return dense_codes(zip(self.entity_ids, self.attributes))

    def source_codes(self) -> tuple[np.ndarray, list[str]]:
        """Dense source codes in first-appearance order."""
        return dense_codes(self.sources)


def _as_list(column: Sequence) -> list:
    """A string column as a list, taking a list as it was handed over."""
    return column if type(column) is list else list(column)
