"""Learned cardinality estimation with drift detection (paper Sec. IV-H).

"Learning from a particular instance of dataset and query patterns may only
improve database optimization ... temporarily. The fact that databases are
dynamic in nature may make the AI/ML models and algorithms ineffective due
to data and feature drift problems."

This module makes that claim measurable:

* :class:`HistogramEstimator` — an equi-width histogram "model" trained on
  a sample of a numeric column, answering range-cardinality estimates;
* :class:`DriftDetector` — a Page-Hinkley-style detector over the
  estimator's relative errors: sustained error growth (the symptom of data
  drift) triggers an alarm;
* :class:`AdaptiveEstimator` — the self-driving loop: estimate, observe the
  true count (post-execution feedback), retrain when drift fires.

Experiment E19 shows the static model degrading after a distribution shift
while the adaptive loop recovers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from ..core.errors import ConfigurationError


class HistogramEstimator:
    """Equi-width histogram over a numeric column."""

    def __init__(self, values: list[float], n_buckets: int = 32) -> None:
        if not values:
            raise ConfigurationError("cannot train on an empty sample")
        if n_buckets < 1:
            raise ConfigurationError("need at least one bucket")
        self.n_buckets = n_buckets
        self.lo = min(values)
        self.hi = max(values)
        width = (self.hi - self.lo) or 1.0
        self.bucket_width = width / n_buckets
        self.counts = [0] * n_buckets
        for value in values:
            self.counts[self._bucket(value)] += 1
        self.trained_on = len(values)

    def _bucket(self, value: float) -> int:
        idx = int((value - self.lo) / self.bucket_width)
        return max(0, min(self.n_buckets - 1, idx))

    def estimate_range(self, lo: float, hi: float) -> float:
        """Estimated number of column values in [lo, hi]."""
        if lo > hi:
            raise ConfigurationError("range inverted")
        if hi < self.lo or lo > self.hi:
            return 0.0
        total = 0.0
        for bucket in range(self.n_buckets):
            b_lo = self.lo + bucket * self.bucket_width
            b_hi = b_lo + self.bucket_width
            overlap = max(0.0, min(hi, b_hi) - max(lo, b_lo))
            if overlap > 0:
                total += self.counts[bucket] * overlap / self.bucket_width
        return total

    @staticmethod
    def true_range_count(sorted_values: list[float], lo: float, hi: float) -> int:
        """Exact answer on a sorted column (ground truth for feedback)."""
        return bisect_right(sorted_values, hi) - bisect_left(sorted_values, lo)


class DriftDetector:
    """Page-Hinkley test on a stream of error observations.

    Alarms when the cumulative (error - running_mean - delta) exceeds
    ``threshold``, i.e. errors have been persistently above their historical
    mean — the signature of a stale model after drift.
    """

    def __init__(self, delta: float = 0.05, threshold: float = 2.0) -> None:
        if threshold <= 0:
            raise ConfigurationError("threshold must be positive")
        self.delta = delta
        self.threshold = threshold
        self.reset()

    def reset(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._cumulative = 0.0
        self._min_cumulative = 0.0

    def observe(self, error: float) -> bool:
        """Feed one error; returns True when drift is detected."""
        self._n += 1
        self._mean += (error - self._mean) / self._n
        self._cumulative += error - self._mean - self.delta
        self._min_cumulative = min(self._min_cumulative, self._cumulative)
        return (self._cumulative - self._min_cumulative) > self.threshold

    @property
    def observations(self) -> int:
        return self._n


class AdaptiveEstimator:
    """Estimate -> feedback -> (on drift) retrain loop.

    ``column_provider()`` returns the *current* column contents, which is
    what a retrain samples.  A static baseline is just this class with
    ``retrain_on_drift=False``.
    """

    def __init__(
        self,
        column_provider,
        n_buckets: int = 32,
        retrain_on_drift: bool = True,
        detector: DriftDetector | None = None,
    ) -> None:
        self.column_provider = column_provider
        self.n_buckets = n_buckets
        self.retrain_on_drift = retrain_on_drift
        self.detector = detector if detector is not None else DriftDetector()
        self.model = HistogramEstimator(column_provider(), n_buckets)
        self.retrains = 0
        self.errors: list[float] = []

    def query(self, lo: float, hi: float) -> float:
        return self.model.estimate_range(lo, hi)

    def feedback(self, lo: float, hi: float, true_count: int) -> None:
        """Post-execution feedback: record error, maybe retrain."""
        estimate = self.model.estimate_range(lo, hi)
        denominator = max(1.0, float(true_count))
        error = abs(estimate - true_count) / denominator
        self.errors.append(error)
        if self.detector.observe(error) and self.retrain_on_drift:
            self.model = HistogramEstimator(self.column_provider(), self.n_buckets)
            self.detector.reset()
            self.retrains += 1

    def recent_mean_error(self, window: int = 20) -> float:
        recent = self.errors[-window:]
        return sum(recent) / len(recent) if recent else 0.0
