"""Self-driving optimizations and co-learning (paper Sec. IV-H / IV-I)."""

from .advisor import (
    CoherencyTuner,
    IndexAdvisor,
    IndexRecommendation,
    WorkloadProfile,
    knee_epsilon,
)
from .cardinality import (
    AdaptiveEstimator,
    DriftDetector,
    HistogramEstimator,
)
from .diststats import (
    ExchangeReport,
    MergeableHistogram,
    coordinate_estimate,
    merge_all,
)
from .colearn import (
    Case,
    CoLearningLoop,
    CoLearnReport,
    Human,
    OnlineModel,
    compare_workflows,
    generate_cases,
)

__all__ = [
    "AdaptiveEstimator",
    "Case",
    "CoLearnReport",
    "CoLearningLoop",
    "CoherencyTuner",
    "DriftDetector",
    "ExchangeReport",
    "MergeableHistogram",
    "HistogramEstimator",
    "Human",
    "IndexAdvisor",
    "IndexRecommendation",
    "OnlineModel",
    "WorkloadProfile",
    "compare_workflows",
    "coordinate_estimate",
    "merge_all",
    "generate_cases",
    "knee_epsilon",
]
