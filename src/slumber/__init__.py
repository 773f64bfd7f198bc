"""Delayed- vs instant-recognition citation analytics.

Quantifies how late or early a paper's citations arrived (a delay index over
the cumulative citation curve plus its turning year), selects the extreme
cohorts from a pool, and links the dynamics to patent citations: lag and
timing indicators, two-group comparisons, and field interaction matrices.
"""

from .cohort import CohortAssignment, CohortResult, select_cohorts
from .config import SynthSpec
from .curve import profile
from .errors import DataError, SlumberError
from .ingest import flag_contexts, load_dataset, validate_dataset, write_dataset
from .interact import field_distribution, interaction_matrix
from .model import (
    CitationSeries,
    CurveProfile,
    Dataset,
    PaperRecord,
    PatentFamilyRecord,
)
from .patent import PatentIndicators, compute_indicators, lag_trend_points
from .stats import (
    aagr,
    moving_window_mean,
    proportion_ci,
    summary_stats,
    two_proportion_test,
)
from .synth import generate

__version__ = "0.1.0"

__all__ = [
    "CitationSeries",
    "CohortAssignment",
    "CohortResult",
    "CurveProfile",
    "DataError",
    "Dataset",
    "PaperRecord",
    "PatentFamilyRecord",
    "PatentIndicators",
    "SlumberError",
    "SynthSpec",
    "aagr",
    "compute_indicators",
    "field_distribution",
    "flag_contexts",
    "generate",
    "interaction_matrix",
    "lag_trend_points",
    "load_dataset",
    "moving_window_mean",
    "profile",
    "proportion_ci",
    "select_cohorts",
    "summary_stats",
    "two_proportion_test",
    "validate_dataset",
    "write_dataset",
]
