"""Distribution-free change point detection and segment clustering.

The change statistic is an exact two-sample transport statistic over sliding
windows; a simulation-calibrated matched filter cleans the statistic before
peak extraction, and detected segments are clustered spectrally through
exp(-W2) affinities between their empirical distributions.
"""

from .cpd import (
    DEFAULT_CHANGE_PAIRS,
    DetectionResult,
    DetectorConfig,
    MatchedFilter,
    OnlineDetector,
    StatTrace,
    apply_filter,
    detect,
    detect_peaks,
    estimate_matched_filter,
    load_filter,
    save_filter,
    sliding_statistic,
)
from .empirical import (
    NULL,
    EmpiricalDist,
    NullConstants,
    build_empirical,
    w2t_statistic,
    wasserstein2,
)
from .errors import NumericalError
from .metrics import cp_auc, cp_f1, label_accuracy
from .numeric import eigh_symmetric, hungarian, kmeans
from .series import TimeSeries
from .simgen import DistSpec, SeriesSpec, generate, sample
from .tssc import (
    AffinityMatrix,
    Segment,
    SegmentLabeling,
    affinity_matrix,
    boundary_weights,
    cluster_segments,
    segment_distribution,
    spectral_cluster,
)

__version__ = "0.1.0"

__all__ = [
    "AffinityMatrix",
    "DEFAULT_CHANGE_PAIRS",
    "DetectionResult",
    "DetectorConfig",
    "DistSpec",
    "EmpiricalDist",
    "MatchedFilter",
    "NULL",
    "NullConstants",
    "NumericalError",
    "OnlineDetector",
    "Segment",
    "SegmentLabeling",
    "SeriesSpec",
    "StatTrace",
    "TimeSeries",
    "affinity_matrix",
    "apply_filter",
    "boundary_weights",
    "build_empirical",
    "cluster_segments",
    "cp_auc",
    "cp_f1",
    "detect",
    "detect_peaks",
    "eigh_symmetric",
    "estimate_matched_filter",
    "generate",
    "hungarian",
    "kmeans",
    "label_accuracy",
    "load_filter",
    "sample",
    "save_filter",
    "segment_distribution",
    "sliding_statistic",
    "spectral_cluster",
    "w2t_statistic",
    "wasserstein2",
]
