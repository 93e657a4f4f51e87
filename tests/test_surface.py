import importlib
import pkgutil

import wcpd

PUBLIC = [
    "AffinityMatrix",
    "DEFAULT_CHANGE_PAIRS",
    "DetectionResult",
    "DetectorConfig",
    "DistSpec",
    "EmpiricalDist",
    "MatchedFilter",
    "NULL",
    "NumericalError",
    "OnlineDetector",
    "Segment",
    "SegmentLabeling",
    "SeriesSpec",
    "StatTrace",
    "TimeSeries",
    "affinity_matrix",
    "apply_filter",
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


def test_public_surface_is_pinned():
    # growing the package's public names is a reviewed edit of this list
    assert sorted(wcpd.__all__) == PUBLIC
    for info in pkgutil.iter_modules(wcpd.__path__):
        if info.name == "cli":  # the command-line front end is not re-exported
            continue
        module = importlib.import_module(f"wcpd.{info.name}")
        assert set(getattr(module, "__all__", ())) <= set(PUBLIC), info.name
