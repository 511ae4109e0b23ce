"""Toolkit for validating, synchronizing, and analyzing multimodal
music-performance session recordings: skin conductance, four EEG channels,
2-D skeleton keypoints, and self-reported flow, aligned to a musical
beat/bar grid of a shared backing track.
"""

import os
import sys
import threading
from importlib.util import LazyLoader, find_spec, module_from_spec

# OpenBLAS reads its thread count once, as numpy loads it.  One thread skips
# starting a pool that the package's short dot products never use, and keeps
# long correlations' bits independent of the core count.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .model import (
    BarFeatureMatrix,
    BeatGrid,
    Keypoint,
    QualityReport,
    Record,
    Session,
    column_values,
    validate_record,
    validate_session,
)

# Registered unrun, every submodule is listed in sys.modules (where
# perfbench/spans.py finds the layers); its body runs on first read.
_SUBMODULES = ("analytics", "cluster", "ingest", "quality", "stats", "svg", "timing")
for _spec in [find_spec(f"{__name__}.{name}") for name in _SUBMODULES]:
    sys.modules[_spec.name] = module_from_spec(_spec)
    LazyLoader(_spec.loader).exec_module(sys.modules[_spec.name])
_LOADING = threading.RLock()  # before Python 3.13, LazyLoader takes no lock


def __getattr__(name: str):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = sys.modules[f"{__name__}.{name}"]
    with _LOADING:
        module.__dict__  # reading an attribute runs a lazy module's body
    return module


__version__ = "0.1.0"

__all__ = [
    "analytics",
    "cluster",
    "errors",
    "ingest",
    "quality",
    "stats",
    "svg",
    "timing",
    "BarFeatureMatrix",
    "BeatGrid",
    "Keypoint",
    "QualityReport",
    "Record",
    "Session",
    "column_values",
    "validate_record",
    "validate_session",
    "__version__",
]
