"""Dependency-aware self-training for knowledge-graph entity alignment."""

from .calibration import CalibrationParams, ProbRow, calibrate_row, fit_calibration
from .compatibility import (
    RelationStats,
    conditional_distribution,
    estimate_relation_stats,
    local_compatibility,
    refine_rows,
)
from .kg import (
    Kg,
    KgPair,
    MappingSet,
    Partition,
    load_dataset,
    load_kg,
    partition_mappings,
)
from .metrics import evaluate_rows, pseudo_quality
from .models import (
    EmbeddingAligner,
    EmbeddingAlignerParams,
    ExternalSimilarityModel,
    SimMatrix,
    SyntheticOracle,
)
from .selftrain import IterationReport, RunConfig, run_selftrain, run_supervised

__version__ = "0.1.0"
