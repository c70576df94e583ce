"""Resource-estimation front end (paper §3.4): reports, parameter sweeps,
and batched shot statistics (logical-error / outcome summaries)."""

from repro.estimator.report import (
    format_logical_summary,
    format_outcome_summary,
    format_resource_table,
    logical_outcome_statistics,
    outcome_statistics,
)
from repro.estimator.cache import CheckpointError, ResultCache
from repro.estimator.jobs import SweepCell, payload_fingerprint, run_cells
from repro.estimator.spec import ExperimentSpec
from repro.estimator.sweep import sweep_operation, OPERATION_PROGRAMS

__all__ = [
    "format_resource_table",
    "format_outcome_summary",
    "format_logical_summary",
    "outcome_statistics",
    "logical_outcome_statistics",
    "sweep_operation",
    "OPERATION_PROGRAMS",
    "CheckpointError",
    "ResultCache",
    "SweepCell",
    "ExperimentSpec",
    "payload_fingerprint",
    "run_cells",
]
