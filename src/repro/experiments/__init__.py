"""Experiment drivers reproducing the paper's evaluation (Sections III-IV).

The pipeline: :mod:`repro.experiments.runner` executes repeated
active-learning runs per (benchmark, strategy) and averages their traces;
:mod:`repro.experiments.figures` arranges those traces into the paper's
figures and tables; :mod:`repro.experiments.report` renders everything as
text series and JSON for a plot-free environment.
"""

from repro.experiments.config import ExperimentScale, SCALES
from repro.experiments.aggregate import AveragedTrace, average_histories
from repro.experiments.runner import (
    comparison_traces,
    prepare_data,
    strategy_trace,
)

__all__ = [
    "ExperimentScale",
    "SCALES",
    "AveragedTrace",
    "average_histories",
    "prepare_data",
    "strategy_trace",
    "comparison_traces",
]
