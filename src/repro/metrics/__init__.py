"""Evaluation metrics of Section III-C."""

from repro.metrics.rmse import rmse, top_alpha_rmse
from repro.metrics.cost import (
    cost_to_reach,
    cumulative_cost,
    speedup_at_level,
)

__all__ = [
    "rmse",
    "top_alpha_rmse",
    "cumulative_cost",
    "cost_to_reach",
    "speedup_at_level",
]
