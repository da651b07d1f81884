"""Gaussian-process surrogate — the baseline model the paper argues against.

Section II-B: *"A common choice of model is Gaussian Process ... It usually
works well for numerical features but not categorical features and fits
only noise-free or Gaussian noise observations."*  The paper adopts random
forests instead.  To make that argument testable rather than rhetorical,
this subpackage implements one standard GP regressor (RBF kernel, Gaussian
noise, marginal-likelihood hyper-parameter fitting) on log execution time,
exposing the same ``predict`` / ``predict_with_uncertainty`` interface as
the forest, so the active-learning loop can run on either;
``bench_ablation_surrogate`` compares them on the mixed
numerical/categorical SPAPT spaces.
"""

from repro.gp.gp import GaussianProcessRegressor

__all__ = ["GaussianProcessRegressor"]
