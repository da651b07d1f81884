"""Random-forest regression built from scratch.

The paper's surrogate is a random forest whose *across-tree prediction
variance* serves as the uncertainty estimate every sampling strategy consumes
(Section II-B, citing Hutter et al. [14]).  scikit-learn is not available in
this environment, and the forest is load-bearing for the method, so this
subpackage implements the full stack:

* :mod:`repro.forest.splitter` — vectorised exact CART split search (MSE
  criterion),
* :mod:`repro.forest.tree` — array-backed regression trees with iterative
  construction and vectorised prediction, each split drawing a third of
  the features (:func:`~repro.forest.tree.n_split_features`) and each
  node splitting until it is pure or holds one sample,
* :mod:`repro.forest.forest` — bagging ensemble (one bootstrap sample per
  tree), predictive mean / uncertainty, warm partial updates, and the
  surrogate protocol's packed (format 2) payload,
* :mod:`repro.forest.packed` — all trees concatenated into one SoA,
  traversed for every (row, tree) lane in a single vectorised pass,
* :mod:`repro.forest.uncertainty` — across-tree std (the paper's estimator)
  and a law-of-total-variance alternative (ablation target).
"""

from repro.forest.tree import RegressionTree
from repro.forest.packed import PackedForest
from repro.forest.forest import RandomForestRegressor

__all__ = [
    "RegressionTree",
    "PackedForest",
    "RandomForestRegressor",
]
