"""Averaging repeated active-learning trials (Section IV: 10 runs averaged)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.active import LearningHistory

__all__ = ["AveragedTrace", "average_histories"]


@dataclass(frozen=True)
class AveragedTrace:
    """Trial-averaged learning trace for one (benchmark, strategy) pair."""

    strategy: str
    n_train: np.ndarray
    cc_mean: np.ndarray
    cc_std: np.ndarray
    #: alpha key → (mean, std) RMSE arrays aligned with ``n_train``.
    rmse_mean: dict[str, np.ndarray]
    rmse_std: dict[str, np.ndarray]
    n_trials: int

    def final_rmse(self, alpha_key: str) -> float:
        return float(self.rmse_mean[alpha_key][-1])

    def min_rmse(self, alpha_key: str) -> float:
        return float(self.rmse_mean[alpha_key].min())

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "n_trials": self.n_trials,
            "n_train": self.n_train.tolist(),
            "cc_mean": self.cc_mean.tolist(),
            "cc_std": self.cc_std.tolist(),
            "rmse_mean": {k: v.tolist() for k, v in self.rmse_mean.items()},
            "rmse_std": {k: v.tolist() for k, v in self.rmse_std.items()},
        }


def average_histories(
    strategy: str, histories: "list[LearningHistory]"
) -> AveragedTrace:
    """Average aligned traces from repeated trials.

    All trials of one configuration share the evaluation schedule
    (same n_init/n_batch/eval_every), so their ``n_train`` axes must agree —
    a mismatch indicates a protocol bug and raises.
    """
    if not histories:
        raise ValueError("need at least one history to average")
    base = histories[0].n_train
    for h in histories[1:]:
        if not np.array_equal(h.n_train, base):
            raise ValueError(
                "trial evaluation points differ; traces cannot be averaged"
            )
    alpha_keys = histories[0].alpha_keys()
    cc = np.stack([h.cumulative_cost for h in histories])
    rmse = {
        k: np.stack([h.rmse_series(k) for h in histories]) for k in alpha_keys
    }
    return AveragedTrace(
        strategy=strategy,
        n_train=base.copy(),
        cc_mean=cc.mean(axis=0),
        cc_std=cc.std(axis=0),
        rmse_mean={k: v.mean(axis=0) for k, v in rmse.items()},
        rmse_std={k: v.std(axis=0) for k, v in rmse.items()},
        n_trials=len(histories),
    )
