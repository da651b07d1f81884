"""Per-iteration records of an active-learning run.

The history is what every figure of the paper is drawn from: RMSE@α and
cumulative cost as functions of the number of labeled samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["IterationRecord", "LearningHistory"]


@dataclass(frozen=True)
class IterationRecord:
    """State after one Algorithm 1 evaluation point (or the cold start).

    ``selected`` covers *every* strategy selection since the previous
    record (evaluation may be sparser than selection when
    ``eval_every > 1``); ``selected_mu``/``selected_sigma`` are the model's
    prediction and uncertainty for those configurations *at selection
    time* — the quantities Fig. 9 plots.
    """

    n_train: int
    cumulative_cost: float
    #: RMSE@α on the held-out test set, one entry per evaluated α.
    rmse: dict[str, float]
    #: Global pool indices selected since the last record (cold-start
    #: indices for the first record).
    selected: tuple[int, ...] = ()
    #: Model prediction for each selected configuration at selection time.
    selected_mu: tuple[float, ...] = ()
    #: Model uncertainty for each selected configuration at selection time.
    selected_sigma: tuple[float, ...] = ()


@dataclass
class LearningHistory:
    """Append-only trace of a run, with array accessors for the metrics."""

    records: list[IterationRecord] = field(default_factory=list)

    def append(self, record: IterationRecord) -> None:
        if self.records and record.n_train <= self.records[-1].n_train:
            raise ValueError(
                "training-set size must strictly increase between records"
            )
        if self.records and record.cumulative_cost < self.records[-1].cumulative_cost:
            raise ValueError("cumulative cost cannot decrease")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def n_train(self) -> np.ndarray:
        return np.asarray([r.n_train for r in self.records], dtype=np.intp)

    @property
    def cumulative_cost(self) -> np.ndarray:
        return np.asarray(
            [r.cumulative_cost for r in self.records], dtype=np.float64
        )

    def rmse_series(self, alpha_key: str) -> np.ndarray:
        """RMSE trace for one α key (e.g. ``"0.01"``)."""
        try:
            return np.asarray(
                [r.rmse[alpha_key] for r in self.records], dtype=np.float64
            )
        except KeyError:
            known = sorted(self.records[0].rmse) if self.records else []
            raise KeyError(
                f"no RMSE series for alpha {alpha_key!r}; recorded: {known}"
            ) from None

    def alpha_keys(self) -> tuple[str, ...]:
        return tuple(sorted(self.records[0].rmse)) if self.records else ()

    def all_selected(self, include_cold_start: bool = False) -> tuple[int, ...]:
        """Every pool index the run labeled, in selection order."""
        records = self.records if include_cold_start else self.records[1:]
        return tuple(i for r in records for i in r.selected)

    def selection_statistics(self) -> tuple[np.ndarray, np.ndarray]:
        """Selection-time (μ, σ) of every strategy-selected configuration."""
        mu = [m for r in self.records[1:] for m in r.selected_mu]
        sigma = [s for r in self.records[1:] for s in r.selected_sigma]
        return np.asarray(mu, dtype=np.float64), np.asarray(sigma, dtype=np.float64)

    def to_dict(self) -> dict:
        """Lossless JSON-serialisable form.

        One schema serves both the engine's result store and ``dump_json``:
        the summary arrays (``n_train``/``cumulative_cost``/``rmse``) keep
        the historical shape external consumers read, while ``records``
        carries every :class:`IterationRecord` field so
        :meth:`from_dict` round-trips the trace exactly (JSON floats
        round-trip IEEE doubles losslessly).
        """
        return {
            "n_train": self.n_train.tolist(),
            "cumulative_cost": self.cumulative_cost.tolist(),
            "rmse": {k: self.rmse_series(k).tolist() for k in self.alpha_keys()},
            "records": [
                {
                    "n_train": int(r.n_train),
                    "cumulative_cost": float(r.cumulative_cost),
                    "rmse": {k: float(v) for k, v in r.rmse.items()},
                    "selected": [int(i) for i in r.selected],
                    "selected_mu": [float(m) for m in r.selected_mu],
                    "selected_sigma": [float(s) for s in r.selected_sigma],
                }
                for r in self.records
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LearningHistory":
        """Inverse of :meth:`to_dict`: rebuilds the trace from ``records``."""
        history = cls()
        for rec in d["records"]:
            history.append(
                IterationRecord(
                    n_train=int(rec["n_train"]),
                    cumulative_cost=float(rec["cumulative_cost"]),
                    rmse={k: float(v) for k, v in rec["rmse"].items()},
                    selected=tuple(int(i) for i in rec["selected"]),
                    selected_mu=tuple(float(m) for m in rec["selected_mu"]),
                    selected_sigma=tuple(
                        float(s) for s in rec["selected_sigma"]
                    ),
                )
            )
        return history
