"""Algorithm 1 — the active-learning loop.

Cold start: draw ``n_init`` random pool configurations, measure them, fit
the forest.  Iterate: the sampling strategy picks ``n_batch`` configurations
from the remaining pool using the fitted forest; they are measured, appended
to the training set, and the forest is refit (or partially refreshed) —
until the training set reaches ``n_max``.  After the cold start and after
every ``eval_every``-th iteration the model is evaluated on the held-out
test set (RMSE@α per Equation 2) and the trace recorded.

The loop body is exposed as two incremental entry points —
:meth:`ActiveLearner.suggest` (pick the next batch) and
:meth:`ActiveLearner.observe` (feed back the measured labels) — so
external drivers that *own the measurement step* (the tuning service's
client-evaluated sessions, interactive notebooks) reuse the exact
select/record logic instead of reimplementing it.  :meth:`ActiveLearner.run`
is a thin loop over the two and stays bit-identical to the historical
monolithic implementation (enforced by ``tests/test_trace_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.active.history import IterationRecord, LearningHistory
from repro.metrics import cumulative_cost, rmse
from repro.rng import as_generator
from repro.sampling.base import SamplingStrategy, consume_selection_stats
from repro.space import DataPool
from repro.surrogate import Surrogate, make_surrogate, supports_partial_update
from repro.surrogate.registry import surrogate_entry
from repro.telemetry import counters, span

__all__ = ["LearnerConfig", "ActiveLearner"]


@dataclass(frozen=True)
class LearnerConfig:
    """Algorithm 1 parameters (paper defaults from Section III-D)."""

    n_init: int = 10
    n_batch: int = 1
    n_max: int = 500
    #: α values to evaluate RMSE at after each evaluation point.
    alphas: tuple[float, ...] = (0.01, 0.05, 0.10)
    #: Evaluate the model every this many iterations (1 = paper protocol).
    eval_every: int = 1
    #: "scratch" refits all trees per iteration (paper default);
    #: "partial" refreshes only ``refresh_fraction`` of them.
    retrain: str = "scratch"
    refresh_fraction: float = 0.3
    #: Surrogate family, built by name through the :mod:`repro.surrogate`
    #: registry (with ``n_estimators``, ``uncertainty`` and the learner's
    #: RNG): "forest" (the paper's choice), "gp" (the Section II-B baseline),
    #: "select"/"stack" (cross-validated meta-surrogates), or a downstream one.
    surrogate: str = "forest"
    #: Forest hyper-parameters.
    n_estimators: int = 30
    uncertainty: str = "across_trees"

    def __post_init__(self) -> None:
        if self.n_init < 1:
            raise ValueError("n_init must be >= 1")
        if self.n_batch < 1:
            raise ValueError("n_batch must be >= 1")
        if self.n_max < self.n_init:
            raise ValueError("n_max must be >= n_init")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.retrain not in ("scratch", "partial"):
            raise ValueError(f"retrain must be 'scratch' or 'partial', got {self.retrain!r}")
        try:
            surrogate_entry(self.surrogate)
        except KeyError as exc:
            # Config validation raises ValueError (like every other field);
            # the registry's did-you-mean message is preserved.
            raise ValueError(exc.args[0]) from None
        if self.retrain == "partial" and not supports_partial_update(self.surrogate):
            raise ValueError(
                f"the {self.surrogate!r} surrogate only supports retrain='scratch'"
            )
        if not self.alphas:
            raise ValueError("at least one alpha is required")
        if any(not 0.0 < a <= 1.0 for a in self.alphas):
            raise ValueError("alphas must lie in (0, 1]")


@dataclass
class ActiveLearner:
    """Runs Algorithm 1 against a pool, an oracle, and a test set.

    Parameters
    ----------
    pool:
        The unlabeled configuration pool (will be mutated by the run).
    evaluate:
        The labeling oracle: encoded matrix → measured times.  Typically
        ``lambda X: benchmark.measure_encoded(X, rng)``.
    X_test, y_test:
        Held-out test set (labels measured in advance, per Section III-C).
    strategy:
        The sampling strategy under study.
    config:
        Loop and forest parameters.
    seed:
        Root seed for the run's randomness (cold start, strategy
        tie-breaking, forest bootstrap).
    cold_start_indices:
        Optional explicit pool indices for the cold start instead of the
        random draw of Algorithm 1 line 1 — used by the transfer-learning
        extension (:mod:`repro.transfer`) to seed the run from a source
        model's beliefs.  Length must equal ``config.n_init``.
    """

    pool: DataPool
    evaluate: "callable"
    X_test: np.ndarray
    y_test: np.ndarray
    strategy: SamplingStrategy
    config: LearnerConfig = field(default_factory=LearnerConfig)
    seed: "int | np.random.Generator | None" = None
    cold_start_indices: "np.ndarray | None" = None

    def __post_init__(self) -> None:
        self.rng = as_generator(self.seed)
        self.X_test = np.asarray(self.X_test, dtype=np.float64)
        self.y_test = np.asarray(self.y_test, dtype=np.float64)
        if len(self.X_test) != len(self.y_test):
            raise ValueError("test set features and labels disagree in length")
        if self.config.n_max > self.pool.n_total:
            raise ValueError(
                f"n_max={self.config.n_max} exceeds pool size {self.pool.n_total}"
            )
        n_test = len(self.y_test)
        m = int(np.floor(n_test * min(self.config.alphas)))
        if m < 1:
            raise ValueError(
                f"test set of {n_test} is too small for "
                f"alpha={min(self.config.alphas)}"
            )
        # Eq. 2 reads only the top ⌊n·α⌋ rows of the fixed test ranking:
        # sort once and keep the first n_top.  A stable order's first ⌊n·α⌋
        # entries are a prefix of those, so each α's RMSE reads the floats
        # top_alpha_rmse would, in its order.  Never fewer than two rows:
        # at one column the across-tree reductions sum pairwise instead.
        n_top = max(2, int(np.floor(n_test * max(self.config.alphas))))
        self._top_order = np.argsort(self.y_test, kind="stable")[:n_top]
        self._top_X = np.ascontiguousarray(self.X_test[self._top_order])
        self._top_y = self.y_test[self._top_order]
        self._top_m = {
            f"{a:g}": int(np.floor(n_test * a)) for a in self.config.alphas
        }
        self.model: Surrogate | None = None
        self.X_train = np.empty((0, self.pool.X.shape[1]))
        self.y_train = np.empty(0)
        self.history = LearningHistory()
        self._pending_selected: list[int] = []
        self._pending_mu: list[float] = []
        self._pending_sigma: list[float] = []
        #: Batch issued by :meth:`suggest` and not yet fed to
        #: :meth:`observe`: ``(phase, indices, X, mu, sigma)`` or ``None``.
        self._awaiting: "tuple | None" = None
        self._iteration = 0

    # -- internals ---------------------------------------------------------
    def _make_model(self) -> Surrogate:
        cfg = self.config
        # The shared self.rng stream: surrogate construction and fitting
        # draw from the same generator as the strategy, so runs stay
        # bit-identical regardless of execution layout.
        return make_surrogate(cfg.surrogate, config=cfg, rng=self.rng)

    def _refit(self, X_new: np.ndarray, y_new: np.ndarray) -> None:
        with span("learner.refit", n_train=len(self.y_train), mode=self.config.retrain):
            if self.model is None or self.config.retrain == "scratch":
                self.model = self._make_model()
                self.model.fit(self.X_train, self.y_train)
            else:
                self.model.update(X_new, y_new, self.config.refresh_fraction)
        counters.inc("learner.refits")

    def _evaluate(self, X: np.ndarray) -> np.ndarray:
        """Query the labeling oracle under the ``learner.evaluate`` span.

        The oracle is called exactly once per batch with the whole encoded
        matrix — the :meth:`~repro.workloads.base.Benchmark.evaluate_batch`
        contract — never once per configuration, so closed-form benchmarks
        amortise their vectorised evaluation and noise draw across the
        batch.  ``learner.batch_rows`` gauges the batch sizes flowing
        through (``n_init`` for the cold start, ``n_batch`` after).
        """
        with span("learner.evaluate", n=len(X)):
            y = np.asarray(self.evaluate(X), dtype=np.float64)
        counters.inc("learner.evaluations", len(X))
        counters.gauge("learner.batch_rows", len(X))
        return y

    def _record(self) -> None:
        assert self.model is not None
        with span("learner.record", n_train=len(self.y_train)):
            self._record_inner()

    def _test_rmse(self) -> dict[str, float]:
        """Eq. 2 at every α, predicting only the top of the test ranking.

        A surrogate that is not ``row_wise`` predicts the whole test set,
        so its rows round exactly as in a full-set query.
        """
        if self.model.row_wise:
            pred = self.model.predict(self._top_X)
        else:
            pred = self.model.predict(self.X_test)[self._top_order]
        return {
            key: rmse(self._top_y[:m], pred[:m]) for key, m in self._top_m.items()
        }

    def _record_inner(self) -> None:
        self.history.append(
            IterationRecord(
                n_train=len(self.y_train),
                cumulative_cost=cumulative_cost(self.y_train),
                rmse=self._test_rmse(),
                selected=tuple(self._pending_selected),
                selected_mu=tuple(self._pending_mu),
                selected_sigma=tuple(self._pending_sigma),
            )
        )
        self._pending_selected.clear()
        self._pending_mu.clear()
        self._pending_sigma.clear()

    # -- incremental entry points ------------------------------------------
    @property
    def done(self) -> bool:
        """Whether the training set has reached ``config.n_max``."""
        return self.model is not None and len(self.y_train) >= self.config.n_max

    @property
    def n_labeled(self) -> int:
        """Number of labeled configurations in the training set so far."""
        return len(self.y_train)

    @property
    def pending(self) -> "tuple[np.ndarray, np.ndarray] | None":
        """The outstanding suggested batch as ``(indices, X)``, or ``None``.

        Set by :meth:`suggest` and cleared by :meth:`observe`; the arrays
        are the pool indices and their encoded rows.
        """
        if self._awaiting is None:
            return None
        return self._awaiting[1], self._awaiting[2]

    def suggest(self, n: "int | None" = None) -> np.ndarray:
        """Pick the next batch to measure; returns its global pool indices.

        The first call performs the cold start (Algorithm 1 line 1): a
        random draw of ``config.n_init`` configurations (or the caller's
        ``cold_start_indices``).  Subsequent calls run the strategy's
        selection (line 6) with the live surrogate.  ``n`` overrides
        ``config.n_batch`` for this one batch (clamped to the remaining
        budget; ignored for the cold start, whose size is ``n_init``).

        Calling :meth:`suggest` again before :meth:`observe` returns the
        *same* outstanding batch without consuming any randomness — the
        idempotence the tuning service's crash-safe suggest/report
        protocol relies on.  Raises :class:`RuntimeError` once the budget
        is exhausted (:attr:`done`).
        """
        if self._awaiting is not None:
            return self._awaiting[1]
        if self.done:
            raise RuntimeError(
                f"budget exhausted: {len(self.y_train)} of "
                f"{self.config.n_max} labels collected"
            )
        cfg = self.config
        if self.model is None:
            # Cold start (lines 1-4): random initial sample, unless the
            # caller provided transfer-seeded indices.
            if self.cold_start_indices is not None:
                init_idx = np.asarray(self.cold_start_indices, dtype=np.intp)
                if len(init_idx) != cfg.n_init:
                    raise ValueError(
                        f"cold_start_indices has {len(init_idx)} entries, "
                        f"config.n_init is {cfg.n_init}"
                    )
            else:
                init_idx = self.rng.choice(
                    self.pool.available_indices(), size=cfg.n_init, replace=False
                )
            X0 = self.pool.take(init_idx)
            self._awaiting = ("cold", init_idx, X0, None, None)
            return init_idx
        if n is not None and n < 1:
            raise ValueError(f"suggest(n) requires n >= 1, got {n}")
        n_batch = min(n if n is not None else cfg.n_batch,
                      cfg.n_max - len(self.y_train))
        model_arg = self.model if self.strategy.requires_model else None
        with span("learner.select", n_batch=n_batch, iteration=self._iteration):
            batch_idx = np.asarray(
                self.strategy.select(model_arg, self.pool, n_batch, self.rng)
            )
            Xb = self.pool.take(batch_idx)
            # Selection-time model view of the batch (what Fig. 9 plots).
            # Score-based strategies stash the (mu, sigma) they just
            # ranked; reuse those instead of re-predicting the batch
            # (bit-identical — they are the same floats).  Model-free or
            # filter strategies stash nothing: fresh prediction.
            stats = consume_selection_stats(self.strategy, batch_idx)
            if stats is None:
                mu_b, sigma_b = self.model.predict_with_uncertainty(Xb)
            else:
                mu_b, sigma_b = stats
        counters.inc("learner.selections", n_batch)
        self._awaiting = ("step", batch_idx, Xb, mu_b, sigma_b)
        return batch_idx

    def observe(
        self, y: np.ndarray, indices: "np.ndarray | None" = None
    ) -> None:
        """Feed back measured labels for the batch :meth:`suggest` issued.

        ``y`` holds one label per suggested configuration, in suggestion
        order.  ``indices`` optionally re-states the batch's pool indices
        as a consistency check (a mismatch raises — the guard the service
        uses against out-of-order reports).  Updates the training set,
        refits the surrogate, and appends an evaluation record per the
        ``eval_every`` cadence.
        """
        if self._awaiting is None:
            raise RuntimeError("observe() without a pending suggest()")
        phase, batch_idx, Xb, mu_b, sigma_b = self._awaiting
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (len(Xb),):
            raise RuntimeError(
                f"oracle returned {y.shape} labels for {len(Xb)} configs"
            )
        if indices is not None:
            stated = np.asarray(indices, dtype=np.intp)
            if stated.shape != batch_idx.shape or not (
                stated == np.asarray(batch_idx, dtype=np.intp)
            ).all():
                raise ValueError(
                    f"observe() indices {stated.tolist()} do not match the "
                    f"pending suggestion {np.asarray(batch_idx).tolist()}"
                )
        self._awaiting = None
        if phase == "cold":
            self.X_train = np.asarray(Xb, dtype=np.float64).copy()
            self.y_train = y
            self._refit(Xb, y)
            self._pending_selected.extend(int(i) for i in batch_idx)
            self._record()
            return
        self.X_train = np.vstack([self.X_train, Xb])
        self.y_train = np.concatenate([self.y_train, y])
        self._refit(Xb, y)
        self._pending_selected.extend(int(i) for i in batch_idx)
        self._pending_mu.extend(float(m) for m in mu_b)
        self._pending_sigma.extend(float(s) for s in sigma_b)
        self._iteration += 1
        is_last = len(self.y_train) >= self.config.n_max
        if self._iteration % self.config.eval_every == 0 or is_last:
            self._record()

    # -- the loop --------------------------------------------------------------
    def run(self) -> LearningHistory:
        """Execute Algorithm 1 to completion and return the trace.

        A loop over :meth:`suggest` / :meth:`observe` with the labeling
        oracle in between — bit-identical to the historical monolithic
        implementation.
        """
        while not self.done:
            self.suggest()
            _, Xb = self.pending
            self.observe(self._evaluate(Xb))
        return self.history
