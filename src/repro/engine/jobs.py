"""Trial job specifications with stable content-address keys.

A :class:`TrialJob` is the unit of work the execution engine schedules: one
Algorithm 1 run of one strategy on one benchmark at one scale, for one trial
index.  The job carries everything needed to execute the trial in *any*
process — benchmark name, strategy (name or pre-built instance), scale,
root seed, α settings and learner-config overrides — and exposes a
content-address :meth:`TrialJob.key` over that specification.

The key serves two roles:

* **cache identity** — the result store files completed traces under it, so
  a re-run (or a resumed run after a kill) recognises finished work;
* **randomness identity** — :meth:`TrialJob.rng` derives the trial's root
  generator from the key via SHA-256, so a trial's random stream depends
  only on *what* is being run, never on scheduling order or worker
  placement.  Serial and parallel execution therefore produce bit-identical
  traces.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.experiments.config import ExperimentScale
from repro.sampling import get_strategy
from repro.sampling.base import SamplingStrategy

__all__ = [
    "TrialJob",
    "TrialResult",
    "EngineJobError",
    "trial_jobs",
    "JOB_SCHEMA_VERSION",
]

#: Bumped whenever the job spec or the trial RNG derivation changes in a way
#: that invalidates previously stored results.
JOB_SCHEMA_VERSION = 1

#: Default α grid, mirroring ``repro.experiments.runner.DEFAULT_ALPHAS``
#: (duplicated here to keep this module import-light for worker processes).
_DEFAULT_ALPHAS: tuple[float, ...] = (0.01, 0.05, 0.10)


def _strategy_spec(strategy: "str | SamplingStrategy") -> str:
    """Canonical string identity of a strategy (name or instance).

    Named strategies are keyed by name (their construction is owned by
    :func:`repro.sampling.get_strategy` plus the job's ``alpha``).  Instances
    — used by the ablation drivers to sweep hyper-parameters — are keyed by
    class path plus their sorted public attributes, which is stable across
    processes (unlike ``id()``-based default reprs).
    """
    if isinstance(strategy, str):
        return f"name:{strategy}"
    cls = type(strategy)
    params = ",".join(
        f"{k}={v!r}" for k, v in sorted(vars(strategy).items())
        if not k.startswith("_")
    )
    return f"{cls.__module__}.{cls.__qualname__}({params})"


@dataclass(frozen=True)
class TrialJob:
    """Immutable spec of one active-learning trial.

    ``config_overrides`` is stored as a sorted tuple of ``(field, value)``
    pairs so the job stays hashable-by-content and its canonical form is
    order-independent.
    """

    benchmark: str
    strategy: "str | SamplingStrategy"
    scale: ExperimentScale
    seed: int
    trial: int
    alpha: float = 0.05
    alphas: tuple[float, ...] = _DEFAULT_ALPHAS
    config_overrides: tuple = ()
    #: Cached hex key (content-derived, excluded from equality).
    _key: "str | None" = field(default=None, compare=False, repr=False)

    def spec(self) -> dict:
        """JSON-serialisable canonical form of the job (what the key hashes).

        The scale's cosmetic ``name`` is excluded: a custom scale with the
        same knobs as ``smoke`` must share cache entries with it.  Floats are
        rendered with ``repr`` so the form is exact and platform-stable.
        """
        scale = {k: v for k, v in asdict(self.scale).items() if k != "name"}
        return {
            "schema": JOB_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "strategy": _strategy_spec(self.strategy),
            "scale": scale,
            "seed": int(self.seed),
            "trial": int(self.trial),
            "alpha": repr(float(self.alpha)),
            "alphas": [repr(float(a)) for a in self.alphas],
            "config_overrides": {
                str(k): repr(v) for k, v in self.config_overrides
            },
        }

    def key(self) -> str:
        """SHA-256 content address of :meth:`spec` (64 hex chars)."""
        if self._key is None:
            payload = json.dumps(
                self.spec(), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            digest = hashlib.sha256(payload).hexdigest()
            object.__setattr__(self, "_key", digest)
        return self._key

    def rng(self) -> np.random.Generator:
        """The trial's root generator, derived from the job key.

        Hashing the key (rather than seeding from loop order) makes the
        stream a pure function of the job spec: any process executing this
        job — serially, in a pool worker, or in a resumed run — draws the
        identical sequence.
        """
        digest = hashlib.sha256(f"trial-rng:{self.key()}".encode()).digest()
        words = [
            int.from_bytes(digest[i: i + 8], "big") for i in range(0, 32, 8)
        ]
        return np.random.default_rng(np.random.SeedSequence(words))

    def build_strategy(self) -> SamplingStrategy:
        """Instantiate the strategy for one execution of this job.

        Instances are deep-copied so trials sharing a job template can never
        leak state through a common strategy object.
        """
        if isinstance(self.strategy, str):
            return get_strategy(self.strategy, alpha=self.alpha)
        return copy.deepcopy(self.strategy)

    def overrides_dict(self) -> "dict | None":
        """``config_overrides`` as the dict :class:`LearnerConfig` patching expects."""
        return dict(self.config_overrides) if self.config_overrides else None

    def describe(self) -> str:
        """Short human-readable label for progress displays."""
        s = self.strategy if isinstance(self.strategy, str) else type(self.strategy).__name__
        return f"{self.benchmark}/{s}#{self.trial}"


@dataclass(frozen=True)
class TrialResult:
    """Terminal outcome of one scheduled job: a trace, or a recorded failure.

    The engine returns one of these per job key instead of raising when a
    job exhausts its retries, so a single pathological trial cannot abort
    a campaign and discard its siblings' completed work.  ``history`` is
    the trace on success and ``None`` on failure; ``error`` is the
    one-line failure description (exception repr or timeout note) of the
    *last* attempt; ``attempts`` counts executions including retries
    (0 for store hits); ``cached`` marks results served from the store.
    """

    key: str
    history: "LearningHistory | None"
    attempts: int = 1
    error: "str | None" = None
    cached: bool = False

    @property
    def ok(self) -> bool:
        """Whether the job produced a usable trace."""
        return self.history is not None

    def unwrap(self) -> "LearningHistory":
        """The trace, or :class:`EngineJobError` if the job failed."""
        if self.history is None:
            raise EngineJobError(
                f"job {self.key[:12]} failed after {self.attempts} "
                f"attempt(s): {self.error}"
            )
        return self.history


class EngineJobError(RuntimeError):
    """One or more jobs failed permanently (retries exhausted)."""

    def __init__(self, message: str, failures: "tuple[TrialResult, ...]" = ()):
        super().__init__(message)
        self.failures = failures


def trial_jobs(
    benchmark_name: str,
    strategy: "str | SamplingStrategy",
    scale: ExperimentScale,
    seed: int = 0,
    alpha: float = 0.05,
    alphas: tuple[float, ...] = _DEFAULT_ALPHAS,
    config_overrides: "dict | None" = None,
) -> "list[TrialJob]":
    """The ``scale.n_trials`` jobs of one (benchmark, strategy) experiment."""
    overrides = tuple(sorted((config_overrides or {}).items()))
    return [
        TrialJob(
            benchmark=benchmark_name,
            strategy=strategy,
            scale=scale,
            seed=seed,
            trial=trial,
            alpha=alpha,
            alphas=tuple(alphas),
            config_overrides=overrides,
        )
        for trial in range(scale.n_trials)
    ]
