"""The front door: typed one-call experiment execution.

:func:`run` executes one (workload, strategy) study — repeated trials
through the parallel engine, averaged — and :func:`compare` runs several
strategies against the same pool/test split.  Both return frozen result
objects carrying the averaged trace(s), headline metrics, and (when
``trace=True``) the path of the JSONL telemetry trace written for the
run.  They are thin wrappers over :mod:`repro.experiments.runner`; every
capability there (custom scales, α sweeps, engine overrides) is reachable
from here, and strategy names resolve exclusively through the registry in
:mod:`repro.sampling` (unknown names fail fast with a did-you-mean).
:func:`serve` and :func:`connect` are the facade over the tuning service
(:mod:`repro.service`): a sessioned suggest/report daemon and its client.

>>> import repro.api
>>> result = repro.api.run("atax", "pwu", seed=0, budget=60)
>>> result.metrics["final_rmse"]["0.05"]  # doctest: +SKIP
0.0123
"""

from __future__ import annotations

import dataclasses
import sys

from repro import telemetry
from repro.engine.context import EngineConfig, current_engine
from repro.experiments.aggregate import AveragedTrace
from repro.experiments.config import SCALES, ExperimentScale
from repro.experiments.runner import DEFAULT_ALPHAS, comparison_traces, strategy_trace
from repro.sampling import get_strategy
from repro.surrogate import surrogate_entry

__all__ = [
    "RunResult",
    "CompareResult",
    "run",
    "compare",
    "distill",
    "serve",
    "connect",
]


@dataclasses.dataclass(frozen=True)
class RunResult:
    """Outcome of one :func:`run` call."""

    workload: str
    strategy: str
    seed: int
    #: Trial-averaged learning trace (RMSE@α and cost vs. training size).
    history: AveragedTrace
    #: Headline numbers: ``final_rmse`` (per α key), ``final_cost``,
    #: ``n_trials``.
    metrics: dict
    #: JSONL telemetry trace, or ``None`` when tracing was off.
    trace_path: "str | None" = None


@dataclasses.dataclass(frozen=True)
class CompareResult:
    """Outcome of one :func:`compare` call."""

    workload: str
    strategies: "tuple[str, ...]"
    seed: int
    #: strategy name → trial-averaged trace, shared pool/test split.
    traces: "dict[str, AveragedTrace]"
    #: strategy name → the same headline metrics :class:`RunResult` carries.
    metrics: dict
    trace_path: "str | None" = None


def _resolve_scale(scale: "str | ExperimentScale") -> ExperimentScale:
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise KeyError(
            f"unknown scale {scale!r}; choose from {', '.join(SCALES)} "
            f"or pass an ExperimentScale"
        ) from None


def _engine_config(
    jobs: "int | None",
    cache_dir: "str | None",
    max_retries: "int | None" = None,
    job_timeout: "float | None" = None,
) -> EngineConfig:
    config = current_engine()
    if jobs is not None:
        config = dataclasses.replace(config, jobs=int(jobs))
    if cache_dir is not None:
        config = dataclasses.replace(config, cache_dir=str(cache_dir))
    if max_retries is not None:
        config = dataclasses.replace(config, max_retries=int(max_retries))
    if job_timeout is not None:
        config = dataclasses.replace(config, job_timeout=float(job_timeout))
    return config


def _surrogate_overrides(surrogate: "str | None") -> "dict | None":
    """Validate a surrogate name and translate it to config overrides.

    ``None`` and the default ``"forest"`` both map to *no* overrides, so
    the default path's job keys — and therefore every committed trace and
    cached result — are byte-identical to what they were before the
    surrogate field existed.
    """
    if surrogate is None:
        return None
    surrogate_entry(surrogate)  # fail fast on unknown names (did-you-mean)
    if surrogate == "forest":
        return None
    return {"surrogate": surrogate}


def _trace_metrics(trace: AveragedTrace) -> dict:
    return {
        "final_rmse": {k: trace.final_rmse(k) for k in trace.rmse_mean},
        "final_cost": float(trace.cc_mean[-1]),
        "n_trials": trace.n_trials,
    }


def _traced(execute, trace: "bool | str", summary: bool):
    """Run ``execute()`` with tracing scoped to it; returns ``(result, path)``.

    With ``trace`` falsy the callable runs untouched (ambient tracing, if
    any, is left alone).  Otherwise the facade owns the ring buffer for
    the duration: it is cleared, the run recorded, and the events plus
    this run's counter deltas written to ``trace`` (a path) or a
    ``trace-<run_id>.jsonl`` default.
    """
    if not trace:
        return execute(), None
    telemetry.clear()
    counters_before = telemetry.counters_snapshot()
    with telemetry.tracing(True):
        result = execute()
    events = telemetry.drain_events()
    dropped = telemetry.dropped_events()
    delta = {
        name: value - counters_before.get(name, 0)
        for name, value in telemetry.counters_snapshot().items()
        if value != counters_before.get(name, 0)
    }
    run_id = "untagged"
    for event in events:
        if event.get("name") == "engine.run":
            run_id = event.get("attrs", {}).get("run_id", run_id)
    path = trace if isinstance(trace, str) else f"trace-{run_id}.jsonl"
    telemetry.write_trace(
        path,
        events,
        counters=delta,
        gauges=telemetry.gauges_snapshot(),
        run_id=run_id,
        dropped=dropped,
    )
    if summary:
        parsed = {"header": {"run_id": run_id, "dropped_events": dropped},
                  "events": events, "counters": delta, "gauges": {}}
        print(telemetry.summarize(parsed), file=sys.stderr)
    return result, path


def run(
    workload: str,
    strategy: str,
    *,
    seed: int = 0,
    budget: "int | None" = None,
    jobs: "int | None" = None,
    trace: "bool | str" = False,
    scale: "str | ExperimentScale" = "quick",
    trials: "int | None" = None,
    alpha: float = 0.05,
    alphas: "tuple[float, ...]" = DEFAULT_ALPHAS,
    cache_dir: "str | None" = None,
    trace_summary: bool = True,
    max_retries: "int | None" = None,
    job_timeout: "float | None" = None,
    surrogate: "str | None" = None,
) -> RunResult:
    """Run one strategy on one workload and average repeated trials.

    Parameters
    ----------
    workload, strategy:
        Benchmark and strategy names (registry-resolved; unknown strategy
        names raise immediately with a closest-match hint).
    surrogate:
        Surrogate family driving the loop, resolved through
        :mod:`repro.surrogate` ("forest", "gp", "select", "stack", ...);
        default is the paper's forest.  Unknown names raise immediately
        with a closest-match hint, and results stay bit-identical at any
        ``jobs`` for every family.
    seed:
        Root seed; trials derive their randomness content-addressed from
        it, so results are bit-identical at any ``jobs``.
    budget:
        Measurement budget — overrides the scale's ``n_max``.
    jobs:
        Worker processes (default: the ambient engine configuration).
    trace:
        ``True`` writes a JSONL telemetry trace next to the caller
        (``trace-<run_id>.jsonl``); a string names the file explicitly.
        A per-phase summary table is printed to stderr unless
        ``trace_summary=False``.
    scale, trials, alpha, alphas, cache_dir:
        Protocol knobs forwarded to the runner: experiment scale (name or
        :class:`ExperimentScale`), trial-count override, PWU α, evaluated
        α grid, and the persistent result store directory.
    max_retries, job_timeout:
        Fault-tolerance overrides: retry budget per job and per-attempt
        wall-clock limit in seconds (default: the ambient engine
        configuration; see :class:`repro.engine.EngineConfig`).  A job
        that exhausts its retries raises
        :class:`repro.engine.EngineJobError` after the batch completes,
        with finished trials preserved in the store.
    """
    get_strategy(strategy, alpha=alpha)  # fail fast on unknown names
    overrides = _surrogate_overrides(surrogate)
    resolved = _resolve_scale(scale)
    if budget is not None:
        resolved = dataclasses.replace(resolved, n_max=int(budget))
    if trials is not None:
        resolved = dataclasses.replace(resolved, n_trials=int(trials))
    engine = _engine_config(jobs, cache_dir, max_retries, job_timeout)

    def execute() -> AveragedTrace:
        return strategy_trace(
            workload,
            strategy,
            resolved,
            seed=seed,
            alpha=alpha,
            alphas=alphas,
            config_overrides=overrides,
            engine=engine,
        )

    history, trace_path = _traced(execute, trace, trace_summary)
    return RunResult(
        workload=workload,
        strategy=strategy,
        seed=seed,
        history=history,
        metrics=_trace_metrics(history),
        trace_path=trace_path,
    )


def compare(
    workload: str,
    strategies: "tuple[str, ...]",
    *,
    seed: int = 0,
    budget: "int | None" = None,
    jobs: "int | None" = None,
    trace: "bool | str" = False,
    scale: "str | ExperimentScale" = "quick",
    trials: "int | None" = None,
    alpha: float = 0.05,
    alphas: "tuple[float, ...]" = DEFAULT_ALPHAS,
    cache_dir: "str | None" = None,
    trace_summary: bool = True,
    max_retries: "int | None" = None,
    job_timeout: "float | None" = None,
    surrogate: "str | None" = None,
) -> CompareResult:
    """Run several strategies against one shared pool/test split.

    All (strategy, trial) jobs are submitted in a single engine batch, so
    ``jobs=N`` parallelism spans strategies.  Parameters are as in
    :func:`run`; ``strategies`` is any iterable of registered names, and
    ``surrogate`` applies one family to every strategy in the comparison.
    """
    strategies = tuple(strategies)
    for name in strategies:
        get_strategy(name, alpha=alpha)
    overrides = _surrogate_overrides(surrogate)
    resolved = _resolve_scale(scale)
    if budget is not None:
        resolved = dataclasses.replace(resolved, n_max=int(budget))
    if trials is not None:
        resolved = dataclasses.replace(resolved, n_trials=int(trials))
    engine = _engine_config(jobs, cache_dir, max_retries, job_timeout)

    def execute() -> "dict[str, AveragedTrace]":
        return comparison_traces(
            workload,
            strategies,
            resolved,
            seed=seed,
            alpha=alpha,
            alphas=alphas,
            config_overrides=overrides,
            engine=engine,
        )

    traces, trace_path = _traced(execute, trace, trace_summary)
    return CompareResult(
        workload=workload,
        strategies=strategies,
        seed=seed,
        traces=traces,
        metrics={name: _trace_metrics(t) for name, t in traces.items()},
        trace_path=trace_path,
    )


def distill(
    workload: str,
    *,
    surrogate: str = "forest",
    budget: int = 512,
    seed: int = 0,
    noise: str = "protocol",
    n_estimators: int = 30,
    name: "str | None" = None,
    out: "str | None" = None,
):
    """Freeze ``workload`` into a distilled surrogate benchmark.

    Runs the distillation campaign (see
    :func:`repro.workloads.distill_workload`), optionally saves the
    ``.npz`` envelope to ``out``, and returns the live
    :class:`~repro.workloads.SurrogateBenchmark`.  A saved envelope runs
    anywhere a workload name does — ``repro.api.run("surrogate:out.npz",
    ...)``, the CLI, the figure harness, and service session specs.
    Equivalent to ``repro distill``.

    >>> bench = repro.api.distill("atax", budget=300, out="atax.npz")  # doctest: +SKIP
    >>> repro.api.run("surrogate:atax.npz", "pwu", scale="smoke")      # doctest: +SKIP
    """
    from repro.workloads import distill_workload, get_benchmark, save_distilled

    bench = distill_workload(
        get_benchmark(workload),
        surrogate=surrogate,
        budget=budget,
        seed=seed,
        noise=noise,
        n_estimators=n_estimators,
        name=name,
    )
    if out is not None:
        save_distilled(bench, out)
    return bench


def serve(
    host: "str | None" = None,
    port: "int | None" = None,
    data_dir: "str | None" = None,
) -> int:
    """Run the tuning-service daemon (blocking); see :mod:`repro.service`.

    Arguments default to the ``REPRO_SERVICE_*`` environment bindings.
    Equivalent to ``repro serve``; returns the process exit code.
    """
    from repro.service import serve as _serve
    from repro.service import service_from_env

    base = service_from_env()
    return _serve(
        dataclasses.replace(
            base,
            host=host if host is not None else base.host,
            port=port if port is not None else base.port,
            data_dir=data_dir if data_dir is not None else base.data_dir,
        )
    )


def connect(base_url: str, timeout: float = 60.0):
    """A :class:`repro.service.Client` for a running tuning daemon.

    >>> client = repro.api.connect("http://127.0.0.1:8642")  # doctest: +SKIP
    >>> client.healthz()["status"]                           # doctest: +SKIP
    'ok'
    """
    from repro.service import Client

    return Client(base_url, timeout=timeout)
