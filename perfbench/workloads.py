"""The three benchmark workloads, each driven through a user entry point.

* ``campaign`` — :func:`repro.api.compare` of PWU vs PBUS on atax at the
  paper's pool/test/forest sizes, one process, no result store.
* ``sweep`` — the Fig. 2/3 driver over SPAPT kernels × the six paper
  strategies under a process-pool engine with a fresh result store, then
  the identical call again, which resumes every trial from the store.
* ``service`` — one closed-loop client calling ``ServiceApp.handle``
  directly (no socket): sessions round-robin over a cost-model kernel,
  an application model and a distilled forest, then a registry restart
  that replays every journal.

Each workload's size is a fixed function of ``seconds`` (calibrated on a
2-vCPU host so a run takes about that long), never of measured speed, so
two commits always do identical work.  :func:`run` returns the timed
phase's wall time plus everything the output checks need.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import shutil
import time

import numpy as np

from layers import percentile
from repro import telemetry
from repro.forest import _cgrower
from repro.workloads import get_benchmark

#: Seconds one unit of each workload takes on the calibration host: a
#: PWU+PBUS trial pair at n_max 60 (campaign), one kernel (sweep), one
#: served session plus its replay (service).
_UNIT_S = {"campaign": 2.9, "sweep": 3.0, "service": 0.9}

CAMPAIGN_WORKLOAD = "atax"
CAMPAIGN_STRATEGIES = ("pwu", "pbus")
CAMPAIGN_N_MAX = 60

#: Kernels in the order the sweep adds them as ``seconds`` grows.
SWEEP_KERNELS = (
    "atax", "mvt", "gesummv", "bicgkernel", "jacobi", "mm",
    "hessian", "lu", "dgemv3", "gemver", "correlation", "adi",
)

SERVICE_FAMILIES = ("atax", "kripke", "distilled:atax-forest")

#: Modules each workload's entry point loads.  :func:`load` imports them
#: during set-up; the runners import from them again (a dictionary lookup).
ENTRY_MODULES = {
    "campaign": ("repro.api", "repro.engine.context"),
    "sweep": ("repro.engine.context", "repro.experiments.figures"),
    "service": (
        "repro.service.app", "repro.service.protocol", "repro.service.registry",
        "repro.service.session", "repro.surrogate",
    ),
}

#: Eq. 2 RMSE key reported as ``rmse_top5``.
ALPHA_KEY = "0.05"


def units(workload: str, seconds: float) -> int:
    """How many units of ``workload`` fit in ``seconds``."""
    return max(1, round(seconds / _UNIT_S[workload]))


@dataclasses.dataclass
class Outcome:
    """What one workload pass produced."""

    #: The timed phase: every unit (compare call, kernel, session) back to
    #: back; each unit's own time is in ``extra["unit_walls"]``.
    wall_s: float
    rmse_top5: float
    #: Operations attempted: trial jobs or requests.  A failed one raises
    #: (the engine's EngineJobError, a non-2xx answer) and fails the run.
    attempted: int
    checks: "dict[str, bool]"
    digest: str
    #: Counter snapshots at the timed phase's start and end, and at the
    #: end of everything the traced pass should count (service: reboot).
    marks: "dict[str, dict]"
    extra: dict = dataclasses.field(default_factory=dict)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load(workload: str) -> None:
    """Import the modules ``workload``'s entry point uses (part of set-up)."""
    for name in ENTRY_MODULES[workload]:
        importlib.import_module(name)


def benchmarks(workload: str, seconds: float) -> "tuple[str, ...]":
    """The benchmarks one pass of ``workload`` runs, in run order."""
    if workload == "campaign":
        return (CAMPAIGN_WORKLOAD,)
    if workload == "sweep":
        return SWEEP_KERNELS[: min(len(SWEEP_KERNELS), max(3, units("sweep", seconds)))]
    return SERVICE_FAMILIES


def resolve(workload: str, seconds: float) -> None:
    """Resolve the pass's benchmarks by name (part of set-up)."""
    for name in benchmarks(workload, seconds):
        get_benchmark(name)


def kernel_load() -> str:
    """Load (building if needed) the C split kernel; returns the mode."""
    return "c" if _cgrower.load() is not None else "numpy"


# -- campaign -----------------------------------------------------------------
def campaign(seed: int, seconds: float, work_dir) -> Outcome:
    """``units`` compare calls, each on its own seed-derived data split."""
    import repro.api
    from repro.engine.context import EngineConfig, use_engine
    from repro.experiments.config import SCALES

    calls = units("campaign", seconds)
    grid = list(range(SCALES["paper"].n_init, CAMPAIGN_N_MAX + 1))
    walls, rmse, traces = [], [], []
    checks = {"n_train_grid": True, "finite": True}
    marks = {"start": telemetry.counters_snapshot()}
    t0 = time.perf_counter()
    with use_engine(EngineConfig(jobs=1, progress=False)):
        for i in range(calls):
            t = time.perf_counter()
            result = repro.api.compare(
                CAMPAIGN_WORKLOAD, CAMPAIGN_STRATEGIES, seed=seed * 1000 + i,
                jobs=1, scale="paper", budget=CAMPAIGN_N_MAX, trials=1,
            )
            walls.append(time.perf_counter() - t)
            rmse.append(result.metrics["pwu"]["final_rmse"][ALPHA_KEY])
            for trace in result.traces.values():
                checks["n_train_grid"] &= trace.n_train.tolist() == grid
                checks["finite"] &= bool(
                    np.isfinite(trace.cc_mean).all()
                    and all(np.isfinite(v).all() for v in trace.rmse_mean.values())
                )
            traces.append({n: t.to_dict() for n, t in result.traces.items()})
    wall = time.perf_counter() - t0
    marks["timed_end"] = marks["end"] = telemetry.counters_snapshot()
    return Outcome(
        wall_s=wall,
        rmse_top5=float(np.mean(rmse)),
        attempted=calls * len(CAMPAIGN_STRATEGIES),
        checks=checks,
        digest=_digest(traces),
        marks=marks,
        extra={"calls": calls, "unit_walls": walls},
    )


# -- sweep ----------------------------------------------------------------------
def sweep(seed: int, seconds: float, work_dir) -> Outcome:
    """Per kernel: the figure driver on a fresh store, then the same call."""
    from repro.engine.context import EngineConfig, use_engine
    from repro.experiments.config import SCALES
    from repro.experiments.figures import fig2_fig3
    from repro.sampling import STRATEGY_NAMES

    kernels = benchmarks("sweep", seconds)
    scale = SCALES["smoke"]
    per_kernel = len(STRATEGY_NAMES) * scale.n_trials
    engine = EngineConfig(
        jobs=os.cpu_count() or 1, cache_dir=os.path.join(work_dir, "store"), progress=False
    )

    def count(name: str) -> int:
        return int(telemetry.value(name))

    walls, rmse, data = [], [], {}
    checks = dict.fromkeys(
        ("fresh_executed_all", "resume_executed_none", "resume_hits_all",
         "resume_identical", "finite"), True)
    marks = {"start": telemetry.counters_snapshot()}
    t0 = time.perf_counter()
    with use_engine(engine):
        for kernel in kernels:
            t = time.perf_counter()
            executed = count("engine.jobs.executed")
            fresh, _ = fig2_fig3(scale, kernels=(kernel,), seed=seed)
            resumed_from, hits = count("engine.jobs.executed"), count("engine.store.resume_hits")
            resumed, _ = fig2_fig3(scale, kernels=(kernel,), seed=seed)
            walls.append(time.perf_counter() - t)
            checks["fresh_executed_all"] &= resumed_from - executed == per_kernel
            checks["resume_executed_none"] &= count("engine.jobs.executed") == resumed_from
            checks["resume_hits_all"] &= count("engine.store.resume_hits") - hits == per_kernel
            checks["resume_identical"] &= (
                json.dumps(resumed.data, sort_keys=True) == json.dumps(fresh.data, sort_keys=True)
            )
            rmse.append(fresh.data[kernel]["pwu"]["rmse_mean"][ALPHA_KEY][-1])
            data.update(fresh.data)
    wall = time.perf_counter() - t0
    marks["timed_end"] = marks["end"] = telemetry.counters_snapshot()
    checks["finite"] = bool(np.isfinite(rmse).all())
    return Outcome(
        wall_s=wall,
        rmse_top5=float(np.mean(rmse)),
        attempted=2 * len(kernels) * per_kernel,
        checks=checks,
        digest=_digest(data),
        marks=marks,
        extra={"kernels": len(kernels), "trials": len(kernels) * per_kernel, "unit_walls": walls},
    )


# -- service ----------------------------------------------------------------------
def service(seed: int, seconds: float, work_dir) -> Outcome:
    """Serve ``units`` sessions one after another, then restart and replay."""
    from repro.service.app import ServiceApp
    from repro.service.protocol import SessionSpec
    from repro.service.registry import SessionRegistry
    from repro.service.session import measure_round, offline_reference
    from repro.surrogate import surrogate_bytes

    n_sessions = max(len(SERVICE_FAMILIES), units("service", seconds))
    payloads = [
        {"benchmark": SERVICE_FAMILIES[i % len(SERVICE_FAMILIES)], "seed": seed * 1000 + i}
        for i in range(n_sessions)
    ]
    specs = [SessionSpec.from_payload(p) for p in payloads]
    data_dir = os.path.join(work_dir, "service")
    app = ServiceApp(SessionRegistry(data_dir))
    latency: "dict[str, list[float]]" = {"suggest": [], "report": []}
    requests = []

    def call(method: str, path: str, payload=None, kind=None) -> bytes:
        body = b"" if payload is None else json.dumps(payload).encode()
        t = time.perf_counter()
        status, _headers, out = app.handle(method, path, body)
        if kind is not None:
            latency[kind].append((time.perf_counter() - t) * 1e3)
        requests.append(status)
        if not 200 <= status < 300:
            raise RuntimeError(f"{method} {path} answered {status}: {out[:200]!r}")
        return out

    models: "dict[str, bytes]" = {}
    walls, rmse = [], []
    marks = {"start": telemetry.counters_snapshot()}
    t0 = time.perf_counter()
    for payload, spec in zip(payloads, specs):
        t = time.perf_counter()
        sid = json.loads(call("POST", "/v1/sessions", payload))["session"]["id"]
        state = "open"
        while state == "open":
            suggestion = json.loads(
                call("POST", f"/v1/sessions/{sid}/suggest", {}, "suggest")
            )["suggestion"]
            y = measure_round(spec, np.asarray(suggestion["x"]), suggestion["round"])
            snapshot = json.loads(call(
                "POST", f"/v1/sessions/{sid}/report",
                {"indices": suggestion["indices"], "y": [float(v) for v in y]},
                "report",
            ))["session"]
            state = snapshot["state"]
        rmse.append(snapshot["rmse"][ALPHA_KEY])
        models[sid] = call("GET", f"/v1/sessions/{sid}/model")
        walls.append(time.perf_counter() - t)
    wall = time.perf_counter() - t0
    marks["timed_end"] = telemetry.counters_snapshot()
    t1 = time.perf_counter()
    app = ServiceApp(SessionRegistry(data_dir))
    reboot_s = time.perf_counter() - t1
    marks["end"] = telemetry.counters_snapshot()

    first = next(iter(models))
    checks = {
        "reboot_models_identical": all(
            call("GET", f"/v1/sessions/{sid}/model") == blob for sid, blob in models.items()
        ),
        "offline_reference_identical": (
            surrogate_bytes(offline_reference(specs[0]).model) == models[first]
        ),
    }
    extra = {"sessions": n_sessions, "unit_walls": walls, "service.reboot_s": reboot_s}
    for kind, samples in latency.items():
        extra[f"service.{kind}.p50_ms"] = percentile(samples, 50)
        extra[f"service.{kind}.p90_ms"] = percentile(samples, 90)
        extra[f"service.{kind}.samples"] = len(samples)
    return Outcome(
        wall_s=wall,
        rmse_top5=float(np.mean(rmse)),
        attempted=len(requests),
        checks=checks,
        digest=_digest({sid: hashlib.sha256(b).hexdigest() for sid, b in models.items()}),
        marks=marks,
        extra=extra,
    )


RUNNERS = {"campaign": campaign, "sweep": sweep, "service": service}


def run(workload: str, seed: int, seconds: float, work_dir: str) -> Outcome:
    """Run one workload pass in ``work_dir`` (created fresh, then removed)."""
    os.makedirs(work_dir)
    try:
        return RUNNERS[workload](seed, seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
