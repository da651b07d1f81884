"""Outside-in layer timing for the benchmark's traced pass.

:class:`Tracer` replaces each public call named in :data:`LAYERS` with a
wrapper that times it on a per-process stack, so every layer's *self*
time (its span minus the spans of wrapped calls made inside it) is known
without a single timer under ``src/``.  Functions are patched at every
module-level binding (``from x import f`` copies included) and methods on
their classes; :meth:`Tracer.uninstall` restores the originals.

All accounting lands in :mod:`repro.telemetry` counters under the
``perfbench.`` prefix.  The engine already drains every pool worker's
counters after each chunk and merges them into the parent, so a sweep's
per-layer numbers include worker time with no extra channel.  Per-call
latency samples travel the same way, one uniquely named counter each.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

from repro import telemetry

PREFIX = "perfbench."
_SAMPLE = PREFIX + "sample."
_WORKER_NS = PREFIX + "worker.self_ns"
_CAPACITY_NS = PREFIX + "engine.capacity_ns"
_FIRST_NS = PREFIX + "engine.first_result_ns"
_TAIL_NS = PREFIX + "engine.tail_ns"


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _n_rows(X) -> int:
    shape = getattr(X, "shape", None)
    if shape is None:
        return len(X)
    return int(shape[0]) if len(shape) > 1 else 1


#: layer -> (public calls timed, amount(args, kwargs, result), amount name).
#: A call is "module:function" or "module:Class.method"; the sampling
#: strategies' ``select`` is patched on every subclass (see _targets).
LAYERS = {
    "forest.fit": (
        ("repro.forest.forest:RandomForestRegressor.fit",
         "repro.forest.forest:RandomForestRegressor.update"),
        None, None),
    "forest.pool_score": (
        ("repro.forest.forest:RandomForestRegressor.predict_with_uncertainty_pool",
         "repro.forest.forest:RandomForestRegressor.predict_pool"),
        lambda a, k, r: len(_arg(a, k, 2, "rows")), "rows"),
    "forest.predict": (
        ("repro.forest.forest:RandomForestRegressor.predict",
         "repro.forest.forest:RandomForestRegressor.predict_with_uncertainty"),
        lambda a, k, r: _n_rows(_arg(a, k, 1, "X")), "rows"),
    "sampling.select": (("repro.sampling.base:SamplingStrategy.select",), None, None),
    "active.suggest": (("repro.active.learner:ActiveLearner.suggest",), None, None),
    "active.observe": (("repro.active.learner:ActiveLearner.observe",), None, None),
    "metrics.rmse": (("repro.metrics.rmse:top_alpha_rmse",), None, None),
    "workloads.evaluate": (
        ("repro.workloads.base:Benchmark.evaluate_batch",),
        lambda a, k, r: _n_rows(_arg(a, k, 1, "X")), "rows"),
    "space.sample": (
        ("repro.space.space:ParameterSpace.sample_unique_encoded",),
        lambda a, k, r: int(_arg(a, k, 2, "n")), "rows"),
    "space.decode": (("repro.space.space:ParameterSpace.decode",), None, None),
    "experiments.prepare": (("repro.experiments.runner:prepare_data",), None, None),
    "experiments.trial": (("repro.experiments.runner:run_single",), None, None),
    "surrogate.make": (("repro.surrogate.registry:make_surrogate",), None, None),
    "surrogate.serialize": (
        ("repro.surrogate.serialize:surrogate_bytes",),
        lambda a, k, r: len(r), "bytes"),
    "engine.run": (("repro.engine.executor:run_jobs",), None, None),
    "engine.job": (("repro.engine.executor:execute_job",), None, None),
    "engine.publish": (
        ("repro.engine.shm:SegmentRegistry.publish",),
        lambda a, k, r: sum(x.nbytes for x in _arg(a, k, 2, "arrays").values()),
        "bytes"),
    "engine.store.open": (("repro.engine.store:ResultStore.__init__",), None, None),
    "engine.store.put": (("repro.engine.store:ResultStore.put",), None, None),
    "engine.store.get": (("repro.engine.store:ResultStore.get",), None, None),
    "service.handle": (("repro.service.app:ServiceApp.handle",), None, None),
    "service.session": (
        ("repro.service.session:Session.create",
         "repro.service.session:Session.suggest",
         "repro.service.session:Session.report",
         "repro.service.session:Session.model_bytes"),
        None, None),
    "service.journal": (
        ("repro.engine.store:append_jsonl",), lambda a, k, r: r[1], "bytes"),
    "service.replay": (
        ("repro.service.registry:SessionRegistry.__init__",
         "repro.service.session:Session.load"),
        None, None),
}

#: Wrappers that enclose a whole batch, trial or request.  Their self time
#: is whatever no named layer claimed, so :func:`coverage` leaves it out.
ENCLOSING = ("engine.run", "engine.job", "service.handle")

#: Latency-sampled layers: every forest fit, every learner iteration
#: (suggest + observe of one learner), and two service routes.
SAMPLED = ("forest.fit", "active.iter", "service.create", "service.model")


class Tracer:
    """Installs the layer wrappers; one per traced benchmark pass."""

    def __init__(self) -> None:
        self._main_pid = os.getpid()
        self._pid = self._main_pid
        #: Open wrapped calls in this process: [start_ns, covered_ns].
        self._stack: "list[list[int]]" = []
        self._seq = 0
        #: id(learner) -> duration of its outstanding suggest() call.
        self._suggested: "dict[int, int]" = {}
        #: Completion timestamps of each open run_jobs batch.
        self._batches: "list[list[int]]" = []
        self._undo: "list[tuple[object, str, object]]" = []

    # -- accounting --------------------------------------------------------
    def _enter(self) -> "list[int]":
        pid = os.getpid()
        if pid != self._pid:
            # A forked pool worker: the parent's open frames are not ours.
            self._pid, self._stack = pid, []
        frame = [time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, keys, rows) -> int:
        total = time.perf_counter_ns() - frame[0]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += total
        own = total - frame[1]
        calls_key, self_key, rows_key = keys
        telemetry.inc(calls_key)
        telemetry.inc(self_key, own)
        if rows is not None:
            telemetry.inc(rows_key, rows)
        if self._pid != self._main_pid:
            telemetry.inc(_WORKER_NS, own)
        return total

    def sample(self, layer: str, ns: int) -> None:
        """Record one latency sample (a counter of its own, so it merges)."""
        self._seq += 1
        telemetry.inc(f"{_SAMPLE}{layer}.{self._pid}.{self._seq}", ns)

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, layer: str, fn, amount, amount_name, qualname: str):
        keys = tuple(f"{PREFIX}{layer}.{f}" for f in ("calls", "self_ns", amount_name))
        sampled = layer in SAMPLED
        hook = {
            "repro.active.learner:ActiveLearner.suggest": self._after_suggest,
            "repro.active.learner:ActiveLearner.observe": self._after_observe,
            "repro.service.app:ServiceApp.handle": self._after_handle,
        }.get(qualname)
        if qualname.endswith(":run_jobs"):
            return self._wrap_run_jobs(fn, keys)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                rows = amount(args, kwargs, result) if done and amount is not None else None
                total = self._exit(frame, keys, rows)
                if sampled:
                    self.sample(layer, total)
                if hook is not None:
                    hook(args, total)

        return wrapper

    def _after_suggest(self, args, total: int) -> None:
        self._suggested[id(args[0])] = total

    def _after_observe(self, args, total: int) -> None:
        self.sample("active.iter", self._suggested.pop(id(args[0]), 0) + total)

    def _after_handle(self, args, total: int) -> None:
        method, path = args[1].upper(), args[2].rstrip("/")
        if method == "POST" and path == "/v1/sessions":
            self.sample("service.create", total)
        elif path.endswith("/model"):
            self.sample("service.model", total)

    def _job_finished(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._batches:
                self._batches[-1].append(time.perf_counter_ns())
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_run_jobs(self, fn, keys):
        """``run_jobs`` plus the engine's batch timeline.

        Worker capacity is counted only for batches that ran trials on a
        pool, so ``engine.busy_frac`` = worker self time / capacity.
        """
        from repro.engine.context import current_engine

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            config = kwargs.get("config", args[1] if len(args) > 1 else None)
            jobs = (config or current_engine()).jobs
            executed = telemetry.value("engine.jobs.executed")
            done: "list[int]" = []
            self._batches.append(done)
            frame = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                total = self._exit(frame, keys, None)
                self._batches.pop()
                ran = int(telemetry.value("engine.jobs.executed") - executed)
                workers = min(jobs, ran)
                if workers > 1:
                    telemetry.inc(_CAPACITY_NS, workers * total)
                if done:
                    telemetry.inc(_FIRST_NS, done[0] - frame[0])
                    telemetry.inc(_TAIL_NS, end - done[max(0, len(done) - max(1, workers))])

        return wrapper

    # -- install / uninstall ---------------------------------------------------
    def _patch(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _patch_method(self, cls, name: str, wrap) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, classmethod):
            self._patch(cls, name, classmethod(wrap(raw.__func__)))
        else:
            self._patch(cls, name, wrap(raw))

    def _patch_function(self, fn, wrap) -> None:
        wrapped = wrap(fn)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, name, wrapped)

    def install(self) -> None:
        """Wrap every call in :data:`LAYERS` (idempotence is not needed)."""
        for layer, (calls, amount, amount_name) in LAYERS.items():
            for qualname in calls:
                module_name, attr = qualname.split(":")
                module = importlib.import_module(module_name)

                def wrap(fn, layer=layer, qualname=qualname, amount=amount, name=amount_name):
                    return self._wrap(layer, fn, amount, name, qualname)

                if "." not in attr:
                    self._patch_function(getattr(module, attr), wrap)
                    continue
                cls_name, method = attr.split(".")
                for cls in _targets(getattr(module, cls_name), method):
                    self._patch_method(cls, method, wrap)
        from repro.engine.progress import ProgressReporter

        self._patch_method(ProgressReporter, "job_finished", self._job_finished)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _targets(cls: type, method: str) -> "list[type]":
    """``cls`` itself, or for ``select`` every strategy that defines one."""
    if method != "select":
        return [cls]
    found, todo = [], [cls]
    while todo:
        klass = todo.pop()
        todo.extend(klass.__subclasses__())
        if method in klass.__dict__ and not getattr(klass.__dict__[method], "__isabstractmethod__", False):
            found.append(klass)
    return sorted(set(found), key=lambda k: (k.__module__, k.__qualname__))


def _samples(delta: dict, layer: str) -> "list[float]":
    prefix = f"{_SAMPLE}{layer}."
    return sorted(v / 1e6 for k, v in delta.items() if k.startswith(prefix))


def percentile(values: "list[float]", q: int) -> float:
    """The q-th percentile (``statistics.quantiles`` inclusive), 0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def coverage(delta: dict, wall_s: float) -> float:
    """Named-layer self time over ``wall_s`` (worker time counts too).

    The :data:`ENCLOSING` wrappers are left out: counting the time they
    hold for want of a narrower layer would meet any threshold by
    construction.
    """
    skip = {f"{PREFIX}{name}.self_ns" for name in ENCLOSING} | {_WORKER_NS}
    covered = sum(
        v for k, v in delta.items()
        if k.startswith(PREFIX) and k.endswith(".self_ns") and k not in skip
    )
    return covered / 1e9 / wall_s


def per_layer_metrics(delta: dict) -> "dict[str, float]":
    """Per-layer metric values from one traced pass's counter delta."""

    def layer(name: str, field: str) -> float:
        value = delta.get(f"{PREFIX}{name}.{field}", 0)
        return value / 1e9 if field == "self_ns" else value

    out: "dict[str, float]" = {}
    for name, (_calls, _amount, amount_name) in LAYERS.items():
        out[f"{name}.calls"] = layer(name, "calls")
        out[f"{name}.self_s"] = layer(name, "self_ns")
        if amount_name:
            out[f"{name}.{amount_name}"] = layer(name, amount_name)
    out["service.journal.appends"] = out["service.journal.calls"]
    for name in SAMPLED:
        values = _samples(delta, name)
        out[f"{name}.p50_ms"] = percentile(values, 50)
        out[f"{name}.p90_ms"] = percentile(values, 90)
    capacity = delta.get(_CAPACITY_NS, 0)
    out["engine.busy_frac"] = delta.get(_WORKER_NS, 0) / capacity if capacity else 0.0
    out["engine.first_result_s"] = delta.get(_FIRST_NS, 0) / 1e9
    out["engine.tail_s"] = delta.get(_TAIL_NS, 0) / 1e9
    for name, value in delta.items():
        if not name.startswith(PREFIX):
            out[name] = value
    return out
