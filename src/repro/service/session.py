"""One live tuning session: a learner, its journal, and its replay.

A :class:`Session` owns one :class:`~repro.active.ActiveLearner` driven
through its incremental :meth:`~repro.active.ActiveLearner.suggest` /
:meth:`~repro.active.ActiveLearner.observe` entry points, plus a
crash-safe journal directory::

    sessions/<id>/meta.json       # the SessionSpec (atomic write, once)
    sessions/<id>/journal.jsonl   # one fsync'd line per reported batch

The report path is ordered for crash safety: validate the report against
the pending suggestion, *append to the journal*, then feed the learner.
The disk is therefore never behind a learner state that replay cannot
reproduce: :meth:`Session.load` rebuilds the learner from ``meta.json``
and re-drives every journaled round through the same suggest/observe
calls, asserting the re-suggested indices match the journal — any
divergence marks the journal corrupt rather than silently continuing
with a different model.

Determinism: all session randomness derives from the spec seed —
``derive(seed, "learner")`` for the learner (cold start, strategy
tie-breaks, forest bootstrap) and ``derive(seed, "oracle", round)`` per
measurement round — so a served session is bit-identical to
:func:`offline_reference` with the same spec, across any sequence of
daemon restarts.  Suggest is idempotent (re-suggesting an outstanding
batch consumes no randomness), which is what makes the at-least-once
suggest/report wire protocol safe.
"""

from __future__ import annotations

import json
import numbers
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.active import ActiveLearner
from repro.engine import current_engine
from repro.engine.executor import backoff_seconds
from repro.engine.store import append_jsonl, atomic_write_text, iter_jsonl
from repro.experiments.runner import prepare_data
from repro.surrogate import surrogate_bytes
from repro.rng import derive
from repro.sampling import get_strategy
from repro.service.protocol import (
    PROTOCOL_VERSION,
    SERVICE_SCHEMA,
    ProtocolError,
    SessionSpec,
)
from repro.telemetry import counters
from repro.workloads import get_benchmark

__all__ = [
    "Session",
    "build_learner",
    "cached_benchmark",
    "measure_round",
    "offline_reference",
    "run_server_session",
]

META_NAME = "meta.json"
JOURNAL_NAME = "journal.jsonl"

#: Per-process memo of resolved benchmarks, keyed by name.  Suggest
#: decodes configurations and :func:`measure_round` measures them once
#: per round; re-instantiating the benchmark (space construction, solver
#: tables — or, for ``surrogate:<path>`` workloads, re-reading and
#: re-deserializing the envelope file) every call dominated small
#: batches, and a distilled envelope deleted mid-session would turn into
#: a 500 on the next suggest.  Benchmarks are stateless with respect to
#: measurement — the same instance serves every round and every session
#: naming that benchmark.
_BENCHMARKS: "dict[str, object]" = {}


def cached_benchmark(name: str):
    """Resolve ``name`` through the per-process benchmark memo."""
    benchmark = _BENCHMARKS.get(name)
    if benchmark is None:
        benchmark = get_benchmark(name)
        # repro: allow[SPAWN001] per-process memo of a stateless benchmark allow[RACE001] racing inserts build the same stateless value; last-write-wins is benign
        _BENCHMARKS[name] = benchmark
    return benchmark


def _no_oracle(X) -> "np.ndarray":
    """Placeholder oracle for service-driven learners (never called).

    Service sessions are driven through suggest/observe; the learner's
    internal ``run()`` oracle path must stay unreachable.
    """
    raise RuntimeError(
        "service sessions are driven via suggest/report; "
        "the learner's internal oracle must not be called"
    )


def build_learner(spec: SessionSpec) -> ActiveLearner:
    """Construct the session's learner deterministically from its spec.

    The pool/test split comes from :func:`~repro.experiments.runner.prepare_data`
    seeded with the spec seed (the same derivation the offline engine
    uses), and the learner's own randomness from
    ``derive(seed, "learner")`` — so equal specs always produce equal
    suggestion streams.
    """
    benchmark = cached_benchmark(spec.benchmark)
    scale = spec.to_scale()
    pool, X_test, y_test = prepare_data(benchmark, scale, seed=spec.seed)
    return ActiveLearner(
        pool=pool,
        evaluate=_no_oracle,
        X_test=X_test,
        y_test=y_test,
        strategy=get_strategy(spec.strategy, alpha=spec.alpha),
        config=spec.learner_config(),
        seed=derive(spec.seed, "learner"),
    )


def measure_round(spec: SessionSpec, X: np.ndarray, round_index: int) -> np.ndarray:
    """Measure one suggested batch with the round's derived oracle RNG.

    Each round gets a *fresh* generator ``derive(seed, "oracle", round)``,
    so measurement reproducibility does not depend on how many rounds a
    particular process has already evaluated — the property that lets a
    restarted daemon (server mode) or a reconnecting client resume
    mid-session with bit-identical labels.

    The whole suggested batch goes through one
    :meth:`~repro.workloads.base.Benchmark.evaluate_batch` call against a
    memoised benchmark instance; the old per-round ``get_benchmark`` +
    per-config evaluation rebuilt parameter spaces and solver tables every
    round, which dwarfed the closed-form evaluation itself.  Labels are
    bit-identical: one fused call with the round's fresh generator is
    exactly what the previous code computed.
    """
    benchmark = cached_benchmark(spec.benchmark)
    rng = derive(spec.seed, "oracle", round_index)
    return benchmark.evaluate_batch(np.asarray(X, dtype=np.float64), rng)


def offline_reference(spec: SessionSpec) -> ActiveLearner:
    """Run the spec's whole session locally — the service's ground truth.

    This is the loop a served session must be bit-identical to: same
    learner construction, same per-round oracle derivation, no HTTP.
    Returns the completed learner (history + fitted model).
    """
    learner = build_learner(spec)
    round_index = 0
    while not learner.done:
        learner.suggest()
        _, X = learner.pending
        learner.observe(measure_round(spec, X, round_index))
        round_index += 1
    return learner


def _json_safe(value):
    """Coerce numpy scalars (and containers of them) to plain JSON types."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _flat_list_of(values, accept) -> bool:
    """Whether ``values`` is a list, tuple or 1-D array of accepted non-bools."""
    if isinstance(values, np.ndarray) and values.ndim == 1:
        values = values.tolist()
    return isinstance(values, (list, tuple)) and all(
        not isinstance(v, bool) and accept(v) for v in values
    )


def _is_execution_time(value) -> bool:
    """A finite number > 0, like every label :func:`measure_round` produces."""
    return isinstance(value, (int, float)) and 0 < value <= sys.float_info.max


def _is_index(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class Session:
    """One tuning session: spec + learner + journal directory + lock.

    All public methods are thread-safe (one re-entrant lock per session);
    cross-session concurrency needs no coordination because every session
    owns its own journal directory.
    """

    def __init__(self, session_id: str, spec: SessionSpec, directory: Path) -> None:
        self.id = session_id
        self.spec = spec
        self.dir = Path(directory)
        self.lock = threading.RLock()
        self.learner = build_learner(spec)
        #: Completed (journaled + observed) report rounds.
        self.rounds = 0
        #: ``n`` passed to the outstanding suggest (journaled on report).
        self._pending_n: "int | None" = None
        self._error: "str | None" = None

    # -- construction --------------------------------------------------------
    @classmethod
    def create(cls, session_id: str, spec: SessionSpec, directory: Path) -> "Session":
        """Build a fresh session, then write its directory and ``meta.json``.

        A spec that cannot build leaves nothing on disk (400 ``bad_spec``).
        """
        try:
            session = cls(session_id, spec, directory)
        except ValueError as exc:
            raise ProtocolError(400, "bad_spec", str(exc)) from exc
        directory = session.dir
        directory.mkdir(parents=True, exist_ok=True)
        meta = {
            "schema": SERVICE_SCHEMA,
            "protocol": PROTOCOL_VERSION,
            "id": session_id,
            "spec": spec.to_dict(),
        }
        atomic_write_text(
            directory / META_NAME,
            json.dumps(meta, sort_keys=True, indent=1) + "\n",
        )
        counters.inc("service.sessions.created")
        return session

    @classmethod
    def load(cls, directory: Path) -> "Session":
        """Rebuild a session from disk by replaying its journal.

        Every journaled round is re-driven through suggest/observe; the
        re-suggested indices must equal the journaled ones (determinism
        check).  A ``meta.json`` that is not an object naming this
        directory, and a corrupt, malformed or diverging journal, raise
        ``RuntimeError`` — the registry records the session as failed
        instead of serving a model that does not match its journal.
        """
        directory = Path(directory)
        meta = json.loads((directory / META_NAME).read_text())
        if not isinstance(meta, dict):
            raise RuntimeError(f"{directory / META_NAME}: not a JSON object")
        if meta.get("schema") != SERVICE_SCHEMA:
            raise RuntimeError(
                f"{directory / META_NAME}: unexpected schema {meta.get('schema')!r}"
            )
        if meta.get("id") != directory.name:
            raise RuntimeError(
                f"{directory / META_NAME}: id {meta.get('id')!r} does not "
                f"name its directory"
            )
        spec = SessionSpec.from_payload(meta["spec"])
        session = cls(meta["id"], spec, directory)
        for offset, _length, payload in iter_jsonl(directory / JOURNAL_NAME):
            if payload is None:
                raise RuntimeError(
                    f"{directory / JOURNAL_NAME}: corrupt journal line at "
                    f"offset {offset}"
                )
            session._replay_round(payload, offset)
        counters.inc("service.sessions.resumed")
        return session

    def _replay_round(self, payload, offset: int) -> None:
        """Re-drive one journaled round; a line :meth:`report` could not
        have written, or one replay disagrees with, raises ``RuntimeError``."""
        where = f"{self.dir / JOURNAL_NAME} at offset {offset}"
        if not isinstance(payload, dict):
            raise RuntimeError(f"{where}: journal line is not a JSON object")
        indices, n, y = payload.get("indices"), payload.get("n"), payload.get("y")
        if not _flat_list_of(indices, _is_index):
            raise RuntimeError(f"{where}: indices are not a flat list of integers")
        if n is not None and not (_is_index(n) and n >= 1):
            raise RuntimeError(f"{where}: n {n!r} is neither null nor >= 1")
        journaled = [int(i) for i in indices]
        suggested = self.learner.suggest(n)
        if [int(i) for i in suggested] != journaled:
            raise RuntimeError(
                f"{self.dir / JOURNAL_NAME}: replay diverged at offset "
                f"{offset}: journal holds indices {journaled}, "
                f"deterministic replay suggested {list(map(int, suggested))}"
            )
        if not _flat_list_of(y, _is_execution_time) or len(y) != len(journaled):
            raise RuntimeError(
                f"{where}: y is not one finite time > 0 per index"
            )
        self.learner.observe(np.asarray(y, dtype=np.float64), indices=journaled)
        self.rounds += 1

    # -- state ---------------------------------------------------------------
    @property
    def state(self) -> str:
        """``open`` → ``completed`` (budget reached) or ``failed``."""
        if self._error is not None:
            return "failed"
        return "completed" if self.learner.done else "open"

    def fail(self, message: str) -> None:
        """Mark the session failed (server-mode driver errors land here)."""
        with self.lock:
            self._error = message
        counters.inc("service.sessions.failed")

    def snapshot(self) -> dict:
        """JSON-safe status summary (the ``GET /v1/sessions/{id}`` body)."""
        with self.lock:
            learner = self.learner
            pending = learner.pending
            last = learner.history.records[-1] if learner.history.records else None
            out = {
                "id": self.id,
                "state": self.state,
                "mode": self.spec.mode,
                "benchmark": self.spec.benchmark,
                "strategy": self.spec.strategy,
                "surrogate": self.spec.surrogate,
                "seed": self.spec.seed,
                "rounds": self.rounds,
                "n_labeled": learner.n_labeled,
                "n_max": learner.config.n_max,
                "pending": (
                    None if pending is None else [int(i) for i in pending[0]]
                ),
                "has_model": learner.model is not None,
            }
            if self._error is not None:
                out["error"] = self._error
            if last is not None:
                out["rmse"] = dict(last.rmse)
                out["cumulative_cost"] = float(last.cumulative_cost)
            return out

    # -- the protocol's two verbs --------------------------------------------
    def suggest(self, n: "int | None" = None) -> dict:
        """Next batch to measure (idempotent until the matching report).

        Returns the wire payload: pool ``indices``, decoded ``configs``
        (parameter dictionaries), and the ``x`` encoded rows (what
        :meth:`~repro.workloads.base.Benchmark.measure_encoded` takes).
        """
        with self.lock:
            if self._error is not None:
                raise ProtocolError(
                    409, "session_failed", f"session failed: {self._error}"
                )
            outstanding = self.learner.pending is not None
            try:
                indices = self.learner.suggest(n)
            except RuntimeError as exc:
                raise ProtocolError(409, "budget_exhausted", str(exc)) from exc
            except ValueError as exc:
                raise ProtocolError(400, "bad_request", str(exc)) from exc
            if not outstanding:
                self._pending_n = n
            _, X = self.learner.pending
            benchmark = cached_benchmark(self.spec.benchmark)
            counters.inc("service.suggests")
            return {
                "id": self.id,
                "round": self.rounds,
                "indices": [int(i) for i in indices],
                "configs": _json_safe(benchmark.space.decode(X)),
                "x": [[float(v) for v in row] for row in X],
            }

    def report(self, indices, y) -> dict:
        """Journal then absorb one measured batch; returns the new snapshot.

        Validation happens *before* the journal append (a rejected report
        must not poison replay), and the append happens *before*
        :meth:`~repro.active.ActiveLearner.observe` (a crash between the
        two replays the journaled round on restart — nothing is lost).
        """
        with self.lock:
            if self._error is not None:
                raise ProtocolError(
                    409, "session_failed", f"session failed: {self._error}"
                )
            pending = self.learner.pending
            if pending is None:
                raise ProtocolError(
                    409,
                    "no_pending_suggestion",
                    "report without an outstanding suggestion; "
                    "call suggest first",
                )
            pending_idx = [int(i) for i in pending[0]]
            if not _flat_list_of(indices, _is_index):
                raise ProtocolError(
                    400, "bad_report", "indices must be a flat list of integers"
                )
            stated = [int(i) for i in indices]
            if stated != pending_idx:
                raise ProtocolError(
                    409,
                    "stale_report",
                    f"reported indices {stated} do not match the pending "
                    f"suggestion {pending_idx}",
                )
            if not _flat_list_of(y, _is_execution_time):
                raise ProtocolError(
                    400, "bad_report", "y must be a flat list of finite times > 0"
                )
            y_arr = np.asarray(y, dtype=np.float64)
            if len(y_arr) != len(pending_idx):
                raise ProtocolError(
                    400,
                    "bad_report",
                    f"{len(y_arr)} labels reported for "
                    f"{len(pending_idx)} suggested configs",
                )
            record = {
                "round": self.rounds,
                "n": self._pending_n,
                "indices": pending_idx,
                "y": [float(v) for v in y_arr],
            }
            append_jsonl(self.dir / JOURNAL_NAME, record)
            self.learner.observe(y_arr, indices=pending_idx)
            self.rounds += 1
            self._pending_n = None
            counters.inc("service.reports")
            return self.snapshot()

    # -- artifacts -----------------------------------------------------------
    def model_bytes(self) -> bytes:
        """The fitted surrogate serialized in its ``.npz`` envelope.

        The bytes are whatever :func:`repro.surrogate.save_surrogate`
        writes for the session's surrogate family — for the default
        forest that is the PackedForest format v2 payload plus the kind
        stamp, which :func:`repro.surrogate.load_surrogate` reads back.
        Raises :class:`ProtocolError` (409) while no model exists yet
        (before the cold-start report lands).
        """
        with self.lock:
            if self.learner.model is None:
                raise ProtocolError(
                    409,
                    "no_model",
                    "the session has no fitted model yet "
                    "(report the cold-start batch first)",
                )
            return surrogate_bytes(self.learner.model)


def run_server_session(session: Session, stop: threading.Event) -> None:
    """Drive a server-evaluated session to completion (driver-thread body).

    Loops suggest → measure → report with the engine's fault-tolerance
    discipline: a failed measurement is retried ``max_retries`` times
    with the executor's deterministic per-key exponential backoff before
    the session is marked failed.  ``stop`` aborts between rounds (daemon
    shutdown); the journaled prefix survives and resumes on reboot.
    """
    engine = current_engine()
    while not stop.is_set():
        with session.lock:
            if session.learner.done or session.state != "open":
                return
        try:
            suggestion = session.suggest()
        except ProtocolError as exc:
            session.fail(f"suggest rejected: {exc.message}")
            return
        X = np.asarray(suggestion["x"], dtype=np.float64)
        round_index = suggestion["round"]
        y = None
        for attempt in range(1, engine.max_retries + 2):
            try:
                y = measure_round(session.spec, X, round_index)
                break
            except Exception as exc:  # noqa: BLE001 — retried, then surfaced
                if attempt > engine.max_retries:
                    session.fail(
                        f"measurement failed after {attempt} attempt(s): {exc}"
                    )
                    return
                counters.inc("service.measure_retries")
                time.sleep(
                    backoff_seconds(
                        f"{session.id}:{round_index}",
                        attempt,
                        engine.retry_backoff,
                    )
                )
        try:
            session.report(suggestion["indices"], y)
        except ProtocolError as exc:
            session.fail(f"report rejected: {exc.message}")
            return
