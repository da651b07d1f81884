"""Monotonic counters and gauges for the engine/learner/forest stack.

Counters are always on (an integer add under a lock — cheap enough for
per-call hot-path accounting) and process-local; the executor drains each
worker's counters after every job and merges them into the parent via
:func:`absorb`, so ``--jobs N`` runs report complete totals.

These unify the accounting that used to live ad hoc in
:mod:`repro.engine.progress`: the engine's executed/cached job counts,
the result store's resume hits, the forest's pool-cache hits and
re-traversed tree counts, and the oracle/cost-model evaluation counts all
land in one namespace (``engine.*``, ``forest.*``, ``learner.*``,
``costmodel.*``) and are exported alongside the span events by
:mod:`repro.telemetry.sink`.

The fault-tolerance layer reports through the same namespace, so
``repro trace summarize`` shows what a chaos run survived:

* ``engine.jobs.retried`` / ``engine.jobs.failed`` /
  ``engine.jobs.timeouts`` — attempt-level retries, permanent failures,
  and wall-clock timeouts;
* ``engine.pool.restarts`` / ``engine.pool.degraded_serial`` — worker
  pools rebuilt after a mid-run death, and batches that fell back to
  serial execution after repeated deaths;
* ``engine.faults.{crash,hang,exc,slow}`` — chaos faults injected by
  :mod:`repro.engine.faults` (``crash`` is counted in the worker that
  dies, so its increments are lost with the worker by design — observe
  crashes via ``engine.pool.restarts`` instead);
* ``engine.store.torn_tail_dropped`` / ``engine.store.corrupt_lines`` /
  ``engine.store.compactions`` — journal-replay repairs and maintenance
  in the result store.
"""

from __future__ import annotations

import threading

__all__ = [
    "inc",
    "gauge",
    "value",
    "counters_snapshot",
    "gauges_snapshot",
    "drain",
    "absorb",
    "reset",
]

_lock = threading.Lock()
_counts: "dict[str, float]" = {}
_gauges: "dict[str, float]" = {}


def inc(name: str, value: float = 1) -> None:
    """Add ``value`` to the monotonic counter ``name`` (creating it at 0)."""
    with _lock:
        _counts[name] = _counts.get(name, 0) + value


def gauge(name: str, value: float) -> None:
    """Set the gauge ``name`` to its latest observed ``value``."""
    with _lock:
        _gauges[name] = value


def value(name: str, default: float = 0) -> float:
    """Current value of one counter (``default`` when never incremented)."""
    with _lock:
        return _counts.get(name, default)


def counters_snapshot() -> "dict[str, float]":
    """Current counter values (copy; counters keep accumulating)."""
    with _lock:
        return dict(_counts)


def gauges_snapshot() -> "dict[str, float]":
    """Current gauge values (copy)."""
    with _lock:
        return dict(_gauges)


def drain() -> "dict[str, float]":
    """Return current counter values and reset them to zero.

    Used by pool workers to ship per-job counter deltas back to the
    parent process for merging.
    """
    with _lock:
        counts = dict(_counts)
        _counts.clear()
    return counts


def absorb(delta: "dict[str, float]") -> None:
    """Merge a counter delta drained from another process."""
    with _lock:
        for name, value in delta.items():
            _counts[name] = _counts.get(name, 0) + value


def reset() -> None:
    """Zero all counters and gauges (worker initialisation, tests)."""
    with _lock:
        _counts.clear()
        _gauges.clear()
