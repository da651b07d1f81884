"""Crash-safe on-disk store for completed trial traces.

Each finished :class:`~repro.engine.jobs.TrialJob` persists its
:class:`~repro.active.LearningHistory` under the job's content-address key.
Because the key covers the entire job spec (benchmark, strategy, scale,
seed, trial, α, overrides), a lookup can never return a stale or mismatched
trace; re-running any figure with the same ``--cache-dir`` skips every
already-completed trial, and a killed run resumes where it stopped —
whatever committed before the kill is on disk.

Durability model (the fault-tolerant engine's contract):

* **Append-only journal.**  Results live in ``journal.jsonl`` — one JSON
  payload per line, appended with ``flush`` + ``os.fsync`` before the
  write is considered committed.  A ``kill -9`` (or power loss) mid-append
  can only truncate the *last, uncommitted* line; replay detects the torn
  tail and drops it, never losing a previously committed result.
* **fsync-before-replace compaction.**  :meth:`compact` rewrites the
  journal with one live line per key (dead lines accumulate when jobs are
  re-stored) via a temp file that is flushed and fsynced *before*
  ``os.replace``, then fsyncs the directory — so the rename is never
  visible before its contents are durable and a crash at any instant
  leaves either the old journal or the complete new one.

Unreadable, mistyped or schema-mismatched entries are treated as cache
misses rather than errors.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.active import LearningHistory
from repro.engine.jobs import JOB_SCHEMA_VERSION, TrialJob
from repro.telemetry import counters

__all__ = [
    "ResultStore",
    "STORE_SCHEMA_VERSION",
    "JOURNAL_NAME",
    "atomic_write_text",
    "append_jsonl",
    "iter_jsonl",
    "replace_jsonl",
]

#: Version of the artifact payload; mismatched entries are ignored (cache
#: miss).
STORE_SCHEMA_VERSION = 1

#: File name of the append-only journal inside the store directory.
JOURNAL_NAME = "journal.jsonl"

#: Auto-compact at open when dead lines outnumber live ones this many
#: times over (plus a small absolute slack so tiny stores never bother).
_COMPACT_DEAD_RATIO = 2
_COMPACT_MIN_DEAD = 16


def _fsync_dir(path: Path) -> None:
    """Flush directory metadata (new/renamed files) to disk, best effort."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover  # repro: allow[EXC001] directory fsync is best-effort durability; unsupported on some filesystems
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: "str | os.PathLike", text: str) -> None:
    """Crash-safe whole-file write: temp file, flush+fsync, ``os.replace``.

    The blessed write path for every artifact in ``src/`` that is not a
    journal append (the static lint's IO001 rule points here): a reader
    can never observe a torn file, only the old content or the new.
    """
    target = Path(path)
    directory = target.parent if str(target.parent) else Path(".")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".txt")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover  # repro: allow[EXC001] best-effort temp cleanup; the original error re-raises
            pass
        raise
    _fsync_dir(directory)


def append_jsonl(path: "str | os.PathLike", payload: dict) -> "tuple[int, int]":
    """Durably append one JSON payload line; returns its ``(offset, length)``.

    The blessed journal-append primitive shared by the engine's
    :class:`ResultStore` and the service layer's per-session journals:
    one compact JSON document per line, committed by ``flush`` +
    ``os.fsync`` before the call returns.  A ``kill -9`` mid-append can
    only produce a torn *last* line, which :func:`iter_jsonl` detects
    and drops — a previously committed line is never lost.
    """
    target = Path(path)
    line = (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")
    created = not target.exists()
    with open(target, "ab") as fh:
        offset = fh.tell()
        fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())
    if created:
        _fsync_dir(target.parent if str(target.parent) else Path("."))
    return offset, len(line)


def iter_jsonl(path: "str | os.PathLike"):
    """Replay a journal written by :func:`append_jsonl`, tolerating damage.

    Yields ``(offset, length, payload_or_None)`` per line: ``None`` marks
    a corrupt (but newline-terminated) line the caller should count and
    skip.  A torn tail — the final line missing its newline, the
    signature of a mid-append kill — terminates the iteration silently:
    by the append protocol that line was never acknowledged as committed.
    A missing file yields nothing.
    """
    try:
        fh = open(Path(path), "rb")
    except OSError:
        return
    with fh:
        offset = 0
        for raw in fh:
            length = len(raw)
            line_offset = offset
            offset += length
            if not raw.endswith(b"\n"):
                counters.inc("engine.store.torn_tail_dropped")
                return
            try:
                payload = json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError):
                counters.inc("engine.store.corrupt_lines")
                payload = None
            yield line_offset, length, payload


def replace_jsonl(path: "str | os.PathLike", payloads) -> "list[tuple[int, int]]":
    """Crash-safely rewrite a journal with exactly ``payloads``, in order.

    The compaction primitive: the new journal is staged in a sibling temp
    file that is flushed and fsynced *before* ``os.replace`` publishes it,
    then the directory entry is fsynced — so a reader observes either the
    old journal or the complete new one, never a torn in-between.  Returns
    the ``(offset, length)`` locator of each written line.
    """
    target = Path(path)
    directory = target.parent if str(target.parent) else Path(".")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".jsonl")
    locators: "list[tuple[int, int]]" = []
    try:
        with os.fdopen(fd, "wb") as fh:
            for payload in payloads:
                line = (
                    json.dumps(payload, sort_keys=True, separators=(",", ":"))
                    + "\n"
                ).encode("utf-8")
                locators.append((fh.tell(), len(line)))
                fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # repro: allow[EXC001] best-effort temp cleanup; the original error re-raises
            pass
        raise
    _fsync_dir(directory)
    return locators


class ResultStore:
    """A journaled directory of trace artifacts, keyed by job hash."""

    def __init__(self, root: "str | os.PathLike") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.root / JOURNAL_NAME
        #: key → (offset, length) of its live journal line.
        self._index: "dict[str, tuple[int, int]]" = {}
        self._dead_lines = 0
        self._replay()
        if (
            self._dead_lines >= _COMPACT_MIN_DEAD
            and self._dead_lines >= _COMPACT_DEAD_RATIO * max(len(self._index), 1)
        ):
            self.compact()

    # -- journal plumbing ---------------------------------------------------
    def _replay(self) -> None:
        """Rebuild the in-memory index from the journal, tolerating a torn tail.

        Later lines win (a re-stored key supersedes its old line).  Corrupt
        lines — a truncated tail from a mid-write kill, or garbage from a
        partial sector write — are skipped and counted, never fatal.
        """
        self._index.clear()
        self._dead_lines = 0
        for line_offset, length, payload in iter_jsonl(self.journal_path):
            key = payload.get("key") if isinstance(payload, dict) else None
            if not isinstance(key, str):
                if payload is not None:
                    # Parsable JSON without a string key is corrupt for
                    # this store's schema (iter_jsonl already counted raw
                    # JSON damage as corrupt).
                    counters.inc("engine.store.corrupt_lines")
                self._dead_lines += 1
                continue
            if key in self._index:
                self._dead_lines += 1
            self._index[key] = (line_offset, length)

    def _append(self, payload: dict) -> "tuple[int, int]":
        """Durably append one payload line; returns its (offset, length).

        The line is not considered committed until ``flush`` + ``fsync``
        have returned — the invariant the torn-tail replay relies on.
        """
        return append_jsonl(self.journal_path, payload)

    def _read_at(self, offset: int, length: int) -> "dict | None":
        try:
            with open(self.journal_path, "rb") as fh:
                fh.seek(offset)
                raw = fh.read(length)
            payload = json.loads(raw)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    @staticmethod
    def _decode(payload: "dict | None") -> "LearningHistory | None":
        """Decode the trace :meth:`put` wrote; ``None`` for any other shape.

        Beyond the schema stack, a mistyped field surfaces while decoding
        as one of the caught errors, so it too is a cache miss.
        """
        if payload is None:
            return None
        job = payload.get("job")
        if (
            payload.get("store_schema") != STORE_SCHEMA_VERSION
            or not isinstance(job, dict)
            or job.get("schema") != JOB_SCHEMA_VERSION
        ):
            return None
        try:
            return LearningHistory.from_dict(payload["history"])
        except (KeyError, TypeError, ValueError, AttributeError):
            return None

    # -- public API ---------------------------------------------------------
    def get(self, key: str) -> "LearningHistory | None":
        """Load the stored trace for ``key``; ``None`` on miss or bad entry."""
        locator = self._index.get(key)
        if locator is None:
            return None
        payload = self._read_at(*locator)
        if payload is not None and payload.get("key") != key:
            # Another process appended to the journal since we indexed
            # it; rebuild the index once and retry.
            self._replay()
            locator = self._index.get(key)
            if locator is None:
                return None
            payload = self._read_at(*locator)
        return self._decode(payload)

    def put(self, job: TrialJob, history: LearningHistory) -> Path:
        """Durably persist one completed trial; returns the journal path.

        The artifact embeds the job spec alongside the trace, so a store
        is self-describing (auditable without the producing code).  The
        append is fsynced before returning — once ``put`` returns, a
        ``kill -9`` cannot lose the entry.
        """
        payload = {
            "store_schema": STORE_SCHEMA_VERSION,
            "key": job.key(),
            "job": job.spec(),
            "history": history.to_dict(),
        }
        if job.key() in self._index:
            self._dead_lines += 1
        offset, length = self._append(payload)
        self._index[job.key()] = (offset, length)
        return self.journal_path

    def compact(self) -> None:
        """Rewrite the journal with only live entries, crash-safely.

        The replacement is staged in a temp file that is flushed and
        fsynced *before* ``os.replace`` publishes it — the write-then-
        rename ordering that guarantees the visible journal is always
        complete — and the directory entry is fsynced after.
        """
        live: "list[tuple[str, dict]]" = []
        for key, locator in self._index.items():
            payload = self._read_at(*locator)
            if payload is not None:
                live.append((key, payload))
        locators = replace_jsonl(
            self.journal_path, (payload for _, payload in live)
        )
        self._index = {key: loc for (key, _), loc in zip(live, locators)}
        self._dead_lines = 0
        counters.inc("engine.store.compactions")

    def cleanup_tmp(self) -> int:
        """Remove stray ``.tmp-*`` staging files; returns how many.

        Runs on the engine's ``finally`` path so an interrupt mid-write
        cannot leak temp files into the store directory.
        """
        removed = 0
        for path in self.root.glob(".tmp-*"):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover  # repro: allow[EXC001] another run may sweep the same temp file first
                pass
        return removed

    def keys(self) -> "list[str]":
        """Keys of every stored artifact (sorted)."""
        return sorted(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        """Cheap existence probe (does not validate the artifact)."""
        return key in self._index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r}, {len(self)} artifacts)"
