"""The daemon's session index: in-memory map + on-disk manifest + resume.

A :class:`SessionRegistry` owns the service data directory::

    <root>/manifest.json        # {"next_serial": N}  (atomic replace)
    <root>/sessions/<id>/...    # one journal directory per session

Session ids are ``s<serial:06d>-<spec_hash[:10]>`` — a monotone serial
(readable, sortable) plus a content-address prefix of the spec (equal
specs are visibly related; the full id still distinguishes them).  The
serial comes from the manifest, but :meth:`SessionRegistry.__init__`
re-derives it as ``max(manifest, scan of sessions/)`` so a crash between
directory creation and the manifest write cannot recycle an id.

On construction the registry *resumes*: every ``sessions/*/meta.json``
is loaded and its journal replayed (see
:meth:`~repro.service.session.Session.load`), so a restarted daemon
serves every pre-crash session with zero lost trials.  A session whose
replay fails (corrupt journal, diverging replay) is kept in the index in
the ``failed`` state — visible, not silently dropped.  Open
server-evaluated sessions get their driver threads restarted.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

from repro.engine.store import atomic_write_text
from repro.service.protocol import (
    PROTOCOL_VERSION,
    SERVICE_SCHEMA,
    ProtocolError,
    SessionSpec,
)
from repro.service.session import Session, run_server_session
from repro.telemetry import counters

__all__ = ["SessionRegistry"]

MANIFEST_NAME = "manifest.json"
_ID_RE = re.compile(r"^s(\d{6})-[0-9a-f]{10}$")


class SessionRegistry:
    """All sessions the daemon serves, resumed from ``root`` on boot."""

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.sessions_dir = self.root / "sessions"
        self.sessions_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._sessions: "dict[str, Session]" = {}
        #: Per-session driver stop events (server-evaluated mode).
        self._stops: "dict[str, threading.Event]" = {}
        self._threads: "dict[str, threading.Thread]" = {}
        self._failed_loads: "dict[str, str]" = {}
        self._next_serial = self._recover_serial()
        self._resume_all()

    # -- id allocation -------------------------------------------------------
    def _recover_serial(self) -> int:
        manifest_serial = 0
        manifest_path = self.root / MANIFEST_NAME
        if manifest_path.is_file():
            try:
                manifest = json.loads(manifest_path.read_text())
                manifest_serial = int(manifest.get("next_serial", 0))
            except (json.JSONDecodeError, ValueError, OSError):
                # A torn manifest is recoverable: the directory scan below
                # is authoritative and the next write repairs the file.
                counters.inc("service.manifest_recovered")
        scanned = 0
        for entry in sorted(self.sessions_dir.iterdir()):
            m = _ID_RE.match(entry.name)
            if m:
                scanned = max(scanned, int(m.group(1)) + 1)
        return max(manifest_serial, scanned)

    def _write_manifest(self) -> None:
        atomic_write_text(
            self.root / MANIFEST_NAME,
            json.dumps(
                {
                    "schema": SERVICE_SCHEMA,
                    "protocol": PROTOCOL_VERSION,
                    "next_serial": self._next_serial,
                },
                sort_keys=True,
            )
            + "\n",
        )

    # -- resume --------------------------------------------------------------
    def _resume_all(self) -> None:
        for entry in sorted(self.sessions_dir.iterdir()):
            if not (entry / "meta.json").is_file():
                continue
            try:
                session = Session.load(entry)
            except (
                RuntimeError, ProtocolError, OSError, KeyError, TypeError, ValueError
            ) as exc:
                # Keep the wreck visible: list() reports it as failed
                # instead of pretending the session never existed.
                self._failed_loads[entry.name] = str(exc)
                counters.inc("service.sessions.load_failed")
                continue
            self._sessions[session.id] = session
            if session.spec.mode == "server" and session.state == "open":
                self._start_driver(session)

    def _start_driver(self, session: Session) -> None:
        stop = threading.Event()
        thread = threading.Thread(
            target=run_server_session,
            args=(session, stop),
            name=f"repro-service-driver-{session.id}",
            daemon=True,
        )
        self._stops[session.id] = stop
        self._threads[session.id] = thread
        thread.start()

    # -- public API ----------------------------------------------------------
    def create(self, spec: SessionSpec) -> Session:
        """Allocate an id, persist the manifest, create the session."""
        with self._lock:
            serial = self._next_serial
            self._next_serial += 1
            self._write_manifest()
            session_id = f"s{serial:06d}-{spec.spec_hash()[:10]}"
            session = Session.create(
                session_id, spec, self.sessions_dir / session_id
            )
            self._sessions[session_id] = session
            if spec.mode == "server":
                self._start_driver(session)
            return session

    def get(self, session_id: str) -> Session:
        """The live session, or :class:`ProtocolError` 404 / 410."""
        with self._lock:
            session = self._sessions.get(session_id)
            failure = self._failed_loads.get(session_id)
        if session is not None:
            return session
        if failure is not None:
            raise ProtocolError(
                410,
                "session_unrecoverable",
                f"session {session_id} exists on disk but failed to "
                f"resume: {failure}",
            )
        raise ProtocolError(
            404, "unknown_session", f"unknown session {session_id!r}"
        )

    def list(self) -> "list[dict]":
        """Snapshots of every known session, id-sorted (stable wire order)."""
        with self._lock:
            sessions = [
                self._sessions[s] for s in sorted(self._sessions)
            ]
            failed = sorted(self._failed_loads.items())
        # Snapshotting measures nothing but may take a session's own
        # lock; do it outside the registry lock to keep routes snappy.
        out = [session.snapshot() for session in sessions]
        out.extend(
            {"id": s, "state": "failed", "error": error} for s, error in failed
        )
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Signal all driver threads to stop and join them.

        Safe mid-round: drivers abort between rounds, and anything already
        journaled replays on the next boot.
        """
        with self._lock:
            stops = list(self._stops.values())
            threads = list(self._threads.values())
        for stop in stops:
            stop.set()
        for thread in threads:
            thread.join(timeout=timeout)
