"""Shared-memory transport for prepared benchmark data.

Before dispatching a batch, the parent prepares each unique
(benchmark, scale, seed) split once — the pool matrix, the test matrix,
and the pre-measured test labels — and publishes the three arrays into
``multiprocessing.shared_memory`` segments.  Workers rebuild the prepared
tuple by attaching to the segments instead of re-running the split and
re-measuring ``y_test`` per process; because the published bytes *are*
the parent's arrays, the rebuilt tuple is bit-identical to what the
worker would have computed itself.

Lifecycle contract (checked by ``tests/test_shm.py``, whose
``test_parallel_run_leaves_no_segments_behind`` asserts that a parallel
run leaves no segment behind):

* **Segments are owned by the parent.**  :class:`SegmentRegistry` holds
  every ``SharedMemory`` it creates and the engine unlinks them all on
  its ``finally`` path (:func:`SegmentRegistry.unlink_all`, idempotent).
  A publish that fails midway cleans up its own segment in a ``finally``
  block before re-raising.
* **Workers attach, copy, and close immediately.**  The prepared arrays
  are small (megabytes); copying on attach frees us from reasoning about
  segment lifetime inside :class:`~repro.space.DataPool` and keeps the
  worker correct even if the parent unlinks early.  The copied tuple
  lands in the executor's per-process prepared cache, so each worker
  pays one copy per (benchmark, scale, seed), not one per trial.

The worker-side manifest (segment names, shapes, dtypes) is installed by
the pool initializer; :func:`lookup` returns the entry for a prepared key
or ``None`` when the data must be computed locally (serial path, spawn
without a manifest, or a publish that was skipped because preparation
failed in the parent — the failure then surfaces per-trial, exactly as it
did before shared memory existed).
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

from repro import telemetry

__all__ = [
    "SegmentRegistry",
    "install_manifest",
    "lookup",
    "attach_entry",
]

#: Worker-side manifest: prepared key -> {field: (segment, shape, dtype)}.
#: Installed once per process by the pool initializer; empty in the parent
#: and on the serial path.
_MANIFEST: "dict[tuple, dict[str, tuple[str, tuple, str]]]" = {}


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a named segment without registering it for cleanup.

    On Python < 3.13 (no ``track=False``) attaching registers the segment
    with the resource tracker, which would unlink it (and warn) at
    interpreter exit even though the parent owns the name — and under a
    forking pool, where every worker shares the parent's tracker process,
    the duplicate registrations collapse into one set entry and any
    attempt to unregister them back floods the tracker with unbalanced
    messages.  Suppressing registration for the duration of the attach
    restores the contract that only the creating process owns the name.
    """
    try:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
    # repro: allow[EXC001] best-effort workaround for the stdlib tracker double-unlink; failure only risks a shutdown warning
    except (ImportError, AttributeError):
        return shared_memory.SharedMemory(name=name)
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _publish_array(arr: np.ndarray) -> "tuple[shared_memory.SharedMemory, tuple]":
    """Copy one array into a fresh segment; returns ``(segment, meta)``.

    The caller (the registry) owns the returned segment.  If the copy
    fails the segment is closed *and unlinked* here so a half-published
    batch cannot leak shared memory.
    """
    arr = np.ascontiguousarray(arr)
    if arr.dtype.hasobject:
        # An object array's buffer holds pointers that mean nothing in
        # another process; publishing one would be silent corruption.
        raise ValueError(
            f"cannot publish object-dtype array (dtype {arr.dtype}) to "
            "shared memory"
        )
    segment = None
    published = False
    try:
        segment = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf)
        view[...] = arr
        published = True
        return segment, (segment.name, arr.shape, str(arr.dtype))
    finally:
        if segment is not None and not published:
            segment.close()
            segment.unlink()


class SegmentRegistry:
    """Parent-side owner of every segment published for one engine run."""

    def __init__(self) -> None:
        self._segments: "list[shared_memory.SharedMemory]" = []
        self._manifest: "dict[tuple, dict[str, tuple[str, tuple, str]]]" = {}

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def manifest(self) -> "dict[tuple, dict[str, tuple[str, tuple, str]]]":
        """Picklable {prepared key -> {field -> (name, shape, dtype)}}."""
        return dict(self._manifest)

    def publish(self, key: tuple, arrays: "dict[str, np.ndarray]") -> None:
        """Publish one prepared entry's arrays under ``key``."""
        metas: "dict[str, tuple[str, tuple, str]]" = {}
        for field, arr in arrays.items():
            segment, meta = _publish_array(arr)
            self._segments.append(segment)
            metas[field] = meta
        self._manifest[key] = metas
        telemetry.inc("engine.shm.segments", len(arrays))

    def unlink_all(self) -> None:
        """Close and unlink every published segment (idempotent).

        Runs on the engine's ``finally`` path; a segment that is already
        gone (double close, external cleanup) is not an error.
        """
        segments, self._segments = self._segments, []
        self._manifest.clear()
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            # repro: allow[EXC001] idempotent teardown: an already-removed segment is the desired end state
            except (FileNotFoundError, OSError):
                pass


def install_manifest(
    manifest: "dict[tuple, dict[str, tuple[str, tuple, str]]] | None",
) -> None:
    """Replace this process's manifest (pool-worker initializer hook)."""
    _MANIFEST.clear()
    if manifest:
        _MANIFEST.update(manifest)


def lookup(key: tuple) -> "dict[str, tuple[str, tuple, str]] | None":
    """The manifest entry for a prepared key, or ``None`` to compute locally."""
    return _MANIFEST.get(key)


def _attach_array(meta: "tuple[str, tuple, str]") -> np.ndarray:
    """Attach one segment, copy its array out, and close immediately."""
    name, shape, dtype = meta
    segment = _attach_untracked(name)
    try:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
        return view.copy()
    finally:
        segment.close()


def attach_entry(
    metas: "dict[str, tuple[str, tuple, str]]",
) -> "dict[str, np.ndarray]":
    """Materialise a published entry as plain process-local arrays.

    The caller caches the result (the executor's per-process prepared
    cache), so each worker attaches each entry at most once.
    """
    arrays = {field: _attach_array(meta) for field, meta in metas.items()}
    telemetry.inc("engine.shm.attaches")
    return arrays
