"""One on-disk envelope for every surrogate family.

The envelope is a flat ``.npz``: the adapter's :meth:`Surrogate.serialize`
payload plus a ``surrogate_kind`` stamp for dispatch on load.  Two
compatibility properties are deliberate:

- A saved **forest** surrogate is a superset of the classic
  :func:`repro.forest.serialize.save_forest` format-2 file, so
  ``load_forest`` still reads it (extra keys are ignored).
- A classic forest file has no ``surrogate_kind`` stamp;
  :func:`load_surrogate` defaults the kind to ``"forest"``, so every
  model the service ever served remains loadable.

Meta-surrogates (``select``/``stack``/``transfer``) nest their children
as byte blobs — each child is itself a complete envelope — via
:func:`embed_blob` / :func:`extract_blob`.
"""

from __future__ import annotations

import io

import numpy as np

from repro.envelope import EnvelopeError, describe_file, read_npz_payload
from repro.surrogate.base import Surrogate

__all__ = [
    "save_surrogate",
    "load_surrogate",
    "surrogate_from_payload",
    "surrogate_bytes",
    "embed_blob",
    "extract_blob",
]

#: Envelope schema version (independent of the forest payload version).
SURROGATE_SCHEMA_VERSION = 1


def _kind_classes() -> dict[str, type]:
    from repro.surrogate.adapters import (
        ForestSurrogate,
        GPSurrogate,
        TransferSurrogate,
    )
    from repro.surrogate.select import SelectSurrogate
    from repro.surrogate.stack import StackSurrogate

    return {
        cls.kind: cls
        for cls in (
            ForestSurrogate,
            GPSurrogate,
            TransferSurrogate,
            SelectSurrogate,
            StackSurrogate,
        )
    }


def embed_blob(blob: bytes) -> np.ndarray:
    """Bytes → uint8 array, for nesting an envelope inside another."""
    return np.frombuffer(blob, dtype=np.uint8)


def extract_blob(arr: np.ndarray) -> io.BytesIO:
    """Inverse of :func:`embed_blob`, as a file object for :func:`load_surrogate`."""
    return io.BytesIO(np.asarray(arr, dtype=np.uint8).tobytes())


def save_surrogate(model: Surrogate, file) -> None:
    """Write a fitted surrogate's envelope to ``file`` (path or file object)."""
    payload = dict(model.serialize())
    payload["surrogate_kind"] = np.asarray(model.kind)
    payload["surrogate_schema"] = np.asarray(SURROGATE_SCHEMA_VERSION)
    np.savez_compressed(file, **payload)


def surrogate_bytes(model: Surrogate) -> bytes:
    """A fitted surrogate's envelope as in-memory bytes (service downloads)."""
    buf = io.BytesIO()
    save_surrogate(model, buf)
    return buf.getvalue()


#: What the surrogate loader expects, embedded in its EnvelopeErrors.
_EXPECTED = (
    f"a repro surrogate .npz envelope (surrogate_schema <= "
    f"{SURROGATE_SCHEMA_VERSION}, or a classic save_forest file; "
    "see repro.surrogate.serialize)"
)


def surrogate_from_payload(
    payload: "dict[str, np.ndarray]", source: str = "<payload>"
) -> Surrogate:
    """Rebuild a surrogate from an already-read envelope payload dict.

    Dispatches on the ``surrogate_kind`` stamp; payloads predating the
    envelope (plain :func:`~repro.forest.serialize.save_forest` arrays)
    rebuild as forest surrogates.  Shared by :func:`load_surrogate` and
    the distilled-workload loader (whose envelope is a superset).
    """
    kind = str(payload.get("surrogate_kind", "forest"))
    schema = int(payload.get("surrogate_schema", SURROGATE_SCHEMA_VERSION))
    if schema > SURROGATE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported surrogate envelope schema {schema} "
            f"(this build reads <= {SURROGATE_SCHEMA_VERSION})"
        )
    classes = _kind_classes()
    try:
        cls = classes[kind]
    except KeyError:
        raise ValueError(
            f"unknown surrogate kind {kind!r} in envelope "
            f"(known: {', '.join(sorted(classes))})"
        ) from None
    try:
        return cls.deserialize(payload)
    except KeyError as exc:
        raise EnvelopeError(
            source,
            _EXPECTED,
            f"{kind!r} envelope is missing required key {exc.args[0]!r}",
        ) from None
    except ValueError as exc:
        if isinstance(exc, EnvelopeError):
            raise
        raise EnvelopeError(
            source, _EXPECTED, f"corrupt {kind!r} envelope ({exc})"
        ) from exc


def load_surrogate(file) -> Surrogate:
    """Load any surrogate envelope (or a classic forest npz) from ``file``.

    Dispatches on the ``surrogate_kind`` stamp; files predating the
    envelope (plain :func:`~repro.forest.serialize.save_forest` output)
    load as forest surrogates.  The returned model predicts but holds no
    training data, so it cannot keep learning.  Unreadable files —
    missing, truncated, not an npz archive, missing schema keys, or
    corrupt model arrays — raise a typed
    :class:`~repro.envelope.EnvelopeError` naming the file and the
    expected schema.
    """
    payload = read_npz_payload(file, _EXPECTED)
    return surrogate_from_payload(payload, source=describe_file(file))
