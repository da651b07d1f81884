"""One on-disk envelope for every surrogate family.

The envelope is a flat ``.npz``: the model's :meth:`Surrogate.serialize`
payload plus a ``surrogate_kind`` stamp for dispatch on load and a
``surrogate_schema`` version.  It is the only format any model is written
in, so :func:`load_surrogate` requires the stamp: an unstamped archive
(such as a bare forest payload) raises :class:`EnvelopeError`.  One line
converts a bare format-2 forest file::

    save_surrogate(RandomForestRegressor.deserialize(dict(np.load(path))), path)

Meta-surrogates (``select``/``stack``) nest their children as byte
blobs — each child is itself a complete envelope — via
:func:`embed_blob` / :func:`extract_blob`.

An unknown ``surrogate_kind`` (e.g. ``"transfer"``, which earlier builds
wrote) or a newer ``surrogate_schema`` raises :class:`EnvelopeError`.
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
    from repro.forest import RandomForestRegressor
    from repro.gp import GaussianProcessRegressor
    from repro.surrogate.select import SelectSurrogate
    from repro.surrogate.stack import StackSurrogate

    classes = (RandomForestRegressor, GaussianProcessRegressor,
               SelectSurrogate, StackSurrogate)
    return {cls.kind: cls for cls in classes}


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
    f"a repro surrogate .npz envelope (surrogate_kind stamp, "
    f"surrogate_schema <= {SURROGATE_SCHEMA_VERSION}; "
    "see repro.surrogate.serialize)"
)


def surrogate_from_payload(
    payload: "dict[str, np.ndarray]", source: str = "<payload>"
) -> Surrogate:
    """Rebuild a surrogate from an already-read envelope payload dict.

    Dispatches on the ``surrogate_kind`` stamp, which must be present.
    Shared by :func:`load_surrogate` and the distilled-workload loader
    (whose envelope is a superset).
    """
    if "surrogate_kind" not in payload:
        raise EnvelopeError(source, _EXPECTED, "archive has no surrogate_kind stamp")
    kind = str(payload["surrogate_kind"])
    schema = payload.get("surrogate_schema", np.asarray(SURROGATE_SCHEMA_VERSION))
    if schema.ndim != 0 or schema.dtype.kind not in "iu":
        raise EnvelopeError(
            source, _EXPECTED, f"surrogate_schema {schema!r} is not an integer"
        )
    if schema > SURROGATE_SCHEMA_VERSION:
        raise EnvelopeError(
            source,
            _EXPECTED,
            f"unsupported surrogate envelope schema {schema} "
            f"(this build reads <= {SURROGATE_SCHEMA_VERSION})",
        )
    classes = _kind_classes()
    try:
        cls = classes[kind]
    except KeyError:
        raise EnvelopeError(
            source,
            _EXPECTED,
            f"unknown surrogate kind {kind!r} in envelope "
            f"(known: {', '.join(sorted(classes))})",
        ) from None
    try:
        return cls.deserialize(payload)
    except KeyError as exc:
        raise EnvelopeError(
            source,
            _EXPECTED,
            f"{kind!r} envelope is missing required key {exc.args[0]!r}",
        ) from None
    except (ValueError, TypeError) as exc:
        # TypeError: a scalar key holding an array (int(np.array([1, 2]))).
        if isinstance(exc, EnvelopeError):
            raise
        raise EnvelopeError(
            source, _EXPECTED, f"corrupt {kind!r} envelope ({exc})"
        ) from exc


def load_surrogate(file) -> Surrogate:
    """Load any surrogate envelope from ``file`` (path or file object).

    Dispatches on the ``surrogate_kind`` stamp.  The returned model
    predicts what the saved one did but does not continue its learning
    (see :meth:`Surrogate.deserialize`).  Unreadable files — missing,
    truncated, not an npz archive, without the stamp or other schema
    keys, or model arrays that fail the family's checks — raise a typed
    :class:`~repro.envelope.EnvelopeError` naming the file and the
    expected schema.
    """
    payload = read_npz_payload(file, _EXPECTED)
    return surrogate_from_payload(payload, source=describe_file(file))
