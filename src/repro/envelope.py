"""Typed loading of ``.npz`` envelopes (surrogates and workloads).

Every persistence format in this package is a flat ``.npz`` archive with
a schema stamp: the surrogate envelope (:mod:`repro.surrogate.serialize`),
which carries every model family, and the distilled workload envelope
(:mod:`repro.workloads.surrogate`), a superset of it.  Both loaders route
file I/O through :func:`read_npz_payload`, so a truncated download, a
stray text file, or an archive missing its schema keys surfaces as one
typed, actionable :class:`EnvelopeError` — naming the file and the
expected schema — instead of leaking ``zipfile.BadZipFile`` / ``KeyError``
internals to callers (the tuning service turns it into a clean 400).
"""

from __future__ import annotations

import io
import sys
import zipfile
import zlib

import numpy as np

__all__ = [
    "EnvelopeError",
    "read_npz_payload",
    "describe_file",
    "is_finite_number",
]


def is_finite_number(value) -> bool:
    """Whether a value parsed from an envelope's JSON is a finite number:
    an int or float, not a bool, compared with the float range without
    converting it (so NaN, infinities and ints past it fail)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


class EnvelopeError(ValueError):
    """A ``.npz`` envelope that cannot be read or fails its schema.

    ``source`` names what was being read (a path, or a description of an
    in-memory buffer), ``expected`` the schema the loader wanted, and
    ``detail`` what actually went wrong.  The rendered message carries all
    three so the error is actionable without a traceback.
    """

    def __init__(self, source: str, expected: str, detail: str) -> None:
        super().__init__(
            f"{source}: cannot load as {expected} — {detail}"
        )
        self.source = source
        self.expected = expected
        self.detail = detail


def describe_file(file) -> str:
    """A human-readable identity for ``file`` (path or file object)."""
    if isinstance(file, (str, bytes)):
        return file.decode() if isinstance(file, bytes) else file
    name = getattr(file, "name", None)
    if isinstance(name, str):
        return name
    if isinstance(file, io.BytesIO):
        return "<in-memory bytes>"
    return f"<{type(file).__name__}>"


def read_npz_payload(file, expected: str) -> "dict[str, np.ndarray]":
    """Read every array of an ``.npz`` archive into a flat dict.

    ``expected`` describes the schema the caller wants (e.g. ``"a repro
    surrogate envelope (.npz, surrogate_schema <= 1)"``) and is embedded in
    the :class:`EnvelopeError` raised for any unreadable file: missing,
    truncated, not a zip archive, corrupt, encrypted or unsupported
    members, or pickled content.
    """
    source = describe_file(file)
    try:
        with np.load(file, allow_pickle=False) as data:
            return {key: np.asarray(data[key]) for key in data.files}
    except FileNotFoundError as exc:
        raise EnvelopeError(source, expected, "file not found") from exc
    except IsADirectoryError as exc:
        raise EnvelopeError(source, expected, "path is a directory") from exc
    except (zipfile.BadZipFile, zlib.error) as exc:
        raise EnvelopeError(
            source, expected, f"not a readable npz archive ({exc})"
        ) from exc
    except (NotImplementedError, RuntimeError) as exc:
        # zipfile's errors for a member with an unknown compression method
        # and for one flagged as encrypted.
        raise EnvelopeError(
            source, expected, f"unreadable archive member ({exc})"
        ) from exc
    except EOFError as exc:
        raise EnvelopeError(
            source, expected, f"file is empty or truncated ({exc})"
        ) from exc
    except (ValueError, KeyError, OSError) as exc:
        raise EnvelopeError(
            source, expected, f"corrupt or foreign file ({exc})"
        ) from exc

