"""Forest persistence.

The paper's workflow separates model *construction* (expensive: real
measurements) from model *use* (surrogate-annotated tuning, Fig. 8).  In
practice those happen in different processes, so the fitted forest must
survive a round trip to disk.

Format version 2 stores the ensemble in its packed SoA form
(:class:`~repro.forest.packed.PackedForest`): eight concatenated node
arrays plus the per-tree offsets vector.  Loading hands the packed form
and its feature count straight to the forest, so a loaded model predicts
without rebuilding anything; per-tree objects are sliced out only if
something reads ``trees_``.  Any other version is rejected.
"""

from __future__ import annotations

import numpy as np

from repro.envelope import EnvelopeError, describe_file, read_npz_payload, require_keys
from repro.forest.forest import RandomForestRegressor
from repro.forest.packed import FIELDS, PackedForest

__all__ = ["save_forest", "load_forest", "forest_payload", "forest_from_payload"]

_FORMAT_VERSION = 2


def forest_payload(model: RandomForestRegressor) -> dict[str, np.ndarray]:
    """The format-2 npz payload for a fitted forest, as a flat dict.

    Shared between :func:`save_forest` and the surrogate-protocol
    adapter (:mod:`repro.surrogate`), whose envelopes embed the same
    arrays.
    """
    if model.n_features_ is None:
        raise ValueError("cannot save an unfitted forest")
    packed = model.packed()
    payload: dict[str, np.ndarray] = {
        "format_version": np.asarray(_FORMAT_VERSION),
        "n_features": np.asarray(packed.n_features),
        "uncertainty": np.asarray(model.uncertainty),
        "offsets": packed.offsets,
    }
    for name, arr in packed.arrays().items():
        payload[f"packed_{name}"] = arr
    return payload


def save_forest(model: RandomForestRegressor, path: str) -> None:
    """Serialise a fitted forest to ``path`` (``.npz``), packed form."""
    np.savez_compressed(path, **forest_payload(model))


def forest_from_payload(data) -> RandomForestRegressor:
    """Rebuild a forest from a format-2 payload mapping (dict or npz).

    Raises ``ValueError`` for any other format version, and for node
    arrays that fail the structure check every :class:`PackedForest` runs
    on construction, before anything traverses them.
    """
    version = int(data["format_version"])
    uncertainty = str(data["uncertainty"])
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported forest format version {version} "
            f"(this build reads only version {_FORMAT_VERSION})"
        )
    packed = PackedForest(
        *(np.asarray(data[f"packed_{name}"]) for name in FIELDS),
        offsets=np.asarray(data["offsets"]),
        n_features=int(data["n_features"]),
    )
    model = RandomForestRegressor(
        n_estimators=packed.n_trees, uncertainty=uncertainty
    )
    model._packed = packed
    model.n_features_ = packed.n_features
    return model


#: What a forest loader expects, embedded in every EnvelopeError it raises.
_EXPECTED = (
    f"a repro forest .npz (format_version {_FORMAT_VERSION}, "
    "packed node arrays; see repro.forest.serialize)"
)


def load_forest(path: str) -> RandomForestRegressor:
    """Load a forest saved by :func:`save_forest` (format 2).

    The returned model predicts (with uncertainty) but holds no training
    data, so it cannot be :meth:`~RandomForestRegressor.update`-d; refit
    from data if you need to keep learning.  Missing, truncated, or
    foreign files, and node arrays that fail the structure check, raise a
    typed :class:`~repro.envelope.EnvelopeError` naming the file and the
    expected schema (never a raw ``zipfile.BadZipFile`` or ``KeyError``).
    """
    source = describe_file(path)
    payload = read_npz_payload(path, _EXPECTED)
    require_keys(payload, ("format_version",), source, _EXPECTED)
    try:
        return forest_from_payload(payload)
    except KeyError as exc:
        raise EnvelopeError(
            source, _EXPECTED, f"archive is missing required key {exc.args[0]!r}"
        ) from None
    except ValueError as exc:
        raise EnvelopeError(source, _EXPECTED, str(exc)) from exc
