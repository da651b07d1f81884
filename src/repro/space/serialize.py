"""Parameter-space serialization: a JSON-safe round trip for spaces.

Distilled workloads (:mod:`repro.workloads.surrogate`) must reconstruct
the source benchmark's :class:`~repro.space.ParameterSpace` in a process
that never imports the source kernel module, so the space itself travels
inside the distilled envelope as plain data.  Every built-in parameter
kind round-trips; *constraints* do not — they are arbitrary predicates —
so :func:`space_to_dict` records their names only and the caller decides
whether dropping them is acceptable (the distiller stamps the dropped
names into the envelope's provenance).
"""

from __future__ import annotations

import json
from typing import Any

from repro.envelope import is_finite_number
from repro.space.parameters import (
    BooleanParameter,
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    Parameter,
)
from repro.space.space import ParameterSpace

__all__ = ["space_to_dict", "space_from_dict"]

#: Bumped on any incompatible change to the serialized space form.
SPACE_SCHEMA_VERSION = 1

#: Most values a deserialized integer parameter may hold: the parameter
#: materialises its whole range, which a corrupt bound must not make huge.
MAX_INTEGER_VALUES = 2**16


def _parameter_to_dict(p: Parameter) -> dict:
    # BooleanParameter subclasses CategoricalParameter: check it first.
    if isinstance(p, BooleanParameter):
        return {"kind": "boolean", "name": p.name}
    if isinstance(p, CategoricalParameter):
        return {"kind": "categorical", "name": p.name, "categories": list(p.values)}
    if isinstance(p, IntegerParameter):
        return {
            "kind": "integer",
            "name": p.name,
            "low": p.low,
            "high": p.high,
            "step": p.step,
        }
    if isinstance(p, OrdinalParameter):
        return {"kind": "ordinal", "name": p.name, "values": list(p.values)}
    raise ValueError(
        f"parameter {p.name!r} of type {type(p).__name__} is not "
        "serializable; only the built-in parameter kinds round-trip"
    )


def space_to_dict(space: ParameterSpace) -> dict:
    """The space as a JSON-safe dict (constraints recorded by name only).

    Raises :class:`ValueError` if any parameter kind or categorical value
    does not survive a JSON round trip: one JSON cannot write, or one it
    reads back as something else (a tuple comes back a list, a dict's
    integer keys come back strings).
    """
    out = {
        "schema": SPACE_SCHEMA_VERSION,
        "parameters": [_parameter_to_dict(p) for p in space.parameters],
        "constraints": [c.name for c in space.constraints],
    }
    try:
        same = json.loads(json.dumps(out)) == out
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"parameter space is not JSON-serializable: {exc} "
            "(categorical values must be plain JSON types)"
        ) from exc
    if not same:
        raise ValueError(
            "parameter space does not survive a JSON round trip "
            "(categorical values must be plain JSON types: no tuples, "
            "no dicts with non-string keys)"
        )
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parameter_from_dict(d) -> Parameter:
    if not isinstance(d, dict):
        raise ValueError(f"a serialized parameter must be an object, got {d!r}")
    kind = d.get("kind")
    if kind == "boolean":
        return BooleanParameter(d["name"])
    if kind == "categorical":
        if not isinstance(d["categories"], list):
            raise ValueError("categorical parameter categories must be a list")
        return CategoricalParameter(d["name"], d["categories"])
    if kind == "integer":
        low, high, step = d["low"], d["high"], d.get("step", 1)
        if not (_is_int(low) and _is_int(high) and _is_int(step) and step > 0):
            raise ValueError(
                "integer parameter bounds must be integers and its step > 0"
            )
        if (high - low) // step >= MAX_INTEGER_VALUES:
            raise ValueError(
                f"integer parameter range holds more than {MAX_INTEGER_VALUES} "
                "values"
            )
        return IntegerParameter(d["name"], low, high, step)
    if kind == "ordinal":
        values = d["values"]
        if not (isinstance(values, list) and all(map(is_finite_number, values))):
            raise ValueError("ordinal parameter values must be finite numbers")
        return OrdinalParameter(d["name"], values)
    raise ValueError(f"unknown serialized parameter kind {kind!r}")


def space_from_dict(payload: dict) -> ParameterSpace:
    """Inverse of :func:`space_to_dict` (constraints are *not* restored).

    Anything :func:`space_to_dict` could not have written raises
    :class:`ValueError` (or ``KeyError`` for a missing field).
    """
    if not isinstance(payload, dict):
        raise ValueError("a serialized space must be an object")
    schema = payload.get("schema", SPACE_SCHEMA_VERSION)
    if not _is_int(schema) or schema > SPACE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported space schema {schema!r} "
            f"(this build reads <= {SPACE_SCHEMA_VERSION})"
        )
    parameters = payload["parameters"]
    if not isinstance(parameters, list):
        raise ValueError("a serialized space's parameters must be a list")
    params: "list[Any]" = [_parameter_from_dict(d) for d in parameters]
    return ParameterSpace(params)
