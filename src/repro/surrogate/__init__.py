"""`repro.surrogate` — one protocol for every model that drives Algorithm 1.

The active-learning loop only needs ``(μ, σ)`` per pool point; this
package makes that contract formal (:class:`Surrogate`), registers every
model family by name (``forest``, ``gp``, ``select``, ``stack``), and
gives them one serialization envelope — so the learner, the api, the
CLI, and the tuning service swap surrogates with a string: a surrogate
is built from its name alone.  See DESIGN.md §2i.
"""

from repro.surrogate.adapters import ForestSurrogate, GPSurrogate
from repro.surrogate.base import Surrogate
from repro.surrogate.registry import (
    SURROGATE_NAMES,
    available_surrogates,
    make_surrogate,
    register_surrogate,
    supports_partial_update,
    surrogate_entry,
)
from repro.surrogate.select import SelectSurrogate
from repro.surrogate.serialize import load_surrogate, save_surrogate, surrogate_bytes
from repro.surrogate.stack import StackSurrogate

__all__ = [
    "Surrogate",
    "ForestSurrogate",
    "GPSurrogate",
    "SelectSurrogate",
    "StackSurrogate",
    "SURROGATE_NAMES",
    "register_surrogate",
    "make_surrogate",
    "available_surrogates",
    "supports_partial_update",
    "surrogate_entry",
    "save_surrogate",
    "load_surrogate",
    "surrogate_bytes",
]
