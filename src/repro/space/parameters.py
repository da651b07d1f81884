"""Tunable-parameter types.

All SPAPT / kripke / hypre parameters are discrete.  Each parameter knows its
value list, how to sample uniformly, and how to encode values to the floats
the surrogate model consumes.

Encoding convention
-------------------
* Ordered parameters (integer ranges, ordinal lists, booleans) encode to the
  *numeric value itself* so the forest can exploit ordering (a tile size of
  64 really is between 32 and 128).
* Categorical parameters encode to their category *index*.  A CART tree can
  still carve out individual categories with a pair of threshold splits, which
  matches how the paper's scikit-learn forests consumed label-encoded
  categoricals.
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

__all__ = [
    "Parameter",
    "IntegerParameter",
    "OrdinalParameter",
    "CategoricalParameter",
    "BooleanParameter",
]


class Parameter(ABC):
    """A named, discrete tunable parameter."""

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise ValueError("parameter name must be a non-empty string")
        self.name = name

    # -- interface -----------------------------------------------------
    @property
    @abstractmethod
    def values(self) -> tuple[Any, ...]:
        """All admissible values, in canonical order."""

    @property
    def n_values(self) -> int:
        return len(self.values)

    @property
    def is_categorical(self) -> bool:
        return False

    @abstractmethod
    def encode(self, value: Any) -> float:
        """Map an admissible value to its float feature representation."""

    @abstractmethod
    def decode(self, code: float) -> Any:
        """Inverse of :meth:`encode` (must round-trip for admissible values)."""

    # -- shared behaviour ----------------------------------------------
    def sample(self, rng: np.random.Generator, size: int | None = None) -> Any:
        """Draw uniformly from the admissible values."""
        idx = rng.integers(0, self.n_values, size=size)
        if size is None:
            return self.values[int(idx)]
        return [self.values[int(i)] for i in np.atleast_1d(idx)]

    def sample_codes(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` encoded values as a float vector (vectorised path)."""
        idx = rng.integers(0, self.n_values, size=size)
        return self._codes_table()[idx]

    def _codes_table(self) -> np.ndarray:
        table = getattr(self, "_codes_cache", None)
        if table is None:
            table = np.asarray([self.encode(v) for v in self.values], dtype=np.float64)
            self._codes_cache = table
        return table

    def index_of(self, value: Any) -> int:
        """Position of ``value`` in :attr:`values`; raises ``ValueError`` if absent."""
        try:
            return self.values.index(value)
        except ValueError:
            raise ValueError(
                f"{value!r} is not an admissible value of parameter {self.name!r}"
            ) from None

    def __contains__(self, value: Any) -> bool:
        return value in self.values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        vals = self.values
        shown = vals if len(vals) <= 6 else vals[:3] + ("...",) + vals[-2:]
        return f"{type(self).__name__}({self.name!r}, values={shown})"


class IntegerParameter(Parameter):
    """A contiguous (optionally strided) integer range, ordered.

    Example: SPAPT unroll-jam factors ``1..31`` → ``IntegerParameter("U1", 1, 31)``.
    """

    def __init__(self, name: str, low: int, high: int, step: int = 1) -> None:
        super().__init__(name)
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        if high < low:
            raise ValueError(f"empty range [{low}, {high}] for parameter {name!r}")
        self.low = int(low)
        self.high = int(high)
        self.step = int(step)
        self._values = tuple(range(self.low, self.high + 1, self.step))

    @property
    def values(self) -> tuple[int, ...]:
        return self._values

    def encode(self, value: Any) -> float:
        if value not in self:
            raise ValueError(
                f"{value!r} is not an admissible value of parameter {self.name!r}"
            )
        return float(value)

    def decode(self, code: float) -> int:
        # Snap to the nearest admissible value.
        idx = int(round((float(code) - self.low) / self.step))
        idx = min(max(idx, 0), self.n_values - 1)
        return self._values[idx]


def _is_finite_real(value: Any) -> bool:
    """Whether ``value`` is a real number, not a bool, whose float is finite."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


class OrdinalParameter(Parameter):
    """An explicit ordered list of numeric values.

    Every value must encode: a real number, not a bool, whose float is
    finite.

    Example: SPAPT cache-tile sizes ``1, 16, 32, 64, 128, 256, 512``.
    """

    def __init__(self, name: str, values: Sequence[float]) -> None:
        super().__init__(name)
        if len(values) == 0:
            raise ValueError(f"ordinal parameter {name!r} needs at least one value")
        vals = tuple(values)
        if not all(map(_is_finite_real, vals)):
            raise ValueError(
                f"ordinal parameter {name!r} values must be real numbers "
                "(not bools) with a finite float"
            )
        if len(set(vals)) != len(vals):
            raise ValueError(f"ordinal parameter {name!r} has duplicate values")
        if list(vals) != sorted(vals):
            raise ValueError(f"ordinal parameter {name!r} values must be ascending")
        self._values = vals

    @property
    def values(self) -> tuple[float, ...]:
        return self._values

    def encode(self, value: Any) -> float:
        self.index_of(value)
        return float(value)

    def decode(self, code: float) -> Any:
        arr = np.asarray(self._values, dtype=np.float64)
        return self._values[int(np.argmin(np.abs(arr - float(code))))]


class CategoricalParameter(Parameter):
    """An unordered set of categories, encoded as the category index.

    Example: kripke data layout ``DGZ, DZG, GDZ, GZD, ZDG, ZGD``.
    """

    def __init__(self, name: str, categories: Sequence[Any]) -> None:
        super().__init__(name)
        if len(categories) == 0:
            raise ValueError(f"categorical parameter {name!r} needs at least one category")
        cats = tuple(categories)
        # index_of finds a category by ==, so no two may compare equal.
        if any(cats.index(c) != i for i, c in enumerate(cats)):
            raise ValueError(f"categorical parameter {name!r} has duplicate categories")
        self._values = cats

    @property
    def values(self) -> tuple[Any, ...]:
        return self._values

    @property
    def is_categorical(self) -> bool:
        return True

    def encode(self, value: Any) -> float:
        return float(self.index_of(value))

    def decode(self, code: float) -> Any:
        idx = int(round(float(code)))
        if not 0 <= idx < self.n_values:
            raise ValueError(
                f"code {code!r} out of range for categorical {self.name!r} "
                f"with {self.n_values} categories"
            )
        return self._values[idx]


class BooleanParameter(CategoricalParameter):
    """A two-valued flag (e.g. SPAPT scalar replacement on/off)."""

    def __init__(self, name: str) -> None:
        super().__init__(name, (False, True))

    def encode(self, value: Any) -> float:
        if not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"parameter {self.name!r} expects a bool, got {value!r}")
        return float(bool(value))

    def decode(self, code: float) -> bool:
        return bool(round(float(code)))
