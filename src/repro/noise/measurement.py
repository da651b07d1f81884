"""System-noise model for simulated time measurements.

The paper's kernels run in well under a second and are visibly perturbed by
system noise; the authors mitigate this by stripping services and averaging
35 executions per configuration (Section III-B, following Balaprakash et
al.).  The applications are averaged over "several" runs against network
jitter.

We model one observed execution as

.. math:: t_{obs} = t_{true} \\cdot \\varepsilon \\cdot o

with :math:`\\varepsilon \\sim \\mathrm{LogNormal}(0, \\sigma)` multiplicative
jitter and, with small probability, an outlier factor :math:`o > 1`
(a daemon wake-up or page-cache miss storm — real timing outliers only ever
slow a run down).  :meth:`MeasurementProtocol.observe` then averages
``n_repeats`` such executions, exactly like the paper's protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.envelope import is_finite_number

__all__ = ["MeasurementProtocol", "KERNEL_PROTOCOL", "APP_PROTOCOL"]

#: Most repeats a deserialized protocol may average: each measured row
#: draws ``n_repeats`` values, so a corrupt count must not make it huge.
MAX_REPEATS = 10_000


@dataclass(frozen=True)
class MeasurementProtocol:
    """How a configuration's execution time is observed.

    Parameters
    ----------
    n_repeats:
        Executions averaged per measurement (35 for kernels in the paper).
    noise_sigma:
        Log-scale std of the multiplicative jitter per execution.
    outlier_prob:
        Per-execution probability of an interference outlier.
    outlier_scale:
        Mean slowdown factor of an outlier execution.
    """

    n_repeats: int = 35
    noise_sigma: float = 0.03
    outlier_prob: float = 0.01
    outlier_scale: float = 4.0

    def __post_init__(self) -> None:
        if self.n_repeats < 1:
            raise ValueError("n_repeats must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if not 0.0 <= self.outlier_prob < 1.0:
            raise ValueError("outlier_prob must be in [0, 1)")
        if self.outlier_scale < 1.0:
            raise ValueError("outliers slow runs down: outlier_scale must be >= 1")

    @property
    def is_exact(self) -> bool:
        """Whether observations are bit-identical to the true times.

        A protocol with no jitter and no outliers observes the surface
        exactly; :meth:`observe` then consumes no randomness and performs
        no repeat-averaging (whose sum/divide round-off would otherwise
        perturb the last bits even with every draw equal to 1.0).
        Distilled workloads use this for fully deterministic regression
        surfaces.
        """
        return self.noise_sigma == 0.0 and self.outlier_prob == 0.0

    def observe(self, true_times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Observed (repeat-averaged) times for a vector of true times."""
        t = np.atleast_1d(np.asarray(true_times, dtype=np.float64))
        if np.any(t <= 0):
            raise ValueError("true execution times must be positive")
        # repro: allow[FLOW002] the exact protocol consumes no randomness by design (see is_exact); callers derive per-trial streams either way
        if self.is_exact:
            return t.copy()
        n = len(t)
        shape = (n, self.n_repeats)
        eps = np.exp(rng.normal(0.0, self.noise_sigma, size=shape))
        if self.outlier_prob > 0:
            hit = rng.random(size=shape) < self.outlier_prob
            # Outlier magnitude itself is dispersed (exponential around scale-1).
            magnitude = 1.0 + rng.exponential(self.outlier_scale - 1.0, size=shape)
            eps = np.where(hit, eps * magnitude, eps)
        return (t[:, None] * eps).mean(axis=1)

    def observe_one(self, true_time: float, rng: np.random.Generator) -> float:
        return float(self.observe(np.asarray([true_time]), rng)[0])

    # -- serialization (distilled-workload envelopes) ----------------------
    def to_dict(self) -> dict:
        """JSON-safe form, round-tripped by :meth:`from_dict`."""
        return {
            "n_repeats": int(self.n_repeats),
            "noise_sigma": float(self.noise_sigma),
            "outlier_prob": float(self.outlier_prob),
            "outlier_scale": float(self.outlier_scale),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MeasurementProtocol":
        """Inverse of :meth:`to_dict`.  Anything it could not have written
        raises :class:`ValueError` (``KeyError`` for a missing field):
        ``n_repeats`` must be an integer in ``[1, MAX_REPEATS]`` and the
        other fields finite numbers."""
        if not isinstance(payload, dict):
            raise ValueError("a serialized protocol must be an object")
        n_repeats = payload["n_repeats"]
        if not (isinstance(n_repeats, int) and not isinstance(n_repeats, bool)
                and 1 <= n_repeats <= MAX_REPEATS):
            raise ValueError(f"n_repeats must be an integer in [1, {MAX_REPEATS}]")
        reals = [payload[k] for k in ("noise_sigma", "outlier_prob", "outlier_scale")]
        if not all(map(is_finite_number, reals)):
            raise ValueError("protocol noise fields must be finite numbers")
        sigma, prob, scale = map(float, reals)
        return cls(n_repeats, sigma, prob, scale)


#: Kernel protocol: 35 repeats (paper, Section III-B), noticeable jitter.
KERNEL_PROTOCOL = MeasurementProtocol(
    n_repeats=35, noise_sigma=0.04, outlier_prob=0.01, outlier_scale=4.0
)

#: Application protocol: "several" repeats against network instability.
APP_PROTOCOL = MeasurementProtocol(
    n_repeats=5, noise_sigma=0.03, outlier_prob=0.005, outlier_scale=2.0
)
