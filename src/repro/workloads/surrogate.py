"""Distilled surrogate workloads: frozen models as first-class benchmarks.

Eggensperger et al. ("Efficient Benchmarking of Algorithm Configuration
Procedures via Model-Based Surrogates") showed that a model trained on a
benchmark can *replace* the benchmark for method development: evaluating
the model costs microseconds where the real measurement protocol costs
repeat-averaged executions.  This module implements that pattern on top
of the :mod:`repro.surrogate` envelope:

:class:`SurrogateBenchmark`
    wraps any fitted surrogate (forest, gp, select, stack, ...) as a
    :class:`~repro.workloads.base.Benchmark` — the frozen model's mean
    prediction is the deterministic ``true_times_encoded`` response
    surface, a fitted log-normal :class:`~repro.noise.MeasurementProtocol`
    sits on top, and the source benchmark's
    :class:`~repro.space.ParameterSpace` is reconstructed from metadata
    stamped at distillation time.

:func:`distill_workload`
    runs a sampling campaign against a source benchmark, fits the named
    surrogate family, estimates the noise model, and returns the wrapped
    benchmark (``repro distill`` is the CLI verb).

:func:`save_distilled` / :func:`load_distilled`
    one ``.npz`` envelope: the surrogate envelope's arrays plus a
    ``workload_meta`` JSON blob (space, noise, provenance).  The file is
    a superset of the plain surrogate envelope, so
    :func:`repro.surrogate.load_surrogate` (and, for forests,
    :func:`repro.forest.load_forest`) still read it.

Distilled workloads resolve anywhere a benchmark name does —
``surrogate:<path.npz>`` loads a file directly, and files committed to
the zoo (``benchmarks/distilled/`` at the repository root) register as
``distilled:<stem>`` — so ``repro run``, :func:`repro.api.compare`, the
figure harness, and :class:`repro.service` sessions all accept them.
Because evaluation is one fused model prediction plus a single noise draw
(no 35-repeat averaging), they make near-zero-cost regression substrates
for strategy development against a *fixed* response surface.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.envelope import EnvelopeError, describe_file, read_npz_payload
from repro.noise import MeasurementProtocol
from repro.rng import derive
from repro.space import ParameterSpace, space_from_dict, space_to_dict
from repro.telemetry import counters
from repro.workloads.base import Benchmark

__all__ = [
    "SurrogateBenchmark",
    "distill_workload",
    "save_distilled",
    "load_distilled",
    "zoo_dir",
    "zoo_entries",
    "NOISE_MODES",
    "WORKLOAD_SCHEMA_VERSION",
    "FILE_PREFIX",
    "ZOO_PREFIX",
]

#: Bumped on any incompatible change to the ``workload_meta`` schema.
WORKLOAD_SCHEMA_VERSION = 1

#: Name prefix resolving a distilled envelope straight from a file path.
FILE_PREFIX = "surrogate:"

#: Name prefix of committed zoo workloads (``distilled:<stem>``).
ZOO_PREFIX = "distilled:"

#: Noise-model estimation modes for :func:`distill_workload`:
#:
#: ``protocol``
#:     (default) one draw whose log-σ matches the *repeat-averaged* output
#:     of the source protocol (σ/√n_repeats) — same observation noise the
#:     learner saw, at 1/n_repeats the draw cost; outliers, which the
#:     averaging dilutes, are dropped.
#: ``residual``
#:     log-σ fitted from the distillation campaign's residuals
#:     ``std(log y − log μ)`` — captures model misfit as observation
#:     noise.
#: ``exact``
#:     the source protocol verbatim (repeats, outliers and all).
#: ``none``
#:     zero noise: observations are bit-identical to the frozen surface
#:     (see :attr:`MeasurementProtocol.is_exact`).
NOISE_MODES = ("protocol", "residual", "exact", "none")

_EXPECTED = (
    f"a repro distilled-workload .npz envelope (workload_meta JSON, "
    f"workload_schema <= {WORKLOAD_SCHEMA_VERSION}, surrogate arrays; "
    "see repro.workloads.surrogate)"
)


class SurrogateBenchmark(Benchmark):
    """A frozen surrogate model serving as a deterministic benchmark.

    ``true_times_encoded`` is the model's mean prediction (floored at
    ``time_floor`` — model extrapolations must stay positive); the
    measurement protocol on top is whatever the distiller fitted.  The
    instance also keeps the raw serialized payload so saving it again is
    byte-stable (no refit, no re-pack).
    """

    def __init__(
        self,
        name: str,
        space: ParameterSpace,
        protocol: MeasurementProtocol,
        model,
        meta: dict,
        payload: "dict[str, np.ndarray] | None" = None,
    ) -> None:
        super().__init__(space, protocol)
        self.name = name
        self.model = model
        self.meta = meta
        self._payload = payload
        self._time_floor = float(meta.get("time_floor", 1e-12))

    def true_times_encoded(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        mu = np.asarray(self.model.predict(X), dtype=np.float64)
        return np.maximum(mu, self._time_floor)

    @property
    def provenance(self) -> dict:
        """Distillation provenance stamped into the envelope."""
        return dict(self.meta.get("provenance", {}))


def _noise_protocol(
    mode: str,
    source_protocol: MeasurementProtocol,
    y: np.ndarray,
    mu: np.ndarray,
) -> MeasurementProtocol:
    if mode == "exact":
        return source_protocol
    if mode == "none":
        return MeasurementProtocol(n_repeats=1, noise_sigma=0.0, outlier_prob=0.0)
    if mode == "protocol":
        sigma = source_protocol.noise_sigma / np.sqrt(source_protocol.n_repeats)
        return MeasurementProtocol(
            n_repeats=1, noise_sigma=float(sigma), outlier_prob=0.0
        )
    if mode == "residual":
        sigma = float(np.std(np.log(y) - np.log(np.maximum(mu, 1e-300))))
        return MeasurementProtocol(
            n_repeats=1, noise_sigma=sigma, outlier_prob=0.0
        )
    raise ValueError(f"unknown noise mode {mode!r}; choose from {NOISE_MODES}")


def distill_workload(
    benchmark: Benchmark,
    surrogate: str = "forest",
    budget: int = 512,
    seed: int = 0,
    noise: str = "protocol",
    n_estimators: int = 30,
    name: "str | None" = None,
) -> SurrogateBenchmark:
    """Distill ``benchmark`` into a frozen surrogate workload.

    Runs a ``budget``-configuration sampling campaign (unique uniform
    draws, one fused :meth:`~Benchmark.evaluate_batch` measurement pass),
    fits the named surrogate family on the observations, estimates the
    noise model per ``noise`` (see :data:`NOISE_MODES`), and returns the
    wrapped :class:`SurrogateBenchmark` carrying full provenance.  All
    randomness derives from ``seed`` keyed by the source benchmark's name,
    so distilling twice produces bit-identical envelopes.

    The source space's *constraints* (arbitrary predicates) cannot travel
    through the envelope; they are dropped, and their names recorded in
    ``provenance["constraints_dropped"]`` — the frozen model still scores
    infeasible points, as extrapolations.
    """
    from repro._version import __version__
    from repro.surrogate import make_surrogate

    if budget < 2:
        raise ValueError(f"distillation budget must be >= 2, got {budget}")
    if noise not in NOISE_MODES:
        raise ValueError(f"unknown noise mode {noise!r}; choose from {NOISE_MODES}")

    campaign_rng = derive(seed, "distill", benchmark.name)
    X = benchmark.space.sample_unique_encoded(campaign_rng, budget)
    y = benchmark.evaluate_batch(X, campaign_rng)

    # Duck-typed config: the surrogate factories read the forest knobs via
    # getattr, with the learner's defaults for the ones not set here.
    config = SimpleNamespace(n_estimators=int(n_estimators))
    model = make_surrogate(
        surrogate, config=config, rng=derive(seed, "distill", benchmark.name, "fit")
    )
    model.fit(X, y)

    mu = np.asarray(model.predict(X), dtype=np.float64)
    protocol = _noise_protocol(noise, benchmark.protocol, y, mu)
    workload_name = name or f"{benchmark.name}-{surrogate}"
    meta = {
        "schema": WORKLOAD_SCHEMA_VERSION,
        "name": workload_name,
        "space": space_to_dict(benchmark.space),
        "noise": protocol.to_dict(),
        "time_floor": float(np.min(y) * 1e-3),
        "provenance": {
            "source": benchmark.name,
            "surrogate": surrogate,
            "budget": int(budget),
            "seed": int(seed),
            "noise_mode": noise,
            "n_estimators": int(n_estimators),
            "package_version": __version__,
            "source_protocol": benchmark.protocol.to_dict(),
            "constraints_dropped": [c.name for c in benchmark.space.constraints],
            "fit_rmse_log": float(
                np.sqrt(np.mean((np.log(y) - np.log(np.maximum(mu, 1e-300))) ** 2))
            ),
        },
    }
    counters.inc("surrogate.distills")
    return SurrogateBenchmark(
        workload_name, space_from_dict(meta["space"]), protocol, model, meta
    )


def save_distilled(bench: SurrogateBenchmark, file) -> None:
    """Write a distilled workload's envelope to ``file`` (path or buffer).

    The envelope is the surrogate envelope plus a ``workload_schema``
    stamp and the ``workload_meta`` JSON blob, so plain surrogate (and,
    for forests, forest) loaders read the same file.
    """
    if bench._payload is not None:
        payload = dict(bench._payload)
    else:
        from repro.surrogate.serialize import SURROGATE_SCHEMA_VERSION

        payload = dict(bench.model.serialize())
        payload["surrogate_kind"] = np.asarray(bench.model.kind)
        payload["surrogate_schema"] = np.asarray(SURROGATE_SCHEMA_VERSION)
    payload["workload_schema"] = np.asarray(WORKLOAD_SCHEMA_VERSION)
    payload["workload_meta"] = np.asarray(
        json.dumps(bench.meta, sort_keys=True, separators=(",", ":"))
    )
    np.savez_compressed(file, **payload)


def load_distilled(file) -> SurrogateBenchmark:
    """Load a distilled workload saved by :func:`save_distilled`.

    Missing, truncated, or foreign files — including valid surrogate
    envelopes that were never distilled (no ``workload_meta``) — raise a
    typed :class:`~repro.envelope.EnvelopeError` naming the file and the
    expected schema.
    """
    source = describe_file(file)
    payload = read_npz_payload(file, _EXPECTED)
    if "workload_meta" not in payload:
        raise EnvelopeError(
            source,
            _EXPECTED,
            "archive has no workload_meta stamp — this is not a distilled "
            "workload (a plain surrogate/forest envelope cannot serve as a "
            "benchmark; run `repro distill` to create one)",
        )
    schema = int(payload.get("workload_schema", WORKLOAD_SCHEMA_VERSION))
    if schema > WORKLOAD_SCHEMA_VERSION:
        raise EnvelopeError(
            source,
            _EXPECTED,
            f"unsupported workload schema {schema} "
            f"(this build reads <= {WORKLOAD_SCHEMA_VERSION})",
        )
    try:
        meta = json.loads(str(payload["workload_meta"]))
        space = space_from_dict(meta["space"])
        protocol = MeasurementProtocol.from_dict(meta["noise"])
        name = str(meta["name"])
    except (KeyError, ValueError, TypeError) as exc:
        raise EnvelopeError(
            source, _EXPECTED, f"corrupt workload_meta ({exc})"
        ) from exc
    from repro.surrogate.serialize import surrogate_from_payload

    try:
        model = surrogate_from_payload(payload, source=source)
    except ValueError as exc:
        if isinstance(exc, EnvelopeError):
            raise
        raise EnvelopeError(source, _EXPECTED, str(exc)) from exc
    counters.inc("surrogate.distilled_loads")
    return SurrogateBenchmark(name, space, protocol, model, meta, payload=payload)


# -- the committed zoo --------------------------------------------------------


def zoo_dir() -> "Path | None":
    """The committed distilled-workload directory, if present.

    ``benchmarks/distilled/`` at the repository root (three levels above
    this module under the ``src/`` layout); ``None`` for installations
    without the repository checkout.
    """
    root = Path(__file__).resolve().parents[3]
    d = root / "benchmarks" / "distilled"
    return d if d.is_dir() else None


def zoo_entries() -> "dict[str, Path]":
    """Registry names → paths of every committed zoo envelope, sorted."""
    d = zoo_dir()
    if d is None:
        return {}
    return {f"{ZOO_PREFIX}{p.stem}": p for p in sorted(d.glob("*.npz"))}
