"""Wire protocol schema v1: envelopes, session specs, and typed errors.

Every JSON response body the daemon emits is wrapped in :func:`envelope`,
which stamps three provenance fields clients can (and the bundled client
does) check before trusting the payload:

``schema``
    the literal :data:`SERVICE_SCHEMA` (``"repro.service.v1"``) — a
    response from something that is not this service fails fast;
``protocol``
    the integer :data:`PROTOCOL_VERSION`, bumped on any incompatible
    wire change;
``version``
    the package :data:`repro._version.__version__`, so a client can
    report exactly which build produced a model.

:class:`SessionSpec` is the canonical, validated description of one
tuning session — benchmark, strategy, seed, budget, evaluation mode —
parsed from the ``POST /v1/sessions`` body by :meth:`SessionSpec.from_payload`
and persisted verbatim in the session's ``meta.json`` so a restarted
daemon rebuilds the identical learner.  Its :meth:`SessionSpec.spec_hash`
is a content address over the canonical JSON form, embedded in session
ids.  :class:`ProtocolError` carries an HTTP status plus a stable
machine-readable ``code``; the app layer renders it as a JSON error
envelope instead of a stack trace.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

from repro._version import __version__
from repro.active import LearnerConfig
from repro.experiments.config import SCALES, ExperimentScale

__all__ = [
    "SERVICE_SCHEMA",
    "PROTOCOL_VERSION",
    "envelope",
    "ProtocolError",
    "SessionSpec",
]

#: Schema identifier stamped into every response envelope.
SERVICE_SCHEMA = "repro.service.v1"

#: Wire protocol version; bumped on any incompatible change.
PROTOCOL_VERSION = 1

#: Session evaluation modes: ``client`` (the caller measures and reports)
#: or ``server`` (the daemon measures via the named benchmark itself).
MODES = ("client", "server")


def envelope(data: "dict | None" = None) -> dict:
    """Wrap a response payload with schema/protocol/version provenance."""
    out = {
        "schema": SERVICE_SCHEMA,
        "protocol": PROTOCOL_VERSION,
        "version": __version__,
    }
    if data:
        out.update(data)
    return out


class ProtocolError(Exception):
    """A request the service rejects, with an HTTP status and stable code.

    ``status`` is the HTTP status to respond with, ``code`` a stable
    machine-readable identifier (``"unknown_session"``, ``"no_model"``,
    ...), and ``message`` the human-readable explanation.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def to_payload(self) -> dict:
        """The error as a JSON-safe envelope body."""
        return envelope({"error": {"code": self.code, "message": self.message}})


#: Spec fields that override the named scale's sizes unless ``None``.
_SIZE_FIELDS = (
    "n_init", "n_batch", "n_max", "eval_every", "n_estimators", "pool_size", "test_size"
)
#: Largest size a spec may ask for.  Probing or building a session
#: allocates in proportion to its sizes (the forest keeps one stamp per
#: tree), so an unbounded size from a client could exhaust the host.
_MAX_SIZE = 1_000_000


def _is_a(value, kind) -> bool:
    """``isinstance`` that does not take a bool for a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class SessionSpec:
    """Everything needed to (re)build one tuning session's learner.

    Sizes default from the named ``scale`` (an
    :class:`~repro.experiments.config.ExperimentScale`); any explicitly
    provided field overrides the scale's value.  The spec is the *whole*
    source of session randomness — two sessions with equal specs produce
    bit-identical suggestion streams.
    """

    benchmark: str
    strategy: str = "pwu"
    #: Surrogate family (``repro.surrogate`` registry name) driving the
    #: session's model; the default forest keeps specs — and therefore
    #: spec hashes and session ids — stable for pre-surrogate clients
    #: that never send the field.
    surrogate: str = "forest"
    seed: int = 0
    #: ``client``: callers measure and report; ``server``: the daemon
    #: evaluates suggested configurations against the benchmark itself.
    mode: str = "client"
    scale: str = "smoke"
    alpha: float = 0.01
    alphas: tuple[float, ...] = (0.01, 0.05, 0.10)
    #: ``None`` fields inherit from the named scale.
    n_init: "int | None" = None
    n_batch: "int | None" = None
    n_max: "int | None" = None
    eval_every: "int | None" = None
    n_estimators: "int | None" = None
    pool_size: "int | None" = None
    test_size: "int | None" = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ProtocolError(
                400, "bad_mode", f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if self.scale not in SCALES:
            raise ProtocolError(
                400,
                "bad_scale",
                f"scale must be one of {sorted(SCALES)}, got {self.scale!r}",
            )
        if not _is_a(self.seed, int):
            raise ProtocolError(400, "bad_seed", "seed must be an integer")
        for name in ("benchmark", "strategy", "surrogate"):
            if not isinstance(getattr(self, name), str):
                raise ProtocolError(400, "bad_request", f"{name} must be a string")
        for name in _SIZE_FIELDS:
            value = getattr(self, name)
            if value is not None and not (_is_a(value, int) and value <= _MAX_SIZE):
                raise ProtocolError(
                    400, "bad_request", f"{name} must be an integer <= {_MAX_SIZE}"
                )
        if not _is_a(self.alpha, (int, float)):
            raise ProtocolError(400, "bad_request", "alpha must be a number")
        if not isinstance(self.alphas, (list, tuple)) or not all(
            _is_a(a, (int, float)) for a in self.alphas
        ):
            raise ProtocolError(400, "bad_request", "alphas must be a list of numbers")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))

    # -- construction --------------------------------------------------------
    @classmethod
    def from_payload(cls, payload: dict) -> "SessionSpec":
        """Validate and build a spec from a parsed request body.

        Raises :class:`ProtocolError` (400) on missing/unknown fields or
        out-of-range values, naming the offending field.
        """
        if not isinstance(payload, dict):
            raise ProtocolError(
                400, "bad_request", "session spec must be a JSON object"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ProtocolError(
                400,
                "unknown_field",
                f"unknown session field(s): {', '.join(unknown)}",
            )
        if "benchmark" not in payload:
            raise ProtocolError(
                400, "missing_field", "session spec requires 'benchmark'"
            )
        try:
            spec = cls(**payload)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(400, "bad_request", str(exc)) from exc
        spec.validate_names()
        try:
            config = spec.learner_config()
            # Probe buildability: a strategy or surrogate that rejects the
            # spec (PWU's alpha outside [0, 1], a forest of zero trees, a
            # refusing factory) must fail at creation, not mid-session.
            from repro.sampling import get_strategy
            from repro.surrogate import make_surrogate

            get_strategy(spec.strategy, alpha=spec.alpha)
            make_surrogate(spec.surrogate, config=config)
        except ValueError as exc:
            raise ProtocolError(400, "bad_spec", str(exc)) from exc
        return spec

    def validate_names(self) -> None:
        """Check benchmark/strategy/surrogate names against their registries.

        The workload check *resolves* the name (it is the buildability
        probe for ``surrogate:<path>`` / ``distilled:<stem>`` envelope
        workloads), so a typo'd name or an unreadable envelope file fails
        the ``POST /v1/sessions`` with a 400 ``unknown_workload`` — with
        a did-you-mean for registry names and the typed envelope
        diagnosis for files — instead of surfacing as a 500 ``KeyError``
        on the first suggest/measure call.  It resolves through the
        sessions' benchmark memo, so an envelope is read once per
        process, not once per spec.
        """
        from repro.envelope import EnvelopeError
        from repro.sampling import available_strategies
        from repro.surrogate import available_surrogates
        # Imported here: repro.service.session imports this module.
        from repro.service.session import cached_benchmark

        try:
            cached_benchmark(self.benchmark)
        except KeyError as exc:
            # NameRegistry's KeyError already carries a closest-match hint.
            raise ProtocolError(400, "unknown_workload", str(exc.args[0])) from exc
        except EnvelopeError as exc:
            raise ProtocolError(400, "unknown_workload", str(exc)) from exc
        if self.strategy not in available_strategies():
            raise ProtocolError(
                400,
                "unknown_strategy",
                f"unknown strategy {self.strategy!r}; "
                f"choose from {', '.join(available_strategies())}",
            )
        if self.surrogate not in available_surrogates():
            raise ProtocolError(
                400,
                "unknown_surrogate",
                f"unknown surrogate {self.surrogate!r}; "
                f"choose from {', '.join(available_surrogates())}",
            )

    # -- derived forms -------------------------------------------------------
    def to_scale(self) -> ExperimentScale:
        """The effective experiment scale: named scale + explicit overrides."""
        base = SCALES[self.scale]
        overrides = {
            name: getattr(self, name)
            for name in _SIZE_FIELDS
            if getattr(self, name) is not None
        }
        return replace(base, n_trials=1, **overrides)

    def learner_config(self) -> LearnerConfig:
        """The session's :class:`~repro.active.LearnerConfig`."""
        scale = self.to_scale()
        return LearnerConfig(
            n_init=scale.n_init,
            n_batch=scale.n_batch,
            n_max=scale.n_max,
            alphas=self.alphas,
            eval_every=scale.eval_every,
            n_estimators=scale.n_estimators,
            surrogate=self.surrogate,
        )

    def to_dict(self) -> dict:
        """JSON-safe canonical form (round-trips via :meth:`from_payload`)."""
        out = asdict(self)
        out["alphas"] = list(self.alphas)
        return out

    def spec_hash(self) -> str:
        """Content address of the canonical JSON form (hex sha256)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
