"""The tuning service: protocol, routing, sessions, resume, and HTTP e2e.

Three layers under test, cheapest first:

- :mod:`repro.service.protocol` — envelope stamping and SessionSpec
  validation, no I/O at all;
- :class:`repro.service.app.ServiceApp` — the full wire protocol driven
  with no sockets (method/path/body in, status/headers/body out);
- :class:`repro.service.daemon.TuningServer` + the urllib client — real
  HTTP on an ephemeral loopback port, including the acceptance-criteria
  e2e: a ≥30-round client-evaluated session whose model is bit-identical
  to the offline reference, surviving a daemon "kill"/restart mid-way.
"""

import json
import shutil
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._version import __version__
from repro.sampling import get_strategy
from repro.service.app import ServiceApp
from repro.service.protocol import (
    PROTOCOL_VERSION,
    SERVICE_SCHEMA,
    ProtocolError,
    SessionSpec,
    envelope,
)
from repro.service.registry import SessionRegistry
from repro.service.session import Session, measure_round, offline_reference
from repro.telemetry import counters

#: A session small enough for fast tests but real enough to fit forests.
SPEC_FIELDS = dict(
    benchmark="atax",
    strategy="pwu",
    seed=5,
    n_init=5,
    n_max=18,
    pool_size=200,
    test_size=150,
)


#: Spec fields that size the session: each must end up an int or None.
SIZE_FIELDS = (
    "n_init",
    "n_batch",
    "n_max",
    "eval_every",
    "n_estimators",
    "pool_size",
    "test_size",
)

#: What a client can put in any spec field: JSON scalars (Python's json
#: also reads NaN and Infinity), short lists and small dicts, plus values
#: some fields accept so that draws get past the first checks.
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["atax", "pwu", "random", "gp", "smoke", "client", 0.5]),
)
JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.lists(JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), JSON_SCALARS, max_size=2),
)


def make_spec(**overrides):
    fields = dict(SPEC_FIELDS)
    fields.update(overrides)
    return SessionSpec.from_payload(fields)


def model_blob(learner):
    from repro.surrogate import surrogate_bytes

    return surrogate_bytes(learner.model)


class AppDriver:
    """Socketless harness: JSON in/out through ServiceApp.handle."""

    def __init__(self, root):
        self.app = ServiceApp(SessionRegistry(root))

    def call(self, method, path, payload=None):
        body = json.dumps(payload).encode() if payload is not None else b""
        status, headers, raw = self.app.handle(method, path, body)
        if headers.get("Content-Type") == "application/json":
            return status, json.loads(raw)
        return status, raw

    def drive(self, spec_fields, rounds=None):
        """Create a session and run it (or ``rounds`` of it); returns id."""
        status, data = self.call("POST", "/v1/sessions", spec_fields)
        assert status == 201, data
        sid = data["session"]["id"]
        self.continue_session(sid, spec_fields, rounds)
        return sid

    def continue_session(self, sid, spec_fields, rounds=None):
        spec = SessionSpec.from_payload(dict(spec_fields))
        done = 0
        while rounds is None or done < rounds:
            status, data = self.call("GET", f"/v1/sessions/{sid}")
            if data["session"]["state"] != "open":
                break
            status, data = self.call("POST", f"/v1/sessions/{sid}/suggest")
            assert status == 200, data
            sug = data["suggestion"]
            y = measure_round(spec, np.asarray(sug["x"]), sug["round"])
            status, data = self.call(
                "POST",
                f"/v1/sessions/{sid}/report",
                {"indices": sug["indices"], "y": [float(v) for v in y]},
            )
            assert status == 200, data
            done += 1


class TestProtocol:
    def test_envelope_stamps_provenance(self):
        env = envelope({"x": 1})
        assert env["schema"] == SERVICE_SCHEMA
        assert env["protocol"] == PROTOCOL_VERSION
        assert env["version"] == __version__
        assert env["x"] == 1

    def test_every_response_carries_the_version(self, tmp_path):
        driver = AppDriver(tmp_path)
        for method, path in [
            ("GET", "/v1/healthz"),
            ("GET", "/v1/strategies"),
            ("GET", "/v1/sessions"),
            ("GET", "/v1/sessions/snope"),  # an error envelope
        ]:
            _, data = driver.call(method, path)
            assert data["schema"] == SERVICE_SCHEMA
            assert data["protocol"] == PROTOCOL_VERSION
            assert data["version"] == __version__

    def test_spec_roundtrip_and_hash(self):
        spec = make_spec()
        again = SessionSpec.from_payload(spec.to_dict())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()
        assert make_spec(seed=6).spec_hash() != spec.spec_hash()

    def test_spec_scale_overrides(self):
        scale = make_spec(n_estimators=9).to_scale()
        assert (scale.n_max, scale.n_init, scale.n_estimators) == (18, 5, 9)
        assert scale.n_trials == 1

    @pytest.mark.parametrize(
        "payload, code",
        [
            ({}, "missing_field"),
            ({"benchmark": "atax", "bogus": 1}, "unknown_field"),
            ({"benchmark": "atax", "mode": "psychic"}, "bad_mode"),
            ({"benchmark": "atax", "scale": "galactic"}, "bad_scale"),
            ({"benchmark": "atax", "seed": "six"}, "bad_seed"),
            ({"benchmark": "nope"}, "unknown_workload"),
            ({"benchmark": "surrogate:/nonexistent/x.npz"}, "unknown_workload"),
            ({"benchmark": "atax", "strategy": "nope"}, "unknown_strategy"),
            ({"benchmark": "atax", "n_max": 9000}, "bad_spec"),
            ("not a dict", "bad_request"),
            ({"benchmark": "atax", "n_max": "abc"}, "bad_request"),
            ({"benchmark": "atax", "alphas": 5}, "bad_request"),
            ({"benchmark": 5}, "bad_request"),
            ({"benchmark": "atax", "pool_size": 200.5}, "bad_request"),
            ({"benchmark": "atax", "alpha": 5.0}, "bad_spec"),
            ({"benchmark": "atax", "n_estimators": 10**12}, "bad_request"),
        ],
    )
    def test_spec_validation_errors(self, payload, code):
        with pytest.raises(ProtocolError) as err:
            SessionSpec.from_payload(payload)
        assert err.value.status == 400
        assert err.value.code == code

    @given(
        payload=st.dictionaries(
            st.sampled_from(sorted(SessionSpec.__dataclass_fields__)),
            JSON_VALUES,
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_from_payload_accepts_only_buildable_specs(self, payload):
        payload.setdefault("benchmark", "atax")
        try:
            spec = SessionSpec.from_payload(payload)
        except ProtocolError as exc:
            assert exc.status == 400
            return
        for name in SIZE_FIELDS:
            value = getattr(spec, name)
            assert value is None or (
                isinstance(value, int) and not isinstance(value, bool)
            ), (name, value)
        spec.learner_config()
        get_strategy(spec.strategy, alpha=spec.alpha)


class TestAppRouting:
    def test_healthz_and_strategies(self, tmp_path):
        driver = AppDriver(tmp_path)
        status, data = driver.call("GET", "/v1/healthz")
        assert status == 200 and data["status"] == "ok"
        status, data = driver.call("GET", "/v1/strategies")
        assert "pwu" in data["strategies"]
        assert "atax" in data["benchmarks"]
        assert "smoke" in data["scales"]

    def test_unknown_route_and_method(self, tmp_path):
        driver = AppDriver(tmp_path)
        status, data = driver.call("GET", "/v1/teapot")
        assert status == 404 and data["error"]["code"] == "unknown_route"
        status, data = driver.call("POST", "/v1/healthz")
        assert status == 405 and data["error"]["code"] == "method_not_allowed"

    def test_bad_json_body(self, tmp_path):
        driver = AppDriver(tmp_path)
        status, _, raw = driver.app.handle("POST", "/v1/sessions", b"{nope")
        assert status == 400
        assert json.loads(raw)["error"]["code"] == "bad_json"

    @pytest.mark.parametrize(
        "body",
        [b"[" * 1000 + b"]" * 1000, b'{"a":' * 1000 + b"1" + b"}" * 1000],
        ids=["array", "object"],
    )
    def test_deeply_nested_body_is_bad_json(self, tmp_path, body):
        driver = AppDriver(tmp_path)
        sid = driver.drive(SPEC_FIELDS, rounds=1)
        _, data = driver.call("POST", f"/v1/sessions/{sid}/suggest")
        pending = data["suggestion"]
        journal = tmp_path / "sessions" / sid / "journal.jsonl"
        before = journal.read_bytes()
        for path in (
            "/v1/sessions",
            f"/v1/sessions/{sid}/suggest",
            f"/v1/sessions/{sid}/report",
        ):
            status, _, raw = driver.app.handle("POST", path, body)
            assert status == 400, path
            assert json.loads(raw)["error"]["code"] == "bad_json", path
        assert journal.read_bytes() == before
        _, data = driver.call("POST", f"/v1/sessions/{sid}/suggest")
        assert data["suggestion"] == pending
        _, data = driver.call("GET", "/v1/sessions")
        assert [s["id"] for s in data["sessions"]] == [sid]

    def test_unknown_session_404(self, tmp_path):
        driver = AppDriver(tmp_path)
        status, data = driver.call("GET", "/v1/sessions/s000000-ffffffffff")
        assert status == 404 and data["error"]["code"] == "unknown_session"

    def test_model_before_cold_report_409(self, tmp_path):
        driver = AppDriver(tmp_path)
        status, data = driver.call("POST", "/v1/sessions", SPEC_FIELDS)
        sid = data["session"]["id"]
        status, data = driver.call("GET", f"/v1/sessions/{sid}/model")
        assert status == 409 and data["error"]["code"] == "no_model"

    def test_report_without_suggest_409(self, tmp_path):
        driver = AppDriver(tmp_path)
        _, data = driver.call("POST", "/v1/sessions", SPEC_FIELDS)
        sid = data["session"]["id"]
        status, data = driver.call(
            "POST", f"/v1/sessions/{sid}/report", {"indices": [0], "y": [1.0]}
        )
        assert status == 409
        assert data["error"]["code"] == "no_pending_suggestion"

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("y", [None] * SPEC_FIELDS["n_init"]),
            ("y", ["a"] * SPEC_FIELDS["n_init"]),
            ("y", [-1.0] * SPEC_FIELDS["n_init"]),
            ("y", [0.0] * SPEC_FIELDS["n_init"]),
            ("y", [float("nan")] * SPEC_FIELDS["n_init"]),
            ("y", [float("inf")] * SPEC_FIELDS["n_init"]),
            ("indices", ["a"]),
        ],
        ids=["null", "string", "negative", "zero", "nan", "inf", "indices"],
    )
    def test_bad_report_400_leaves_the_journal_clean(self, tmp_path, field, bad):
        driver = AppDriver(tmp_path)
        _, data = driver.call("POST", "/v1/sessions", SPEC_FIELDS)
        sid = data["session"]["id"]
        _, data = driver.call("POST", f"/v1/sessions/{sid}/suggest")
        sug = data["suggestion"]
        y = measure_round(make_spec(), np.asarray(sug["x"]), sug["round"])
        good = {"indices": sug["indices"], "y": [float(v) for v in y]}
        status, data = driver.call(
            "POST", f"/v1/sessions/{sid}/report", dict(good, **{field: bad})
        )
        assert status == 400 and data["error"]["code"] == "bad_report"
        journal = tmp_path / "sessions" / sid / "journal.jsonl"
        assert not journal.exists() or journal.read_bytes() == b""
        _, data = driver.call("POST", f"/v1/sessions/{sid}/suggest")
        assert data["suggestion"]["indices"] == sug["indices"]
        status, data = driver.call("POST", f"/v1/sessions/{sid}/report", good)
        assert status == 200, data
        status, data = AppDriver(tmp_path).call("GET", f"/v1/sessions/{sid}")
        assert status == 200, data
        assert data["session"]["rounds"] == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"alpha": 5.0},
            {"alpha": "x"},
            {"pool_size": 200.5},
            # Valid on its face, but kripke's 2,304-point space leaves a
            # pool smaller than n_max: only building the learner finds out.
            {"benchmark": "kripke", "pool_size": 7000, "test_size": 3000,
             "n_max": 2000},
        ],
        ids=["alpha-range", "alpha-type", "pool-type", "pool-below-n_max"],
    )
    def test_unbuildable_spec_400_leaves_nothing_on_disk(self, tmp_path, overrides):
        driver = AppDriver(tmp_path)
        status, data = driver.call(
            "POST", "/v1/sessions", dict(SPEC_FIELDS, **overrides)
        )
        assert status == 400, data
        assert list((tmp_path / "sessions").iterdir()) == []

    def test_stale_report_409_keeps_suggestion_alive(self, tmp_path):
        driver = AppDriver(tmp_path)
        _, data = driver.call("POST", "/v1/sessions", SPEC_FIELDS)
        sid = data["session"]["id"]
        _, data = driver.call("POST", f"/v1/sessions/{sid}/suggest")
        sug = data["suggestion"]
        wrong = [i + 1 for i in sug["indices"]]
        status, data = driver.call(
            "POST",
            f"/v1/sessions/{sid}/report",
            {"indices": wrong, "y": [0.0] * len(wrong)},
        )
        assert status == 409 and data["error"]["code"] == "stale_report"
        _, data = driver.call("POST", f"/v1/sessions/{sid}/suggest")
        assert data["suggestion"]["indices"] == sug["indices"]

    def test_suggest_is_idempotent_over_the_wire(self, tmp_path):
        driver = AppDriver(tmp_path)
        _, data = driver.call("POST", "/v1/sessions", SPEC_FIELDS)
        sid = data["session"]["id"]
        _, first = driver.call("POST", f"/v1/sessions/{sid}/suggest")
        _, again = driver.call("POST", f"/v1/sessions/{sid}/suggest")
        assert first["suggestion"] == again["suggestion"]

    def test_suggest_after_completion_409(self, tmp_path):
        driver = AppDriver(tmp_path)
        sid = driver.drive(SPEC_FIELDS)
        status, data = driver.call("POST", f"/v1/sessions/{sid}/suggest")
        assert status == 409 and data["error"]["code"] == "budget_exhausted"

    def test_suggestion_payload_shape(self, tmp_path):
        driver = AppDriver(tmp_path)
        _, data = driver.call("POST", "/v1/sessions", SPEC_FIELDS)
        sid = data["session"]["id"]
        _, data = driver.call("POST", f"/v1/sessions/{sid}/suggest")
        sug = data["suggestion"]
        assert sug["round"] == 0
        assert len(sug["indices"]) == SPEC_FIELDS["n_init"]
        assert len(sug["configs"]) == len(sug["indices"])
        assert all(isinstance(c, dict) for c in sug["configs"])
        assert len(sug["x"]) == len(sug["indices"])

    def test_session_listing(self, tmp_path):
        driver = AppDriver(tmp_path)
        _, a = driver.call("POST", "/v1/sessions", SPEC_FIELDS)
        _, b = driver.call("POST", "/v1/sessions", dict(SPEC_FIELDS, seed=9))
        _, data = driver.call("GET", "/v1/sessions")
        ids = [s["id"] for s in data["sessions"]]
        assert ids == sorted(ids)
        assert a["session"]["id"] in ids and b["session"]["id"] in ids


class TestSurrogateSessions:
    def test_strategies_route_lists_surrogates(self, tmp_path):
        driver = AppDriver(tmp_path)
        _, data = driver.call("GET", "/v1/strategies")
        for name in ("forest", "gp", "select", "stack"):
            assert name in data["surrogates"]

    def test_unknown_surrogate_rejected_with_400(self, tmp_path):
        driver = AppDriver(tmp_path)
        for surrogate in ("forrest", "transfer"):
            status, data = driver.call(
                "POST", "/v1/sessions", dict(SPEC_FIELDS, surrogate=surrogate)
            )
            assert status == 400
            assert data["error"]["code"] == "unknown_surrogate"
            assert "forest" in data["error"]["message"]

    def test_transfer_without_source_rejected_at_creation(self, tmp_path):
        # A downstream transfer-style surrogate whose factory refuses to
        # build without a source model the wire spec cannot carry must
        # fail at session creation, not mid-session.
        from repro.surrogate import register_surrogate
        from repro.surrogate import registry as registry_mod

        def needs_source(config, rng):
            raise ValueError("this surrogate needs a source model")

        register_surrogate("_needs_source", needs_source)
        try:
            driver = AppDriver(tmp_path)
            status, data = driver.call(
                "POST", "/v1/sessions", dict(SPEC_FIELDS, surrogate="_needs_source")
            )
        finally:
            del registry_mod._REGISTRY["_needs_source"]
        assert status == 400
        assert data["error"]["code"] == "bad_spec"
        assert "source model" in data["error"]["message"]

    def test_surrogate_participates_in_spec_hash(self):
        assert make_spec(surrogate="gp").spec_hash() != make_spec().spec_hash()

    def test_snapshot_names_the_surrogate(self, tmp_path):
        driver = AppDriver(tmp_path)
        _, data = driver.call(
            "POST", "/v1/sessions", dict(SPEC_FIELDS, surrogate="gp")
        )
        assert data["session"]["surrogate"] == "gp"

    def test_model_header_and_deserialization(self, tmp_path):
        import io

        from repro.gp import GaussianProcessRegressor
        from repro.surrogate import load_surrogate

        driver = AppDriver(tmp_path)
        sid = driver.drive(dict(SPEC_FIELDS, surrogate="gp"), rounds=1)
        status, headers, raw = driver.app.handle(
            "GET", f"/v1/sessions/{sid}/model"
        )
        assert status == 200
        assert headers["X-Repro-Surrogate"] == "gp"
        assert isinstance(load_surrogate(io.BytesIO(raw)), GaussianProcessRegressor)

    @pytest.mark.parametrize("surrogate", ["gp", "select", "stack"])
    def test_served_session_matches_offline_reference(
        self, tmp_path, surrogate
    ):
        driver = AppDriver(tmp_path)
        sid = driver.drive(dict(SPEC_FIELDS, surrogate=surrogate))
        status, blob = driver.call("GET", f"/v1/sessions/{sid}/model")
        assert status == 200
        assert blob == model_blob(
            offline_reference(make_spec(surrogate=surrogate))
        )


class TestSessionDeterminismAndResume:
    def test_served_session_matches_offline_reference(self, tmp_path):
        driver = AppDriver(tmp_path)
        sid = driver.drive(SPEC_FIELDS)
        status, blob = driver.call("GET", f"/v1/sessions/{sid}/model")
        assert status == 200
        assert blob == model_blob(offline_reference(make_spec()))

    def test_measure_round_is_one_fused_batch(self):
        """The service measures each suggested batch through a single
        :meth:`Benchmark.evaluate_batch` call (DESIGN.md §2h) — one fused
        cost-model pass per round, not one per configuration — and the
        round-derived oracle keeps repeat measurements bit-identical."""
        from repro.telemetry import counters
        from repro.workloads import get_benchmark

        spec = make_spec()
        benchmark = get_benchmark(spec.benchmark)
        X = benchmark.space.sample_encoded(np.random.default_rng(0), 6)
        before = counters.value("costmodel.batches")
        y = measure_round(spec, X, 0)
        assert counters.value("costmodel.batches") == before + 1
        assert y.shape == (6,)
        np.testing.assert_array_equal(y, measure_round(spec, X, 0))

    def test_restart_resumes_open_session_and_stays_bit_identical(
        self, tmp_path
    ):
        driver = AppDriver(tmp_path)
        sid = driver.drive(SPEC_FIELDS, rounds=4)
        _, data = driver.call("GET", f"/v1/sessions/{sid}")
        assert data["session"]["state"] == "open"
        assert data["session"]["rounds"] == 4
        # "Restart the daemon": a fresh registry over the same data dir.
        driver2 = AppDriver(tmp_path)
        _, data = driver2.call("GET", f"/v1/sessions/{sid}")
        assert data["session"]["rounds"] == 4
        driver2.continue_session(sid, SPEC_FIELDS)
        _, blob = driver2.call("GET", f"/v1/sessions/{sid}/model")
        assert blob == model_blob(offline_reference(make_spec()))

    def test_crash_after_journal_before_observe_replays_the_round(
        self, tmp_path
    ):
        from repro.engine.store import append_jsonl

        spec = make_spec()
        registry = SessionRegistry(tmp_path)
        session = registry.create(spec)
        suggestion = session.suggest()
        y = measure_round(spec, np.asarray(suggestion["x"]), 0)
        # Simulate a crash between the journal fsync and observe(): the
        # line is on disk but the learner never saw it.
        append_jsonl(
            session.dir / "journal.jsonl",
            {
                "round": 0,
                "n": None,
                "indices": suggestion["indices"],
                "y": [float(v) for v in y],
            },
        )
        resumed = Session.load(session.dir)
        assert resumed.rounds == 1
        assert resumed.learner.n_labeled == len(suggestion["indices"])

    def test_diverging_journal_is_refused(self, tmp_path):
        from repro.engine.store import append_jsonl

        spec = make_spec()
        registry = SessionRegistry(tmp_path)
        session = registry.create(spec)
        suggestion = session.suggest()
        wrong = [i + 1 for i in suggestion["indices"]]
        append_jsonl(
            session.dir / "journal.jsonl",
            {"round": 0, "n": None, "indices": wrong, "y": [0.0] * len(wrong)},
        )
        with pytest.raises(RuntimeError, match="replay diverged"):
            Session.load(session.dir)

    @pytest.mark.parametrize(
        "first_line",
        [b"{broken!}", b'{"indices": 5, "n": null, "round": 0, "y": [1.0]}'],
        ids=["unparsable", "indices-not-a-list"],
    )
    def test_registry_keeps_corrupt_session_visible_as_failed(
        self, tmp_path, first_line
    ):
        driver = AppDriver(tmp_path)
        sid = driver.drive(SPEC_FIELDS, rounds=2)
        journal = tmp_path / "sessions" / sid / "journal.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(first_line + b"\n" + b"".join(lines[1:]))
        driver2 = AppDriver(tmp_path)
        status, data = driver2.call("GET", f"/v1/sessions/{sid}")
        assert status == 410
        assert data["error"]["code"] == "session_unrecoverable"
        _, data = driver2.call("GET", "/v1/sessions")
        states = {s["id"]: s["state"] for s in data["sessions"]}
        assert states[sid] == "failed"

    @pytest.mark.parametrize(
        "name, content",
        [
            ("journal.jsonl",
             b'{"indices": [Infinity, 1], "n": null, "round": 0, "y": [1.0, 1.0]}\n'),
            ("journal.jsonl", b'[{"indices": [1]}]\n'),
            ("journal.jsonl", b'{"indices": [1], "n": 0, "round": 0, "y": [1.0]}\n'),
            ("journal.jsonl", b'{"indices": [1], "n": true, "round": 0, "y": [1.0]}\n'),
            ("meta.json", b"[]"),
            ("meta.json", b'"meta"'),
        ],
        ids=["non-finite-index", "not-an-object", "zero-n", "bool-n",
             "meta-list", "meta-string"],
    )
    def test_registry_boots_past_a_malformed_session(self, tmp_path, name, content):
        driver = AppDriver(tmp_path)
        sid = driver.drive(SPEC_FIELDS, rounds=2)
        (tmp_path / "sessions" / sid / name).write_bytes(content)
        registry = SessionRegistry(tmp_path)
        assert registry.list() == [
            {"id": sid, "state": "failed", "error": registry._failed_loads[sid]}
        ]

    @pytest.mark.parametrize(
        "damage", ["renamed-id", "zero-label", "short-y"],
    )
    def test_replay_refuses_rounds_report_would_not_write(self, tmp_path, damage):
        """A meta.json naming another directory, and journaled labels the
        report path rejects, fail the load with ``RuntimeError``."""
        driver = AppDriver(tmp_path)
        sid = driver.drive(SPEC_FIELDS, rounds=2)
        directory = tmp_path / "sessions" / sid
        if damage == "renamed-id":
            directory = directory.rename(directory.with_name(sid[:-1] + "0"))
        else:
            journal = directory / "journal.jsonl"
            first, rest = journal.read_bytes().split(b"\n", 1)
            line = json.loads(first)
            line["y"] = [0.0] + line["y"][1:] if damage == "zero-label" else line["y"][1:]
            journal.write_bytes(json.dumps(line).encode() + b"\n" + rest)
        with pytest.raises(RuntimeError):
            Session.load(directory)

    @staticmethod
    def _reboot_on_manifest(tmp_path, manifest) -> float:
        """Reboot on a lost (``None``) or damaged manifest and check the
        next id still sorts after the existing session's; returns how many
        manifest recoveries the reboot counted."""
        driver = AppDriver(tmp_path)
        _, a = driver.call("POST", "/v1/sessions", SPEC_FIELDS)
        # Crash before the manifest survived: the sessions/ scan rules.
        path = tmp_path / "manifest.json"
        if manifest is None:
            path.unlink()
        else:
            path.write_text(manifest)
        recovered = counters.value("service.manifest_recovered")
        driver2 = AppDriver(tmp_path)
        _, b = driver2.call("POST", "/v1/sessions", SPEC_FIELDS)
        assert b["session"]["id"] > a["session"]["id"]
        return counters.value("service.manifest_recovered") - recovered

    def test_serial_never_recycled_after_manifest_loss(self, tmp_path):
        assert self._reboot_on_manifest(tmp_path, None) == 0

    @pytest.mark.parametrize(
        "manifest",
        ["garbage", "[]", "5", '{"next_serial": null}', '{"next_serial": [1]}',
         '{"next_serial": 1e400}'],
        ids=["garbage", "list", "int", "null-serial", "list-serial", "overflow"],
    )
    def test_serial_never_recycled_after_manifest_damage(self, tmp_path, manifest):
        assert self._reboot_on_manifest(tmp_path, manifest) == 1

    def test_server_mode_session_runs_to_completion(self, tmp_path):
        registry = SessionRegistry(tmp_path)
        session = registry.create(make_spec(mode="server", n_max=12))
        thread = registry._threads[session.id]
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert session.state == "completed"
        assert session.snapshot()["rounds"] == session.rounds > 0

    def test_server_mode_resumes_after_restart(self, tmp_path):
        registry = SessionRegistry(tmp_path)
        session = registry.create(make_spec(mode="server", n_max=12))
        registry._threads[session.id].join(timeout=120)
        registry.shutdown()
        # Reboot: the completed session must load, and its model must
        # equal the offline reference (server mode uses the same
        # per-round oracle derivation).
        registry2 = SessionRegistry(tmp_path)
        resumed = registry2.get(session.id)
        assert resumed.state == "completed"
        assert resumed.model_bytes() == model_blob(
            offline_reference(make_spec(mode="server", n_max=12))
        )


#: Request values: the spec-field values plus ints past every fixed width
#: and past the float range.
REQUEST_VALUES = st.one_of(
    JSON_VALUES,
    st.sampled_from([2**63, -(2**63) - 1, 2**64, 10**400, -(10**400)]),
    st.lists(st.sampled_from([0, 1, 2**64, 10**400]), max_size=3),
)


class TestRequestPayloadProperty:
    """Any JSON value, sent as a suggest or report body or as its ``n``,
    ``indices`` or ``y`` field, gets a 200, 400 or 409 from a live
    session and never raises out of ``handle``; the session then still
    resumes from disk."""

    def test_suggest_and_report_answer_or_refuse(self, tmp_path):
        # Room for every valid report the draws make, so it stays open.
        fields = dict(SPEC_FIELDS, n_max=60)
        driver = AppDriver(tmp_path)
        _, data = driver.call("POST", "/v1/sessions", fields)
        sid = data["session"]["id"]
        spec = SessionSpec.from_payload(dict(fields))

        @given(
            route=st.sampled_from(["suggest", "report"]),
            field=st.sampled_from([None, "n", "indices", "y"]),
            value=REQUEST_VALUES,
        )
        @settings(max_examples=200, deadline=None)
        def probe(route, field, value):
            status, sug = driver.call("POST", f"/v1/sessions/{sid}/suggest")
            if status == 200:
                sug = sug["suggestion"]
                y = measure_round(spec, np.asarray(sug["x"]), sug["round"])
                payload = {"indices": sug["indices"], "y": [float(v) for v in y]}
            else:
                payload = {"indices": [0], "y": [1.0]}
            if field is None:
                payload = value
            else:
                payload[field] = value
            body = json.dumps(payload).encode()
            status, _, _ = driver.app.handle(
                "POST", f"/v1/sessions/{sid}/{route}", body
            )
            assert status in (200, 400, 409), (route, payload)

        probe()
        registry = SessionRegistry(tmp_path)
        try:
            states = {s["id"]: s["state"] for s in registry.list()}
        finally:
            registry.shutdown()
        assert states == {sid: states[sid]}
        assert states[sid] in ("open", "completed")


class TestBootAfterDamage:
    """Truncating a session's journal or ``meta.json``, or flipping 1-3 of
    its bytes, never stops the registry from booting: the session is
    resumed or listed as failed."""

    @pytest.fixture(scope="class")
    def template(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("boot-template")
        sid = AppDriver(root).drive(SPEC_FIELDS, rounds=3)
        return root, sid

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_damaged_session_is_resumed_or_failed(self, template, data):
        root, sid = template
        name = data.draw(st.sampled_from(["journal.jsonl", "meta.json"]))
        raw = (root / "sessions" / sid / name).read_bytes()
        if data.draw(st.booleans(), label="truncate"):
            damaged = raw[: data.draw(st.integers(0, len(raw) - 1))]
        else:
            flipped = bytearray(raw)
            for _ in range(data.draw(st.integers(1, 3))):
                at = data.draw(st.integers(0, len(raw) - 1))
                flipped[at] ^= data.draw(st.integers(1, 255))
            damaged = bytes(flipped)
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "data"
            shutil.copytree(root, copy)
            (copy / "sessions" / sid / name).write_bytes(damaged)
            registry = SessionRegistry(copy)
            states = {s["id"]: s["state"] for s in registry.list()}
            registry.shutdown()
        assert list(states) == [sid]
        assert states[sid] in ("open", "completed", "failed")


class TestConcurrentSessions:
    def test_two_sessions_drive_concurrently_in_sibling_dirs(self, tmp_path):
        driver = AppDriver(tmp_path)
        specs = [dict(SPEC_FIELDS, seed=21), dict(SPEC_FIELDS, seed=22)]
        sids, errors = [None, None], []

        def work(i):
            try:
                sids[i] = driver.drive(specs[i])
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors
        for sid, fields in zip(sids, specs):
            _, blob = driver.call("GET", f"/v1/sessions/{sid}/model")
            expected = model_blob(
                offline_reference(SessionSpec.from_payload(dict(fields)))
            )
            assert blob == expected

    def test_concurrent_append_and_compact_in_sibling_dirs(self, tmp_path):
        from repro.engine.store import append_jsonl, iter_jsonl, replace_jsonl

        errors = []

        def churn(name):
            try:
                path = tmp_path / name / "journal.jsonl"
                path.parent.mkdir()
                for i in range(40):
                    append_jsonl(path, {"i": i, "who": name})
                    if i % 10 == 9:
                        kept = [
                            p
                            for _, _, p in iter_jsonl(path)
                            if p is not None and p["i"] >= i - 5
                        ]
                        replace_jsonl(path, kept)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(n,)) for n in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        for name in ("a", "b"):
            rows = [
                p
                for _, _, p in iter_jsonl(tmp_path / name / "journal.jsonl")
                if p is not None
            ]
            assert rows, "journal lost all rows"
            assert all(r["who"] == name for r in rows)
            assert rows[-1]["i"] == 39


@pytest.mark.slow
class TestHTTPEndToEnd:
    """Real sockets: the acceptance-criteria session over loopback HTTP."""

    E2E_FIELDS = dict(
        benchmark="atax",
        strategy="pwu",
        seed=17,
        n_init=5,
        n_max=36,  # cold round + 31 step rounds = 32 suggest/report rounds
        pool_size=200,
        test_size=150,
    )

    def _serve(self, tmp_path):
        from repro.service import ServiceConfig, TuningServer

        return TuningServer(
            ServiceConfig(port=0, data_dir=str(tmp_path))
        ).start()

    def test_full_session_with_kill_and_restart(self, tmp_path):
        from repro.service import Client

        spec = SessionSpec.from_payload(dict(self.E2E_FIELDS))
        server = self._serve(tmp_path)
        try:
            client = Client(server.url)
            assert client.healthz()["status"] == "ok"
            session = client.create_session(**self.E2E_FIELDS)
            sid = session["id"]
            rounds = 0
            # Drive 10 rounds, then kill the daemon mid-session.
            for _ in range(10):
                sug = client.suggest(sid)
                y = measure_round(spec, np.asarray(sug["x"]), sug["round"])
                snap = client.report(sid, sug["indices"], y)
                rounds += 1
            assert snap["state"] == "open"
        finally:
            server.stop()

        # Restart over the same data dir: journaled rounds must survive.
        server = self._serve(tmp_path)
        try:
            client = Client(server.url)
            snap = client.status(sid)
            assert snap["rounds"] == rounds
            assert snap["state"] == "open"
            while snap["state"] == "open":
                sug = client.suggest(sid)
                y = measure_round(spec, np.asarray(sug["x"]), sug["round"])
                snap = client.report(sid, sug["indices"], y)
                rounds += 1
            assert rounds >= 30
            assert snap["state"] == "completed"
            # The model fetched over HTTP equals the offline reference,
            # byte for byte, despite the kill/restart in the middle.
            assert client.model_bytes(sid) == model_blob(
                offline_reference(spec)
            )
            model = client.model(sid)
            reference = offline_reference(spec).model
            probe = np.asarray(
                [sug["x"][0]], dtype=np.float64
            )  # any encoded row
            np.testing.assert_array_equal(
                model.predict(probe), reference.predict(probe)
            )
        finally:
            server.stop()

    def test_client_rejects_non_service_envelope(self, tmp_path):
        from repro.service import Client, ServiceError

        server = self._serve(tmp_path)
        try:
            client = Client(server.url)
            client._check_envelope(200, {"schema": "someone.else", "protocol": 1})
        except ServiceError as err:
            assert err.code == "bad_envelope"
        else:  # pragma: no cover - the check must have raised
            raise AssertionError("bad envelope accepted")
        finally:
            server.stop()

    def test_run_session_convenience_loop(self, tmp_path):
        from repro.service import Client

        fields = dict(self.E2E_FIELDS, n_max=12, seed=3)
        spec = SessionSpec.from_payload(dict(fields))
        server = self._serve(tmp_path)
        try:
            client = Client(server.url)
            final = client.run_session(
                lambda sug: measure_round(
                    spec, np.asarray(sug["x"]), sug["round"]
                ),
                **fields,
            )
            assert final["state"] == "completed"
            assert final["n_labeled"] == 12
        finally:
            server.stop()


class TestDistilledWorkloadSessions:
    """Distilled envelopes as session workloads (DESIGN.md §2j)."""

    @pytest.fixture(scope="class")
    def envelope_path(self, tmp_path_factory):
        from repro.workloads import distill_workload, get_benchmark, save_distilled

        path = tmp_path_factory.mktemp("svc-distill") / "atax.npz"
        save_distilled(
            distill_workload(
                get_benchmark("atax"), budget=120, seed=2, n_estimators=4
            ),
            path,
        )
        return path

    def test_spec_accepts_and_hashes_the_file_name(self, envelope_path):
        spec = make_spec(benchmark=f"surrogate:{envelope_path}")
        assert spec.benchmark == f"surrogate:{envelope_path}"
        assert spec.spec_hash() != make_spec().spec_hash()

    def test_session_runs_against_the_envelope(self, tmp_path, envelope_path):
        driver = AppDriver(tmp_path)
        fields = dict(SPEC_FIELDS, benchmark=f"surrogate:{envelope_path}")
        sid = driver.drive(fields, rounds=2)
        status, data = driver.call("GET", f"/v1/sessions/{sid}")
        assert status == 200
        assert data["session"]["benchmark"] == f"surrogate:{envelope_path}"
        assert data["session"]["n_labeled"] > 0

    def test_envelope_is_read_once_across_creates_and_a_reboot(
        self, tmp_path, envelope_path, monkeypatch
    ):
        import repro.workloads.surrogate as surrogate_mod

        # A name of its own, so no earlier test has resolved it already.
        path = tmp_path / "counted.npz"
        shutil.copyfile(envelope_path, path)
        load = surrogate_mod.load_distilled
        calls = []
        monkeypatch.setattr(
            surrogate_mod, "load_distilled", lambda f: calls.append(f) or load(f)
        )
        fields = dict(SPEC_FIELDS, benchmark=f"surrogate:{path}")
        driver = AppDriver(tmp_path / "daemon")
        for _ in range(3):
            status, data = driver.call("POST", "/v1/sessions", fields)
            assert status == 201, data
        rebooted = SessionRegistry(tmp_path / "daemon")
        assert len(rebooted.list()) == 3
        assert len(calls) == 1

    def test_unreadable_envelope_is_a_400_not_a_500(self, tmp_path):
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"not an archive")
        driver = AppDriver(tmp_path)
        status, data = driver.call(
            "POST", "/v1/sessions", {"benchmark": f"surrogate:{junk}"}
        )
        assert status == 400
        assert data["error"]["code"] == "unknown_workload"
        assert "cannot load" in data["error"]["message"]

    @pytest.mark.parametrize("kind", ["encrypted", "unknown-method"])
    def test_unreadable_archive_member_is_a_400(
        self, tmp_path, unreadable_member_envelopes, kind
    ):
        path = unreadable_member_envelopes[kind]
        driver = AppDriver(tmp_path)
        status, data = driver.call(
            "POST", "/v1/sessions", {"benchmark": f"surrogate:{path}"}
        )
        assert status == 400
        assert data["error"]["code"] == "unknown_workload"
        assert "cannot load" in data["error"]["message"]

    def test_unknown_name_includes_did_you_mean(self, tmp_path):
        driver = AppDriver(tmp_path)
        status, data = driver.call("POST", "/v1/sessions", {"benchmark": "attax"})
        assert status == 400
        assert data["error"]["code"] == "unknown_workload"
        assert "did you mean" in data["error"]["message"]
