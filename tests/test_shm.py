"""Shared-memory transport for pool workers: bit-identity and lifecycle.

The parent publishes each prepared pool/test split once; workers must
rebuild it bit-identically from the segments, and no segment may outlive
the run — the parent owns every name and unlinks on the engine
``finally`` path.
"""

from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.engine import EngineConfig, run_jobs, trial_jobs
from repro.engine import executor, shm
from repro.experiments.config import ExperimentScale


@pytest.fixture
def two_trial_scale() -> ExperimentScale:
    """Tiny scale with two trials per strategy."""
    return ExperimentScale(
        name="tiny2",
        pool_size=150,
        test_size=120,
        n_init=8,
        n_batch=1,
        n_max=16,
        n_trials=2,
        eval_every=4,
        n_estimators=8,
    )


class TestSharedMemory:
    def test_attach_rebuilds_prepared_data_bit_identically(
        self, two_trial_scale
    ):
        benchmark, pool, X_test, y_test = executor._prepared(
            "mvt", two_trial_scale, 0
        )
        registry = shm.SegmentRegistry()
        pkey = ("mvt", two_trial_scale, 0)
        registry.publish(
            pkey, {"pool_X": pool.X, "X_test": X_test, "y_test": y_test}
        )
        try:
            shm.install_manifest(registry.manifest)
            executor._PREPARED.clear()
            bench2, pool2, X2, y2 = executor._prepared(
                "mvt", two_trial_scale, 0
            )
            assert bench2.name == benchmark.name
            assert pool2.X is not pool.X
            np.testing.assert_array_equal(pool2.X, pool.X)
            np.testing.assert_array_equal(X2, X_test)
            np.testing.assert_array_equal(y2, y_test)
        finally:
            shm.install_manifest(None)
            executor._PREPARED.clear()
            registry.unlink_all()

    def test_unlink_all_removes_segments_and_is_idempotent(self):
        registry = shm.SegmentRegistry()
        registry.publish(("k",), {"a": np.arange(8.0)})
        name, _shape, _dtype = registry.manifest[("k",)]["a"]
        registry.unlink_all()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        registry.unlink_all()  # second teardown is a no-op
        assert len(registry) == 0

    def test_failed_publish_cleans_up_its_own_segment(self):
        registry = shm.SegmentRegistry()
        bad = np.array([object()], dtype=object)
        with pytest.raises(ValueError, match="object-dtype"):
            registry.publish(("bad",), {"a": bad})
        assert len(registry) == 0
        assert ("bad",) not in registry.manifest

    def test_mid_publish_failure_unlinks_the_partial_segment(
        self, monkeypatch
    ):
        registry = shm.SegmentRegistry()
        arr = np.arange(4.0)

        def boom(*args, **kwargs):
            raise RuntimeError("copy failed")

        monkeypatch.setattr(shm.np, "ndarray", boom)
        with pytest.raises(RuntimeError, match="copy failed"):
            registry.publish(("bad",), {"a": arr})
        assert len(registry) == 0
        assert ("bad",) not in registry.manifest

    def test_parallel_run_leaves_no_segments_behind(self, two_trial_scale):
        shm_dir = Path("/dev/shm")
        if not shm_dir.is_dir():
            pytest.skip("no /dev/shm on this platform")
        before = {p.name for p in shm_dir.iterdir()}
        jobs = trial_jobs("mvt", "pwu", two_trial_scale, seed=0)
        results, _ = run_jobs(jobs, config=EngineConfig(jobs=2, progress=False))
        assert all(r.ok for r in results.values())
        leaked = {
            n
            for n in {p.name for p in shm_dir.iterdir()} - before
            if n.startswith("psm_")
        }
        assert not leaked
