"""Shared infrastructure for the benchmark harness.

Every paper table/figure has one ``bench_*`` file.  Figures that plot the
*same* runs (Fig. 2 and Fig. 3, Fig. 4 and Fig. 5, and Fig. 7 on both)
share them through the result store, and every regenerated panel is
written to ``benchmarks/_output/`` so the evidence survives the pytest run.

Scale selection: set ``REPRO_SCALE`` to ``smoke`` (default here; minutes
for the full suite), ``quick`` (tens of minutes) or ``paper`` (the full
Section III-D protocol).

Execution: every driver routes its trials through :mod:`repro.engine`, so
``REPRO_JOBS=8`` fans them over 8 worker processes (bit-identical results)
and ``REPRO_CACHE_DIR=...`` persists completed trials — re-running the
harness, or any figure CLI sharing the directory, skips finished work.
Without it the session runs on a temporary store of its own.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import pytest

from repro.engine import engine_from_env, use_engine
from repro.experiments.config import ExperimentScale, scale_from_env

OUTPUT_DIR = Path(__file__).parent / "_output"


@pytest.fixture(scope="session", autouse=True)
def engine_context(tmp_path_factory):
    """Install the env-configured engine (REPRO_JOBS / REPRO_CACHE_DIR),
    on a session-scoped temporary store when REPRO_CACHE_DIR is unset."""
    config = engine_from_env()
    if config.cache_dir is None:
        store = tmp_path_factory.mktemp("result-store")
        config = dataclasses.replace(config, cache_dir=str(store))
    with use_engine(config):
        yield config


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return scale_from_env(default="smoke")


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def write_panel(output_dir: Path, name: str, text: str) -> None:
    """Persist a regenerated panel under benchmarks/_output/."""
    path = output_dir / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are far too heavy for statistical repetition; a single
    timed round still lands the wall-time in the benchmark table.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def env_seed() -> int:
    return int(os.environ.get("REPRO_SEED", "0"))
