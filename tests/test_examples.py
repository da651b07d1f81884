"""The examples must actually run — they are part of the public contract."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        result = _run("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "RMSE@5%" in result.stdout
        assert "labeled samples" in result.stdout

    def test_custom_benchmark(self):
        result = _run("custom_benchmark.py")
        assert result.returncode == 0, result.stderr
        assert "pwu" in result.stdout
        assert "random" in result.stdout

    def test_tune_application(self):
        result = _run("tune_application.py")
        assert result.returncode == 0, result.stderr
        assert "best configuration found" in result.stdout
        assert "#process" in result.stdout

    def test_tuning_service(self):
        result = _run("tuning_service.py")
        assert result.returncode == 0, result.stderr
        assert "opened session" in result.stdout
        assert "suggest/report rounds" in result.stdout
        assert "best predicted time" in result.stdout

    def test_transfer_portability(self):
        result = _run("transfer_portability.py")
        assert result.returncode == 0, result.stderr
        assert "surface rank correlation" in result.stdout
        assert "transfer-seeded" in result.stdout

    def test_compare_strategies(self):
        result = _run("compare_strategies.py")
        assert result.returncode == 0, result.stderr
        assert "final RMSE@1%" in result.stdout
        assert "cost to reach RMSE" in result.stdout
