"""The import contract: what a process loads before it does any work.

The paper's forest path never calls scipy; only the GP does, so no entry
point loads scipy until a GP fits or predicts.  A forked pool worker
inherits the parent's modules and pays every import a trial makes once
per worker per pool, so a trial after set-up imports no module at all.
Each check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.gp import GaussianProcessRegressor
from repro.surrogate import save_surrogate
from repro.workloads.surrogate import zoo_dir

SRC = Path(repro.__file__).resolve().parent.parent

#: Modules a user or a daemon starts from.
ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.api",
    "repro.analysis",
    "repro.service",
    "repro.engine",
    "repro.experiments.figures",
)

#: The entry imports of a campaign (the API), a figure sweep (the engine
#: and the figure drivers) and the tuning service.
SETUPS = {
    "campaign": ("repro.api", "repro.engine.context"),
    "sweep": ("repro.engine.context", "repro.experiments.figures"),
    "service": (
        "repro.service.app", "repro.service.protocol", "repro.service.registry",
        "repro.service.session", "repro.surrogate",
    ),
}

#: Prelude of every snippet: ``scipy_modules()`` lists the scipy modules
#: loaded so far, and ``block_scipy()`` makes any later scipy import fail.
_PRELUDE = """\
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
def block_scipy():
    sys.modules["scipy"] = None
"""


def _python(code: str):
    """Run ``code`` after :data:`_PRELUDE` in a fresh interpreter on this
    source tree, and return the JSON value its last stdout line holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _PRELUDE + code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_entry_point_loads_no_scipy(module):
    assert _python(f"import {module}\nprint(json.dumps(scipy_modules()))") == []


def test_forest_campaign_runs_without_scipy():
    report = _python("""\
block_scipy()
import repro.api
result = repro.api.run("atax", "pwu", seed=0, scale="smoke", trials=1, jobs=1)
print(json.dumps(result.metrics["n_trials"]))
""")
    assert report == 1


def test_distilled_workload_loads_and_predicts_without_scipy():
    if zoo_dir() is None:
        pytest.skip("committed distilled workloads not present")
    report = _python("""\
block_scipy()
import numpy as np
from repro.workloads import get_benchmark
bench = get_benchmark("distilled:atax-forest")
X = bench.space.sample_encoded(np.random.default_rng(0), 5)
y = bench.evaluate_batch(X, np.random.default_rng(1))
print(json.dumps(bool(np.isfinite(y).all() and (y > 0).all())))
""")
    assert report is True


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_trial_imports_no_module_after_setup(setup):
    """After set-up (a workload's entry imports, the kernel load and
    resolving the benchmark by name) no scipy module is loaded, and one
    smoke-scale forest trial imports nothing."""
    imports = "\n".join(f"import {module}" for module in SETUPS[setup])
    report = _python(f"""\
{imports}
from repro.engine.executor import execute_job
from repro.engine.jobs import trial_jobs
from repro.experiments.config import SCALES
from repro.forest import _cgrower
from repro.workloads import get_benchmark
_cgrower.load()
get_benchmark("atax")
job = trial_jobs("atax", "pwu", SCALES["smoke"])[0]
before = set(sys.modules)
execute_job(job)
print(json.dumps([scipy_modules(), sorted(set(sys.modules) - before)]))
""")
    assert report == [[], []]


def test_gp_loads_scipy_at_its_first_fit():
    report = _python("""\
import numpy as np
from repro.gp import GaussianProcessRegressor
r = np.random.default_rng(0)
X, y = r.random((20, 3)), r.random(20) + 0.5
gp = GaussianProcessRegressor(seed=0)
before = scipy_modules()
mu, sd = gp.fit(X, y).predict_with_uncertainty(X)
after = scipy_modules()
print(json.dumps([before, "scipy.optimize" in after,
                  bool(np.isfinite(mu).all() and np.isfinite(sd).all())]))
""")
    assert report == [[], True, True]


def test_gp_envelope_loads_without_scipy_and_predicts_with_it(tmp_path):
    r = np.random.default_rng(0)
    X, y = r.random((20, 3)), r.random(20) + 0.5
    path = tmp_path / "gp.npz"
    save_surrogate(GaussianProcessRegressor(seed=0).fit(X, y), str(path))
    report = _python(f"""\
block_scipy()
import numpy as np
from repro.surrogate import load_surrogate
model = load_surrogate({str(path)!r})
try:
    model.predict(np.zeros((1, 3)))
    outcome = "predicted"
except ImportError:
    outcome = "ImportError"
print(json.dumps([model.kind, outcome]))
""")
    assert report == ["gp", "ImportError"]
