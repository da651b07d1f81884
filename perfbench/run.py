"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload {campaign,sweep,service} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics of an untraced pass;
``--trace 1`` runs the workload untraced and then again with the layer
wrappers of :mod:`layers` installed, and prints the per-layer metrics
(tracing overhead included).  Metric names, units and directions come
from ``BENCHMARK.json``; ``perfbench/metric_map.json`` says which
end-to-end metric each layer metric should move.

Every pass runs in a fresh child process, so no cache survives from one
pass into the next.  ``setup_s`` is the median of several interpreter
starts up to the first timed call, after the C split kernel was built
once here.  The last stdout line is the result
(``correct``/``attempted``/``failed``/``metrics``); the line before it is
a record with a context block (commit, versions, ``nproc``, kernel mode,
BLAS threads, a CPU probe around each pass), the output digest and the
checks.  ``perfbench/compare.py`` reads those records from captured
stdout (``run.py ... >> base.log``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("campaign", "sweep", "service")

#: Interpreter starts whose median is ``setup_s`` (the pass children
#: count as starts too).
SETUP_STARTS = 5
#: Seconds a whole run may take; a pass still going then is killed.
RUN_LIMIT_S = 170
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _work_dir(workload: str, pid: int) -> Path:
    """Scratch space of one pass (journals, result store), on local disk."""
    return ROOT / ".perfbench_work" / f"{workload}-{pid}"


# -- child side ---------------------------------------------------------------
def _child(args) -> dict:
    """Set up like a user would, then (``pass``) run one workload pass."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    workloads.load(args.workload)
    t1 = time.perf_counter()
    mode = workloads.kernel_load()
    t2 = time.perf_counter()
    workloads.resolve(args.workload, args.seconds)
    ready = time.perf_counter()
    out = {
        "ready_at": ready,
        "setup": {"import_s": t1 - t0, "kernel_load_s": t2 - t1, "resolve_s": ready - t2},
        "kernel_mode": mode,
    }
    if args.child == "setup":
        return out
    import resource

    import layers

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    work_dir = _work_dir(args.workload, os.getpid())
    outcome = workloads.run(args.workload, args.seed, args.seconds, str(work_dir))
    if tracer is not None:
        tracer.uninstall()
    _reap_children()
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out.update(
        wall_s=outcome.wall_s,
        peak_rss_mb=rss_kb / 1024,
        rmse_top5=outcome.rmse_top5,
        attempted=outcome.attempted,
        checks=outcome.checks,
        digest=outcome.digest,
        extra=outcome.extra,
    )
    if args.trace:
        marks = outcome.marks
        start = marks["start"]
        delta = {k: v - start.get(k, 0) for k, v in marks["end"].items() if v != start.get(k, 0)}
        timed = {
            k: v - start.get(k, 0)
            for k, v in marks["timed_end"].items() if v != start.get(k, 0)
        }
        out["layers"] = layers.per_layer_metrics(delta)
        out["layers"]["trace.coverage"] = layers.coverage(timed, outcome.wall_s)
    return out


def _reap_children(timeout: float = 30.0) -> None:
    """Wait for every pool worker to exit, so none outlives the pass."""
    import multiprocessing

    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


# -- parent side ----------------------------------------------------------------
def _spawn(args, child: str, deadline: float, trace: int = 0) -> "tuple[float, dict]":
    """Run one child; returns ``(setup seconds, its JSON report)``.

    The child leads its own process group, so a pass that overruns
    ``deadline`` (a ``time.monotonic`` value) is killed together with any
    pool workers it forked.
    """
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", child,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{child} pass of {args.workload} overran the time limit") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(_work_dir(args.workload, proc.pid), ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"{child} pass of {args.workload} exited {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    return report["ready_at"] - t0, report


def cpu_probe_ms() -> float:
    """A fixed pure-Python loop, timed: how fast the host is right now."""
    t = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    return (time.perf_counter() - t) * 1e3


def _git_sha() -> "str | None":
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    """Content hash of the program's sources (checkouts need not be git)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def context(kernel_mode: str, probes: "list[float]") -> dict:
    """The run's frozen context block (nnbench ``BenchmarkRecord`` style)."""
    import multiprocessing

    import numpy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "start_method": "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn",
        "kernel_mode": kernel_mode,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "probe_ms": probes,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        print(json.dumps(_child(args)))
        return 0
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no program sources under {SRC} (run from a checkout)", file=sys.stderr)
        return 2
    try:
        return _measure(args, json.loads(SPEC.read_text()))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _measure(args, spec: dict) -> int:
    """Every pass and set-up start of one run; prints record and result."""
    deadline = time.monotonic() + RUN_LIMIT_S
    sys.path.insert(0, str(SRC))
    from repro.forest import _cgrower

    # Build (or find) the C kernel before any timed start, so the one-off
    # compile never lands in setup_s.
    kernel_mode = "c" if _cgrower.load() is not None else "numpy"

    probes: "list[float]" = []
    setups: "list[float]" = []
    phases: "list[dict]" = []
    passes = []
    for trace in ((0, 1) if args.trace else (0,)):
        probes.append(cpu_probe_ms())
        setup_s, report = _spawn(args, "pass", deadline, trace)
        probes.append(cpu_probe_ms())
        setups.append(setup_s)
        phases.append(report["setup"])
        passes.append(report)
    while len(setups) < SETUP_STARTS:
        setup_s, report = _spawn(args, "setup", deadline)
        setups.append(setup_s)
        phases.append(report["setup"])

    base = passes[0]
    checks = dict(base["checks"])
    if args.trace:
        checks["traced_digest_identical"] = passes[1]["digest"] == base["digest"]
        checks.update({f"traced.{k}": v for k, v in passes[1]["checks"].items()})
    checks["kernel_mode_stable"] = all(p["kernel_mode"] == kernel_mode for p in passes)
    attempted = sum(p["attempted"] for p in passes) + len(checks)
    failed = sum(not ok for ok in checks.values())

    if args.trace:
        values = dict(passes[1]["layers"])
        for phase in ("import_s", "kernel_load_s", "resolve_s"):
            values[f"setup.{phase}"] = statistics.median(p[phase] for p in phases)
        values["trace.overhead_s"] = passes[1]["wall_s"] - base["wall_s"]
        values["quality.rmse_top5"] = base["rmse_top5"]
        # The service's client-side latencies come from the untraced pass.
        values.update((k, v) for k, v in base["extra"].items() if k.startswith("service."))
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": base["wall_s"],
            "peak_rss_mb": base["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    # A program counter the pass never incremented reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    record = {
        "context": context(kernel_mode, probes),
        "benchmarks": [{
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "output_digest": base["digest"],
            "checks": checks,
            "setup_starts_s": setups,
            "wall_s": [p["wall_s"] for p in passes],
            "rmse_top5": base["rmse_top5"],
            "extra": base["extra"],
            "metrics": metrics,
        }],
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
