"""Command-line interface: regenerate any table or figure of the paper.

Examples
--------
::

    repro tables                       # Tables I-IV
    repro fig2 --kernels atax mm       # RMSE vs #samples for two kernels
    repro fig7 --scale quick           # PWU/PBUS speedup table
    repro fig9                         # selection-distribution maps
    repro list                         # benchmarks and strategies
    repro all --scale smoke -o results # everything, persisted as JSON
    repro fig2 --jobs 8 --cache-dir ~/.cache/repro   # parallel + resumable
    repro fig6 --trace                 # + JSONL telemetry trace & summary
    repro trace summarize trace-*.jsonl
    repro lint --format json           # static reproducibility lint
    repro serve --port 8642 --data-dir /var/lib/repro   # tuning service

Scales: ``paper`` (the full Section III-D protocol), ``quick`` (default;
minutes on one core), ``smoke`` (seconds, CI-sized).

Every figure subcommand accepts ``--jobs N`` (fan trials over N worker
processes; traces are bit-identical to serial), ``--cache-dir DIR``
(persist completed trials in a crash-safe journal so re-runs and killed
runs skip finished work), ``--max-retries K`` / ``--job-timeout SECONDS``
(fault tolerance: failed, timed-out, or crash-lost trials are retried
with exponential backoff before being recorded as failed),
``--trace [FILE]`` (record telemetry spans — see :mod:`repro.telemetry` —
into a JSONL file and print a per-phase summary; results are
bit-identical with tracing on or off), and ``--surrogate NAME`` (swap the
model family under every strategy: ``forest`` — the paper's default —
``gp``, ``select``, ``stack``, or any :mod:`repro.surrogate`
registration).  The ``REPRO_FAULTS`` environment variable injects
deterministic chaos faults for testing (see :mod:`repro.engine.faults`).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro._version import __version__
from repro.experiments.config import SCALES
from repro.experiments.report import dump_json
from repro.kernels import SPAPT_KERNEL_NAMES
from repro.sampling import STRATEGY_NAMES, available_strategies
from repro.workloads import all_benchmarks

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser (one subcommand per figure)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument(
            "--scale", choices=sorted(SCALES), default="quick", help="experiment scale"
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "-o", "--out-dir", default=None, help="directory for JSON results"
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            metavar="N",
            help="worker processes for trial execution "
            "(default: $REPRO_JOBS or 1 = serial; results are bit-identical "
            "at any N)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="persistent trial store (default: $REPRO_CACHE_DIR); "
            "re-runs skip completed trials and killed runs resume",
        )
        p.add_argument(
            "--no-progress",
            action="store_true",
            help="suppress engine telemetry on stderr",
        )
        p.add_argument(
            "--progress",
            action="store_true",
            help="force per-update progress lines even when stderr is not "
            "a TTY (non-TTY runs print only the final summary by default)",
        )
        p.add_argument(
            "--max-retries",
            type=int,
            default=None,
            metavar="K",
            help="re-attempts per failed/timed-out/crash-lost trial job "
            "before it is recorded as failed (default: $REPRO_MAX_RETRIES "
            "or 2)",
        )
        p.add_argument(
            "--job-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-attempt wall-clock limit for one trial job; a "
            "timed-out attempt is retried (default: $REPRO_JOB_TIMEOUT "
            "or unlimited)",
        )
        p.add_argument(
            "--trace",
            nargs="?",
            const=True,
            default=None,
            metavar="FILE",
            help="record telemetry spans to a JSONL trace "
            "(default file: trace-<run_id>.jsonl) and print a per-phase "
            "summary to stderr; results are unchanged",
        )
        p.add_argument(
            "--surrogate",
            default="forest",
            metavar="NAME",
            help="surrogate family driving the loop (forest, gp, select, "
            "stack, ...; see `repro list`); default is the paper's forest",
        )
        return p

    sub.add_parser("list", help="list benchmarks and strategies")
    sub.add_parser("tables", help="print Tables I-IV")

    pd = sub.add_parser(
        "distill",
        help="freeze a workload into a distilled surrogate benchmark "
        "(.npz envelope runnable via surrogate:<file>)",
    )
    pd.add_argument(
        "workload", help="source benchmark name (e.g. atax or kernel:atax)"
    )
    pd.add_argument(
        "--surrogate",
        default="forest",
        metavar="NAME",
        help="surrogate family to distill into (default: forest)",
    )
    pd.add_argument(
        "--budget",
        type=int,
        default=512,
        metavar="N",
        help="configurations measured in the distillation campaign",
    )
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument(
        "--noise",
        choices=("protocol", "residual", "exact", "none"),
        default="protocol",
        help="noise model stamped on the frozen surface (default: protocol "
        "= the source's repeat-averaged sigma in one draw)",
    )
    pd.add_argument(
        "--n-estimators",
        type=int,
        default=30,
        metavar="K",
        help="trees in the distilled forest (forest-family surrogates)",
    )
    pd.add_argument(
        "--name",
        default=None,
        help="benchmark name stamped in the envelope "
        "(default: <source>-<surrogate>)",
    )
    pd.add_argument(
        "-o",
        "--out",
        required=True,
        metavar="FILE",
        help="output .npz envelope path",
    )

    pr = add(
        "run",
        "run one or more strategies on any workload "
        "(including surrogate:<file.npz> and distilled:<name>)",
    )
    pr.add_argument(
        "workload", help="benchmark name, surrogate:<file.npz>, or distilled:<name>"
    )
    pr.add_argument(
        "--strategy",
        nargs="+",
        default=["pwu"],
        metavar="NAME",
        help="strategy name(s); several names run as one comparison "
        "(default: pwu)",
    )
    pr.add_argument(
        "--budget", type=int, default=None, help="override the scale's n_max"
    )
    pr.add_argument(
        "--trials", type=int, default=None, help="override the scale's n_trials"
    )
    pr.add_argument("--alpha", type=float, default=0.05)

    ps = sub.add_parser(
        "serve",
        help="run the tuning service daemon (JSON-over-HTTP suggest/report)",
    )
    ps.add_argument(
        "--host",
        default=None,
        help="bind address (default: $REPRO_SERVICE_HOST or 127.0.0.1)",
    )
    ps.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port, 0 for ephemeral (default: $REPRO_SERVICE_PORT or 8642)",
    )
    ps.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="session journal directory (default: $REPRO_SERVICE_DATA_DIR "
        "or ./repro-service); open sessions found there are resumed",
    )

    from repro.analysis.cli import configure_parser as configure_lint

    configure_lint(
        sub.add_parser(
            "lint",
            help="static reproducibility lint (AST rules; see repro.analysis)",
        )
    )

    pt = sub.add_parser("trace", help="telemetry trace utilities")
    tsub = pt.add_subparsers(dest="trace_command", required=True)
    ts = tsub.add_parser(
        "summarize", help="print the per-phase summary of a JSONL trace file"
    )
    ts.add_argument("file", help="trace file written by --trace or repro.api")

    p2 = add("fig2", "RMSE vs #samples for the 12 kernels (also computes Fig. 3)")
    p2.add_argument("--kernels", nargs="+", default=list(SPAPT_KERNEL_NAMES))
    p2.add_argument("--alpha", type=float, default=0.01)

    p4 = add("fig4", "RMSE and CC vs #samples for kripke and hypre (also Fig. 5)")
    p4.add_argument("--alpha", type=float, default=0.01)

    p6 = add("fig6", "PBUS vs PWU at alpha in {0.01, 0.05, 0.10}")
    p6.add_argument("--benchmark", default="atax")

    p7 = add("fig7", "cost speedup of PWU over PBUS across benchmarks")
    p7.add_argument("--benchmarks", nargs="+", default=None)
    p7.add_argument("--alpha", type=float, default=0.01)

    p8 = add("fig8", "direct vs surrogate-annotated tuning")
    p8.add_argument("--benchmark", default="atax")

    p9 = add("fig9", "selected-sample distribution maps (PBUS vs PWU)")
    p9.add_argument("--benchmark", default="atax")

    add("all", "regenerate every table and figure")
    return parser


def _emit(result, out_dir: "str | None") -> None:
    print(result.render())
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        slug = result.name.lower().replace(" ", "").replace(".", "")
        path = os.path.join(out_dir, f"{slug}.json")
        dump_json(
            {"name": result.name, "description": result.description, "data": result.data},
            path,
        )
        print(f"[written {path}]")


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "lint":
        from repro.analysis.cli import run_from_args

        return run_from_args(args)

    if args.command == "distill":
        from repro import api

        bench = api.distill(
            args.workload,
            surrogate=args.surrogate,
            budget=args.budget,
            seed=args.seed,
            noise=args.noise,
            n_estimators=args.n_estimators,
            name=args.name,
            out=args.out,
        )
        prov = bench.provenance
        print(
            f"distilled {prov['source']} -> {args.out} "
            f"[{prov['surrogate']}, budget={prov['budget']}, "
            f"seed={prov['seed']}, noise={prov['noise_mode']}, "
            f"fit_rmse_log={prov['fit_rmse_log']:.4f}]"
        )
        print(f"run it:   repro run surrogate:{args.out}")
        return 0

    if args.command == "serve":
        import dataclasses as _dc

        from repro.service import serve, service_from_env

        base = service_from_env()
        return serve(
            _dc.replace(
                base,
                host=args.host if args.host is not None else base.host,
                port=args.port if args.port is not None else base.port,
                data_dir=(
                    args.data_dir if args.data_dir is not None else base.data_dir
                ),
            )
        )

    # Deferred imports keep `repro list --help` fast.
    from repro.experiments import figures

    if args.command == "list":
        from repro.surrogate import SURROGATE_NAMES, available_surrogates
        from repro.workloads import zoo_entries

        zoo = zoo_entries()
        extras = [s for s in available_strategies() if s not in STRATEGY_NAMES]
        sur_extras = [s for s in available_surrogates() if s not in SURROGATE_NAMES]
        print(
            "benchmarks:",
            ", ".join(n for n in all_benchmarks() if n not in zoo),
        )
        if zoo:
            print(
                "distilled: ",
                ", ".join(zoo),
                "(+ surrogate:<file.npz> for any envelope)",
            )
        print("strategies:", ", ".join(STRATEGY_NAMES),
              f"(+ variants: {', '.join(extras)})" if extras else "")
        print("surrogates:", ", ".join(SURROGATE_NAMES),
              f"(+ {', '.join(sur_extras)})" if sur_extras else "")
        print("scales:    ", ", ".join(sorted(SCALES)))
        return 0

    if args.command == "tables":
        print(figures.tables_1_to_4().render())
        return 0

    if args.command == "trace":
        from repro import telemetry

        try:
            print(telemetry.summarize(telemetry.read_trace(args.file)))
        except BrokenPipeError:  # e.g. `repro trace summarize f | head`
            sys.stderr.close()
        return 0

    from repro.engine import engine_from_env, use_engine

    import dataclasses

    base = engine_from_env()
    engine = dataclasses.replace(
        base,
        jobs=args.jobs if args.jobs is not None else base.jobs,
        cache_dir=args.cache_dir if args.cache_dir is not None else base.cache_dir,
        progress=base.progress and not args.no_progress,
        progress_force=base.progress_force or args.progress,
        max_retries=(
            args.max_retries if args.max_retries is not None else base.max_retries
        ),
        job_timeout=(
            args.job_timeout if args.job_timeout is not None else base.job_timeout
        ),
    )
    with use_engine(engine):
        if args.trace is not None:
            from repro.api import _traced

            code, path = _traced(
                lambda: _dispatch(args, figures), args.trace, summary=True
            )
            print(f"[trace written {path}]", file=sys.stderr)
            return code
        return _dispatch(args, figures)


def _dispatch(args, figures) -> int:
    """Run one figure subcommand under the installed engine context."""
    scale = SCALES[args.scale]
    out = args.out_dir
    surrogate = getattr(args, "surrogate", "forest")

    if args.command == "run":
        return _run_command(args, scale, out, surrogate)

    if args.command == "fig2":
        f2, f3 = figures.fig2_fig3(
            scale, kernels=tuple(args.kernels), alpha=args.alpha, seed=args.seed,
            surrogate=surrogate,
        )
        _emit(f2, out)
        _emit(f3, out)
        return 0

    if args.command == "fig4":
        f4, f5 = figures.fig4_fig5(
            scale, alpha=args.alpha, seed=args.seed, surrogate=surrogate
        )
        _emit(f4, out)
        _emit(f5, out)
        return 0

    if args.command == "fig6":
        _emit(
            figures.fig6(
                scale, benchmark=args.benchmark, seed=args.seed, surrogate=surrogate
            ),
            out,
        )
        return 0

    if args.command == "fig7":
        benches = tuple(args.benchmarks) if args.benchmarks else None
        _emit(
            figures.fig7(
                scale, benchmarks=benches, alpha=args.alpha, seed=args.seed,
                surrogate=surrogate,
            ),
            out,
        )
        return 0

    if args.command == "fig8":
        _emit(
            figures.fig8(
                scale, benchmark_name=args.benchmark, seed=args.seed,
                surrogate=surrogate,
            ),
            out,
        )
        return 0

    if args.command == "fig9":
        _emit(
            figures.fig9(
                scale, benchmark_name=args.benchmark, seed=args.seed,
                surrogate=surrogate,
            ),
            out,
        )
        return 0

    if args.command == "all":
        print(figures.tables_1_to_4().render())
        f2, f3 = figures.fig2_fig3(scale, seed=args.seed, surrogate=surrogate)
        _emit(f2, out)
        _emit(f3, out)
        f4, f5 = figures.fig4_fig5(scale, seed=args.seed, surrogate=surrogate)
        _emit(f4, out)
        _emit(f5, out)
        _emit(figures.fig6(scale, seed=args.seed, surrogate=surrogate), out)
        pre = {k: {s: _trace_from_dict(d) for s, d in v.items()} for k, v in {**f2.data, **f4.data}.items()}
        _emit(
            figures.fig7(scale, seed=args.seed, precomputed=pre, surrogate=surrogate),
            out,
        )
        _emit(figures.fig8(scale, seed=args.seed, surrogate=surrogate), out)
        _emit(figures.fig9(scale, seed=args.seed, surrogate=surrogate), out)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def _run_command(args, scale, out: "str | None", surrogate: str) -> int:
    """``repro run``: one workload, one or more strategies, plain output."""
    from repro import api

    strategies = list(args.strategy)
    common = dict(
        seed=args.seed,
        scale=scale,
        budget=args.budget,
        trials=args.trials,
        alpha=args.alpha,
        surrogate=surrogate,
    )
    if len(strategies) == 1:
        result = api.run(args.workload, strategies[0], **common)
        metrics = {strategies[0]: result.metrics}
    else:
        result = api.compare(args.workload, tuple(strategies), **common)
        metrics = result.metrics
    print(f"workload: {args.workload}  seed: {args.seed}")
    for name in strategies:
        m = metrics[name]
        rmse = ", ".join(f"a={k}: {v:.4f}" for k, v in m["final_rmse"].items())
        print(
            f"  {name:<8} final RMSE {rmse}  "
            f"cost {m['final_cost']:.3f}s  trials {m['n_trials']}"
        )
    if out:
        os.makedirs(out, exist_ok=True)
        slug = args.workload.replace(":", "-").replace("/", "-").replace(".", "-")
        path = os.path.join(out, f"run-{slug}.json")
        dump_json(
            {
                "workload": args.workload,
                "strategies": strategies,
                "seed": args.seed,
                "metrics": metrics,
            },
            path,
        )
        print(f"[written {path}]")
    return 0


def _trace_from_dict(d: dict):
    """Rehydrate an AveragedTrace from its to_dict() form (for `all`)."""
    from repro.experiments.aggregate import AveragedTrace

    return AveragedTrace.from_dict(d)


if __name__ == "__main__":
    sys.exit(main())
