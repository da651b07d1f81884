"""Compare two sets of benchmark runs from their captured stdout.

    python3 perfbench/run.py --workload W --seed N ... >> base.log
    python3 perfbench/compare.py base.log new.log

Each run prints a record (the line with a ``context`` block) before its
result line; only the records are read.  For each workload and end-to-end
metric present on both sides the script prints both medians, the change,
each side's spread (IQR over median), and a verdict against the metric's
bound from ``BENCHMARK.json``:

* ``unresolved (host drift)`` — the two sides' median CPU probe differs by
  more than the bound, so the host, not the program, may have moved;
* ``better`` — otherwise, when every NEW run beats every BASE run;
* ``unresolved`` — otherwise, when either side's spread exceeds the bound,
  so the runs cannot tell a change from host noise;
* ``regressed`` — NEW's median is worse than BASE's by more than the bound;
* ``same`` — none of the above.

Records from hosts that differ in kernel mode (the numpy fallback fits
about 3x slower than the C kernel) or in ``nproc`` are not comparable:
the script refuses them with exit code 2.  Exit code 1 means at least one
metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Context fields that must agree before two records are compared.
MUST_MATCH = ("kernel_mode", "nproc")


def load(path: str) -> "list[dict]":
    """The run records in a captured ``run.py`` stdout log."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict) and "context" in entry:
                records.append(entry)
    return records


def check_comparable(records: "list[dict]") -> "str | None":
    """Why ``records`` cannot be compared, or ``None`` when they can."""
    for field in MUST_MATCH:
        seen = sorted({str(r["context"][field]) for r in records})
        if len(seen) > 1:
            return f"records differ in {field}: {', '.join(seen)}"
    return None


def _values(records, workload: str, metric: str) -> "list[float]":
    return [
        b["metrics"][metric]["value"]
        for r in records for b in r["benchmarks"]
        if b["workload"] == workload and metric in b["metrics"]
    ]


def _spread(values: "list[float]") -> float:
    if len(values) < 2:
        return float("inf")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def probe_ms(records: "list[dict]") -> float:
    """Median CPU probe over ``records``: how fast the host was."""
    return statistics.median(p for r in records for p in r["context"]["probe_ms"])


def verdict(
    base: "list[float]", new: "list[float]", bound: float, better: str, drift: float = 0.0
) -> str:
    """``drift`` is the relative change of the median CPU probe."""
    if abs(drift) > bound:
        return "unresolved (host drift)"
    sign = 1 if better == "lower" else -1
    change = sign * (statistics.median(new) - statistics.median(base)) / statistics.median(base)
    if all(sign * n < sign * b for n in new for b in base):
        return "better"
    if max(_spread(base), _spread(new)) > bound:
        return "unresolved"
    return "regressed" if change > bound else "same"


def compare(base: "list[dict]", new: "list[dict]", spec: dict) -> "tuple[list[str], bool]":
    """Report lines and whether anything regressed."""
    old_probe, new_probe = probe_ms(base), probe_ms(new)
    drift = (new_probe - old_probe) / old_probe
    lines = [f"host CPU probe {old_probe:.2f} -> {new_probe:.2f} ms ({drift:+.1%})"]
    regressed = False
    workloads = sorted(
        {b["workload"] for r in base for b in r["benchmarks"]}
        & {b["workload"] for r in new for b in r["benchmarks"]}
    )
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old, cur = _values(base, workload, name), _values(new, workload, name)
            if not old or not cur:
                continue
            result = verdict(old, cur, metric["bound"], metric["better"], drift)
            regressed |= result == "regressed"
            b_med, n_med = statistics.median(old), statistics.median(cur)
            lines.append(
                f"{workload:9s} {name:12s} {b_med:12.4f} -> {n_med:12.4f} {metric['unit']:3s} "
                f"({(n_med - b_med) / b_med:+7.1%}; spread {_spread(old):.3f}/{_spread(cur):.3f}, "
                f"n={len(old)}/{len(cur)}, bound {metric['bound']:.2f}) {result}"
            )
    return lines, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    problem = check_comparable(base + new)
    if problem:
        print(f"refusing to compare: {problem}", file=sys.stderr)
        return 2
    lines, regressed = compare(base, new, json.loads(SPEC.read_text()))
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
