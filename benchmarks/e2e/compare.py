"""Compare two sets of benchmark runs.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json [--same-commit]

Each file is what ``run.py --out`` wrote: one or more runs per workload
(one per seed).  For every (workload, end-to-end metric) the medians over
the runs are compared against the bound in ``BENCHMARK.json``:

* ``ok``          the new median is not worse than the base by more than
                  the bound;
* ``unresolved``  it is, but the base's own run-to-run spread (quartile
                  distance over median) is wider than the bound and not
                  every new run beats every base run;
* ``worse``       it is, and the spread does not explain it.

Metrics that a seed determines exactly (simulated plan cost, counts,
bytes, count ratios) are also compared run by run: ``differs`` lists the
seeds that disagree.  That is informational between two commits and a
failure with ``--same-commit``, the "two sets of runs agree" check.  The
exit code is non-zero on any ``worse``, on a higher ``failed_share``, and
with ``--same-commit`` on any ``differs``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
#: Units of measured (not seed-determined) quantities.
MEASURED_UNITS = {"s", "s/s", "MB", "ops/s"}


def load(path):
    """``{(workload, trace): {seed: run}}``"""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    table = defaultdict(dict)
    for run in runs:
        table[run["workload"], run["trace"]][run["seed"]] = run
    return table


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def values_of(runs, metric):
    out = []
    for run in runs.values():
        value = run["metrics"].get(metric, {}).get("value")
        if value is not None:
            out.append(value)
    return out


def judge(base, new, better, bound):
    """(ratio, verdict) for two lists of run values."""
    if not base or not new:
        return None, "missing"
    b, n = statistics.median(base), statistics.median(new)
    ratio = n / b if b else None
    worse_by = (n - b) / abs(b) if b else 0.0
    if better == "higher":
        worse_by = -worse_by
    if worse_by <= bound:
        return ratio, "ok"
    if spread(base) > bound:
        lower = better == "lower"
        beats = (max(new) < min(base)) if lower else (min(new) > max(base))
        return ratio, "ok" if beats else "unresolved"
    return ratio, "worse"


def differing_seeds(base_runs, new_runs, metric):
    return sorted(
        seed for seed in set(base_runs) & set(new_runs)
        if base_runs[seed]["metrics"].get(metric, {}).get("value")
        != new_runs[seed]["metrics"].get(metric, {}).get("value"))


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--same-commit", action="store_true",
                        help="seed-determined metrics must be equal")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    layers = {m["name"]: m for m in declared["per_layer"]}
    base, new = load(args.base), load(args.new)
    bad = 0
    print(f"{'workload':15s} {'metric':36s} {'base':>12s} {'new':>12s} "
          f"{'ratio':>7s}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        names = {name: None for run in base[key].values()
                 for name in run["metrics"]}
        for name in names:
            unit = next(iter(base[key].values()))["metrics"][name]["unit"]
            spec = bounds.get(name) or layers.get(name) or {}
            b, n = values_of(base[key], name), values_of(new[key], name)
            if name in bounds:
                ratio, verdict = judge(b, n, spec["better"], spec["bound"])
            else:
                ratio = (statistics.median(n) / statistics.median(b)
                         if b and n and statistics.median(b) else None)
                verdict = "-"
            if unit not in MEASURED_UNITS:
                seeds = differing_seeds(base[key], new[key], name)
                if seeds:
                    verdict += f" differs(seeds {seeds})"
                    bad += args.same_commit
            bad += verdict.startswith("worse")
            print(f"{workload:15s} {name:36s} "
                  f"{fmt(statistics.median(b) if b else None):>12s} "
                  f"{fmt(statistics.median(n) if n else None):>12s} "
                  f"{fmt(ratio):>7s}  {verdict}")
        failed_base = max(r["failed_share"] for r in base[key].values())
        failed_new = max(r["failed_share"] for r in new[key].values())
        verdict = "ok" if failed_new <= failed_base else "worse"
        bad += verdict == "worse"
        print(f"{workload:15s} {'failed_share (trace=%d)' % trace:36s} "
              f"{fmt(failed_base):>12s} {fmt(failed_new):>12s} "
              f"{'':>7s}  {verdict}")
    print("agree" if not bad else f"{bad} rows fail")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
