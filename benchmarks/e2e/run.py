"""End-to-end + per-layer benchmark of ``partir_jit``.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--runs K]
        [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]

With ``--workload`` one workload runs in this process and the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without it every workload runs in
a fresh child process, for seeds ``N .. N+K-1`` untraced and (with
``--trace``) once more traced at seed ``N``, and the results are
cross-checked and written to ``--out``.  METRICS.md defines every number
printed here.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

# One client thread: BLAS must not fan out over the cores the daemon and
# the client share.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

WORKLOADS = ("manual_compose", "auto_cold", "auto_warm", "served_stream")


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def print_metrics(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} ==")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:38s} {shown:>14s} {metric['unit']}")
    checks = ", ".join(f"{k}={v}" for k, v in result["checks"].items())
    print(f"checks run: {checks}; attempted={result['attempted']} "
          f"failed={result['failed']} "
          f"failed_share={result['failed_share']:.4g}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")


def driver_line(result: dict) -> str:
    """The one-line result of a single-workload run.  A metric whose
    source field is gone reads -1 (no count or time is negative)."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": -1 if m["value"] is None else m["value"],
                   "unit": m["unit"]}
            for name, m in result["metrics"].items()},
    })


def write_runs(path: str, runs, problems=()) -> None:
    """One run per line, so that a diff of two baselines reads by run."""
    with open(path, "w") as handle:
        handle.write('{"runs": [\n')
        handle.write(",\n".join(json.dumps(run) for run in runs))
        handle.write('\n], "cross_check_failures": %s}\n'
                     % json.dumps(list(problems)))


def run_one(args) -> int:
    from workloads import run_workload

    spans_out = None
    if args.out and args.trace:
        spans_out = os.path.splitext(args.out)[0] + \
            f".{args.workload}.spans.jsonl"
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke, STARTED, spans_out)
    if args.out:
        write_runs(args.out, [result])
    print_metrics(result)
    print(driver_line(result))
    return 0


def cross_check(runs) -> list:
    """A served zoo case must carry the cold search's plan of the same
    case, bit for bit."""
    problems = []
    cold = {(r["seed"], case): row for r in runs
            if r["workload"] == "auto_cold" and not r["trace"]
            for case, row in r["cases"].items()}
    for run in runs:
        if run["trace"] or run["workload"] != "served_stream":
            continue
        for case, row in run["cases"].items():
            base = cold.get((run["seed"], case))
            if base is None:
                continue
            ours, theirs = row["plan_step_time_s"], base["plan_step_time_s"]
            if ours != theirs:
                problems.append(f"seed {run['seed']} {case}: served plan "
                                f"{ours} != cold plan {theirs}")
    return problems


def run_all(args) -> int:
    runs = []
    with tempfile.TemporaryDirectory(dir=os.getcwd(),
                                     prefix=".e2e_tmp_") as scratch:
        for seed in range(args.seed, args.seed + args.runs):
            traced = args.trace and seed == args.seed
            for trace in ((0, 1) if traced else (0,)):
                for workload in WORKLOADS:
                    out = os.path.join(scratch, "result.json")
                    command = [sys.executable, os.path.abspath(__file__),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(trace), "--out", out]
                    if args.smoke:
                        command.append("--smoke")
                    done = subprocess.run(command, stdout=subprocess.PIPE,
                                          text=True)
                    if done.returncode != 0:
                        print(done.stdout)
                        print(f"{workload} exited {done.returncode}")
                        return 1
                    # Everything but the driver's JSON line.
                    print(done.stdout.rsplit("\n", 2)[0])
                    with open(out) as handle:
                        runs.extend(json.load(handle)["runs"])
                    spans = os.path.join(scratch,
                                         f"result.{workload}.spans.jsonl")
                    if args.out and os.path.exists(spans):
                        os.replace(spans, os.path.splitext(args.out)[0]
                                   + f".{workload}.spans.jsonl")
    problems = cross_check(runs)
    for problem in problems:
        print(f"FAILED cross-check: {problem}")
    failed = sum(run["failed"] for run in runs) + len(problems)
    print(f"{len(runs)} runs, {failed} failures")
    if args.out:
        write_runs(args.out, runs, problems)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="stream shuffle, clone tag names, check inputs")
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds N..N+K-1 (all-workloads mode)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase of one run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="three tiny cases, one round each")
    parser.add_argument("--out", default=None, help="result JSON file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
