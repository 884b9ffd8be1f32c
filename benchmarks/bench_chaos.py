"""Chaos benchmark: search robustness and recovery overhead under faults.

Runs the same MLP partition search through the fault-injection harness
(:mod:`repro.auto.faults`) under escalating failure schedules and checks
the two halves of the robustness contract:

* **Degradation**: every leg — torn log writes at a fixed fault
  rate, worker kills healed by re-forks, restart-budget exhaustion
  degrading to in-process serial, remote connection resets — completes
  and returns best actions/cost **bit-identical** to the fault-free
  serial run at the same seed.
* **Overhead**: the fixed-fault-rate leg (a seeded
  :meth:`~repro.auto.faults.FaultPlan.seeded` schedule over the serial
  backend with a persistent cache) must cost < 20% extra wall-clock over
  the clean run — recovery work stays off the hot path.

``--smoke`` shrinks the budget and skips repeat timing (the overhead
gate gets slack for timer noise but is still asserted) — the CI chaos
job's fast regression gate.

Usage::

    python benchmarks/bench_chaos.py [--smoke]

Results are dumped to ``$BENCH_OUTPUT_DIR/BENCH_chaos.json``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.core.sharding import ShardingEnv  # noqa: E402
from repro.ir.function import FunctionBuilder  # noqa: E402
from repro.mesh import Mesh  # noqa: E402
from repro.sim import DeviceSpec  # noqa: E402

from repro.auto import faults, rpc  # noqa: E402
from repro.auto.search import mcts_search  # noqa: E402
from repro.auto.server import PlanServer  # noqa: E402

from benchmarks.common import print_table, write_bench_json  # noqa: E402

MESH = Mesh({"B": 4, "M": 2})
AXES = ["B", "M"]
TINY_DEVICE = DeviceSpec("tiny", peak_flops=1e9, hbm_bytes=200_000,
                         link_bandwidth=1e9)

#: The fixed fault rate of the overhead leg (per site invocation).
FAULT_RATE = 0.05
OVERHEAD_LIMIT = 0.20


def mlp_chain(width=8):
    builder = FunctionBuilder("main")
    x = builder.param((256, width), name="x")
    w1 = builder.param((width, 2 * width), name="w1")
    w2 = builder.param((2 * width, width), name="w2")
    hidden = builder.emit1("dot_general", [x, w1],
                           {"lhs_contract": (1,), "rhs_contract": (0,)})
    out = builder.emit1("dot_general", [hidden, w2],
                        {"lhs_contract": (1,), "rhs_contract": (0,)})
    return builder.ret(out)


def run_leg(search_kw, plan=None, repeats=1):
    """One benchmark leg: optional fault plan installed around the
    search, RuntimeWarnings (heal/degrade notices) collected rather than
    printed, median wall-clock over ``repeats`` runs."""
    times = []
    result = None
    for _ in range(repeats):
        if plan is not None:
            faults.install(faults.FaultPlan(plan.schedule, name=plan.name))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                start = time.perf_counter()
                result = mcts_search(mlp_chain(), ShardingEnv(MESH), AXES,
                                     **search_kw)
                times.append(time.perf_counter() - start)
        finally:
            faults.uninstall()
    return result, statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced budget / single timing pass")
    args = parser.parse_args()

    budget = 12 if args.smoke else 32
    repeats = 1 if args.smoke else 3
    base = dict(device=TINY_DEVICE, budget=budget, rollout_depth=2, seed=0)
    rows = []
    payload_legs = {}

    def record(leg, result, wall_s, reference=None, extra=()):
        identical = (reference is None
                     or (result.actions == reference.actions
                         and result.cost == reference.cost))
        rows.append([leg, f"{wall_s * 1000:.1f}", result.faults_injected,
                     result.workers_restarted, result.waves_retried,
                     result.degraded_to or "-",
                     "yes" if identical else "NO"])
        payload_legs[leg] = {
            "wall_s": wall_s,
            "faults_injected": result.faults_injected,
            "workers_restarted": result.workers_restarted,
            "waves_retried": result.waves_retried,
            "degraded_to": result.degraded_to,
            "bit_identical": identical,
        }
        for key, value in extra:
            payload_legs[leg][key] = value
        if not identical:
            raise SystemExit(
                f"[bench_chaos] leg {leg!r} diverged from the fault-free "
                f"serial result — the degradation contract is broken")
        return identical

    # Leg 0: the fault-free serial reference every other leg must match.
    reference, clean_s = run_leg(base, repeats=repeats)
    record("serial-clean", reference, clean_s)
    assert reference.faults_injected == 0
    assert reference.degraded_to == ""

    # Leg 1 (the overhead gate): fixed-rate seeded faults over the serial
    # backend with a persistent transposition log — torn appends at
    # FAULT_RATE per site invocation.
    with tempfile.TemporaryDirectory() as tmp:
        faulted, faulted_s = run_leg(dict(base, cache_dir=tmp),
                                     plan=faults.FaultPlan.seeded(
                                         0, rate=FAULT_RATE),
                                     repeats=repeats)
    overhead = (faulted_s - clean_s) / clean_s if clean_s else 0.0
    record("serial-faulted", faulted, faulted_s, reference,
           extra=[("overhead", overhead)])
    # Smoke runs are one-shot timings on shared CI boxes: give the gate
    # noise slack without letting a real regression (2x, say) through.
    limit = OVERHEAD_LIMIT + (0.30 if args.smoke else 0.0)
    if overhead > limit:
        raise SystemExit(
            f"[bench_chaos] recovery overhead {overhead:.1%} exceeds "
            f"{limit:.0%} at fault rate {FAULT_RATE}")

    # Leg 2: every worker killed on its second evaluation, healed by
    # re-forks within the restart budget.
    healed, healed_s = run_leg(
        dict(base, backend="process", workers=2, wave_size=2,
             restart_budget=budget * 4),
        plan=faults.FaultPlan({"worker.exit": [1]}, name="heal"))
    record("process-heal", healed, healed_s, reference)
    assert healed.workers_restarted >= 1, "no restart recorded"

    # Leg 3: workers die on their *first* evaluation — healing cannot
    # win, the budget runs out, the search degrades to serial and still
    # completes.
    degraded, degraded_s = run_leg(
        dict(base, backend="process", workers=2, wave_size=2),
        plan=faults.FaultPlan({"worker.exit": [0]}, name="degrade"))
    record("process-degrade", degraded, degraded_s, reference)
    assert degraded.degraded_to == "serial", "expected serial degradation"

    # Leg 4: remote backend under scripted mid-stream connection resets;
    # sessions reconnect and replay eval_init.
    rpc.reset_breakers()
    with PlanServer() as server:
        address = rpc.format_address(server.address)
        remote, remote_s = run_leg(
            dict(base, backend="remote", workers=2, wave_size=2,
                 plan_server=address, restart_budget=16,
                 rpc_timeout_s=10.0),
            plan=faults.FaultPlan(
                {"rpc.recv": [6, 9], "rpc.send": [12]}, name="resets"))
    record("remote-resets", remote, remote_s, reference)
    assert remote.faults_injected >= 1, "schedule did not fire"

    print_table(
        f"chaos legs (budget={budget}, fault rate {FAULT_RATE})",
        ["leg", "wall ms", "faults", "restarts", "retries", "degraded",
         "identical"],
        rows)
    print(f"\n[bench_chaos] recovery overhead at rate {FAULT_RATE}: "
          f"{overhead:.1%} (limit {limit:.0%})")

    write_bench_json("chaos", {
        "mode": "smoke" if args.smoke else "full",
        "budget": budget,
        "fault_rate": FAULT_RATE,
        "overhead": overhead,
        "overhead_limit": limit,
        "legs": payload_legs,
    })
    print("[bench_chaos] all legs bit-identical to the fault-free "
          "serial run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
