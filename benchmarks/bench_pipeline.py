"""Pipeline-parallel benchmark: hybrid pipeline+tensor vs pure tensor.

Sweeps the pipeline stage count K over a fixed device budget D (a
``{stage: K, model: D/K}`` mesh) on the microbatched layer stack of
:mod:`repro.models.pipeline` and compares against pure tensor parallelism
over all D devices.  Three gates:

* **Crossover**: past some stage count N, every hybrid configuration's
  estimated runtime is *strictly below* pure tensor's — tensor-parallel
  all_reduces grow with the model group while the pipeline's bubble
  ``(K-1)/(T+K-1)`` amortizes away with enough microbatches.
* **Bit-identity**: on the hybrid lowering, the search's memoized
  streaming estimate agrees with the materializing
  ``lower -> fuse -> estimate`` reference field-exactly on every
  :class:`~repro.sim.costmodel.CostEstimate` field.
* **Determinism**: a fixed-seed automatic search over the pipelined model
  returns identical best actions and cost on every scheduler backend, and
  that cost is the from-scratch reference's
  (``tests/oracle.py::reference_cost``).

``--smoke`` shrinks the model and the search budget — the CI pipeline
leg's fast regression gate.

Usage::

    python benchmarks/bench_pipeline.py [--smoke]

Results are dumped to ``$BENCH_OUTPUT_DIR/BENCH_pipeline.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), os.path.join(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.api import ManualPartition, UNKNOWN  # noqa: E402
from repro.core.sharding import ShardingEnv  # noqa: E402
from repro.mesh import Mesh  # noqa: E402
from repro.models import pipeline as pm  # noqa: E402
from repro.models import schedules as sched  # noqa: E402
from repro.auto.search import mcts_search  # noqa: E402
from repro.core.propagate import propagate  # noqa: E402
from repro.sim import TPU_V3, costmodel  # noqa: E402
from repro.spmd import count_collectives, lower  # noqa: E402

from benchmarks.common import (  # noqa: E402
    print_table,
    search_backend_matrix,
    write_bench_json,
)
from tests.oracle import reference_cost, reference_estimate  # noqa: E402

DEVICES = 8
FIELDS = ("runtime_s", "compute_s", "comm_s", "local_flops", "comm_bytes",
          "peak_memory_bytes", "collective_time_s")


def bench_config(smoke: bool) -> pm.PipelineConfig:
    if smoke:
        return pm.pipe8(d_model=256, ffw_dim=1024, batch=512,
                        num_microbatches=8)
    return pm.pipe8(d_model=1024, ffw_dim=4096, batch=2048,
                    num_microbatches=16)


def tensor_tactic(axis: str):
    """Megatron-style tiling of every layer's MLP weights."""

    def spec(name, value):
        return {"up_w": 1, "down_w": 0}.get(name.split("/")[-1], UNKNOWN)

    tactic = ManualPartition({"0": spec}, axis=axis)
    tactic.name = "MP"
    return tactic


def run_leg(cfg, tactics, mesh):
    traced = pm.trace_pipeline_transformer(cfg)
    env = ShardingEnv(mesh)
    t0 = time.perf_counter()
    for tactic in tactics:
        tactic.apply(traced.function, env)
    lowered = lower(traced.function, env)
    estimate = costmodel.estimate(lowered, TPU_V3)
    elapsed = time.perf_counter() - t0
    counts = count_collectives(lowered.function)
    return traced, env, estimate, counts, elapsed


def stage_sweep(cfg, schedule: str):
    """Pure tensor at D devices vs hybrid {stage: K, model: D/K}."""
    rows = []
    _, _, pure, pure_counts, pure_s = run_leg(
        cfg, [tensor_tactic("model")], Mesh({"model": DEVICES})
    )
    rows.append(("tensor x%d" % DEVICES, 0, pure, pure_counts, pure_s))
    stages = []
    k = 2
    while k <= DEVICES:
        model = DEVICES // k
        if model > 1:
            mesh = Mesh({"stage": k, "model": model})
            tactics = [sched.pp("stage", schedule), tensor_tactic("model")]
        else:
            mesh = Mesh({"stage": k})
            tactics = [sched.pp("stage", schedule)]
        _, _, est, counts, elapsed = run_leg(cfg, tactics, mesh)
        rows.append((f"pipe x{k} + tensor x{model}", k, est, counts,
                     elapsed))
        stages.append((k, est.runtime_s))
        k *= 2
    return pure, rows, stages


def check_crossover(pure, stages):
    """The smallest K whose hybrid beats pure tensor; every larger swept K
    must also beat it (the win is stable past the crossover, not a fluke
    of one configuration)."""
    crossover = None
    for k, runtime in stages:
        if crossover is None and runtime < pure.runtime_s:
            crossover = k
        if crossover is not None:
            assert runtime < pure.runtime_s, (
                f"hybrid at K={k} regressed above pure tensor "
                f"({runtime} >= {pure.runtime_s})"
            )
    assert crossover is not None, (
        "no hybrid configuration beat pure tensor "
        f"(pure={pure.runtime_s}, hybrid={stages})"
    )
    return crossover


def check_bit_identity(cfg):
    """search estimate == materialized, field-exact, on the hybrid
    lowering."""
    mesh = Mesh({"stage": 4, "model": DEVICES // 4})
    traced = pm.trace_pipeline_transformer(cfg)
    env = ShardingEnv(mesh)
    propagate(traced.function, env)
    estimator = costmodel.StreamingEstimator(traced.function, mesh, TPU_V3)
    for tactic in (sched.pp("stage"), tensor_tactic("model")):
        tactic.apply(traced.function, env)
    fast = estimator.estimate_incremental(env)
    materialized = reference_estimate(traced.function, env, TPU_V3)
    for field in FIELDS:
        assert getattr(fast, field) == getattr(materialized, field), field
    return {field: repr(getattr(fast, field)) for field in FIELDS}


def check_backend_identity(smoke: bool, budget: int):
    """Fixed-seed search over the pipelined model: identical best actions
    and cost on every backend, equal to the reference pipeline's price."""
    cfg = pm.tiny()
    mesh = Mesh({"stage": 2, "model": 2})
    backends, workers = search_backend_matrix()
    if smoke:
        backends = tuple(b for b in backends if b != "process")
    reference = None
    results = {}
    for backend in backends:
        traced = pm.trace_pipeline_transformer(cfg)
        result = mcts_search(
            traced.function, ShardingEnv(mesh), ["stage", "model"],
            device=TPU_V3, budget=budget, seed=7, backend=backend,
            workers=workers,
        )
        results[backend] = {"actions": [list(a) for a in result.actions],
                            "cost": result.cost}
        if reference is None:
            reference = (result.actions, result.cost)
            assert result.cost == reference_cost(
                traced.function, mesh, result.actions, TPU_V3
            ), f"{backend}: best cost is not the reference pipeline's"
        else:
            assert result.actions == reference[0], (
                f"{backend}: best actions diverged"
            )
            assert result.cost == reference[1], (
                f"{backend}: best cost diverged")
    return results


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="small config + budget (CI gate)")
    args = parser.parse_args(argv)

    cfg = bench_config(args.smoke)
    payload = {"smoke": args.smoke, "devices": DEVICES,
               "config": dataclasses.asdict(cfg), "schedules": {}}

    header = ["leg", "runtime_s", "compute_s", "comm_s", "AR", "wall_s"]
    for schedule in ("1f1b", "gpipe"):
        pure, rows, stages = stage_sweep(cfg, schedule)
        crossover = check_crossover(pure, stages)
        print_table(
            f"pipeline sweep ({schedule}, D={DEVICES})", header,
            [[name, f"{est.runtime_s:.3e}", f"{est.compute_s:.3e}",
              f"{est.comm_s:.3e}", counts.all_reduce, f"{elapsed:.2f}"]
             for name, _, est, counts, elapsed in rows],
        )
        print(f"  crossover: hybrid beats pure tensor from K={crossover}")
        payload["schedules"][schedule] = {
            "crossover_stages": crossover,
            "pure_tensor_runtime_s": pure.runtime_s,
            "legs": [
                {"name": name, "stages": k, "runtime_s": est.runtime_s,
                 "compute_s": est.compute_s, "comm_s": est.comm_s,
                 "peak_memory_bytes": est.peak_memory_bytes,
                 "all_reduce": counts.all_reduce, "wall_s": elapsed}
                for name, k, est, counts, elapsed in rows
            ],
        }

    # 1F1B keeps at most `stages` microbatches in flight; GPipe keeps all
    # T.  Same compute/comm terms, strictly ordered memory.
    mem_1f1b = {
        leg["name"]: leg["peak_memory_bytes"]
        for leg in payload["schedules"]["1f1b"]["legs"]
    }
    for leg in payload["schedules"]["gpipe"]["legs"]:
        if leg["stages"]:
            assert leg["peak_memory_bytes"] >= mem_1f1b[leg["name"]], (
                f"{leg['name']}: gpipe peak below 1f1b"
            )

    payload["bit_identity"] = check_bit_identity(cfg)
    print("  bit-identity: search estimate == materialized")

    budget = 8 if args.smoke else 24
    payload["backend_identity"] = check_backend_identity(args.smoke, budget)
    print(f"  backend identity: {sorted(payload['backend_identity'])}")

    out = write_bench_json("pipeline", payload)
    print(f"  wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
