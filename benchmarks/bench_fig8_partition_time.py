"""Figure 8: PartIR partitioning time vs overall compilation time.

The paper reports partitioning at <= 14% of XLA's total compile time.  Our
"compilation" pipeline is trace + partition (tactics + propagation) +
lowering + fusion + estimation; the reproduction target is that
partitioning stays a modest fraction of the total.  Each row reports the
propagate vs lower+fuse vs estimate wall-clock split explicitly — after
the streaming search evaluator moved the hot loop off the materializing
pipeline, this is the measurement that shows where the remaining one-shot
compile time goes — and the table is dumped to ``BENCH_fig8.json``.

A trailing section adds the **backend axis** for schedules containing an
``AutomaticPartition`` tactic: the same fixed-seed auto schedule run
through each rollout scheduler must produce identical input shardings,
and the per-backend partition time lands in the JSON so the search
backend's contribution to compile time stays tracked.
"""

import time

import pytest

from repro.api import AutomaticPartition, partir_jit
from repro.mesh import Mesh
from repro.models import gns as gns_mod
from repro.models import transformer, unet as unet_mod
from repro.models.schedules import (
    bp,
    edge_sharding,
    transformer_schedules,
    zero3,
)
from benchmarks.common import (
    gns_paper,
    it32_paper,
    print_table,
    run_schedule,
    search_backend_matrix,
    t32_paper,
    unet_paper,
    write_bench_json,
)

MESH = Mesh({"batch": 16, "model": 2})

AUTO_BACKENDS, AUTO_WORKERS = search_backend_matrix()


def test_fig8(benchmark):
    rows = []
    records = []
    auto_rows = []

    def run_all():
        cases = []
        t0 = time.perf_counter()
        cfg = t32_paper()
        traced = transformer.trace_training_step(cfg)
        cases.append(("T32", traced,
                      transformer_schedules(cfg)["BP+MP+Z3"], MESH,
                      time.perf_counter() - t0))
        t0 = time.perf_counter()
        icfg = it32_paper(decode_steps=64)
        itraced = transformer.trace_inference(icfg)
        cases.append(("IT32", itraced,
                      transformer_schedules(icfg, training=False)["BP+MP"],
                      MESH, time.perf_counter() - t0))
        t0 = time.perf_counter()
        ucfg = unet_paper()
        utraced = unet_mod.trace_training_step(ucfg)
        cases.append(("UNet", utraced,
                      [bp({"image": 0, "timestep": 0, "noise": 0}),
                       zero3(all_tensors=True)], MESH,
                      time.perf_counter() - t0))
        t0 = time.perf_counter()
        gcfg = gns_paper()
        gtraced = gns_mod.trace_training_step(gcfg)
        cases.append(("GNS", gtraced, [edge_sharding()],
                      Mesh({"batch": 16}), time.perf_counter() - t0))

        for name, traced, schedule, mesh, trace_s in cases:
            result = run_schedule(traced, schedule, mesh)
            total = (trace_s + result.partition_s + result.lower_s
                     + result.estimate_s)
            fraction = 100.0 * result.partition_s / total
            rows.append((
                name, f"{result.partition_s:.2f}s", f"{result.lower_s:.2f}s",
                f"{result.estimate_s:.2f}s", f"{total:.2f}s",
                f"{fraction:.1f}%", result.propagate_calls,
                result.ops_processed,
            ))
            records.append({
                "model": name,
                "trace_s": trace_s,
                "partition_s": result.partition_s,
                "lower_fuse_s": result.lower_s,
                "estimate_s": result.estimate_s,
                "pipeline_total_s": total,
                "partition_pct": fraction,
                "propagate_calls": result.propagate_calls,
                "ops_processed": result.ops_processed,
            })

        # -- backend axis: AutomaticPartition inside the compile pipeline --
        gcfg = gns_paper(message_steps=4)
        shardings_by_backend = {}
        for backend in AUTO_BACKENDS:
            gtraced = gns_mod.trace_training_step(gcfg)
            tactic = AutomaticPartition(
                ["batch"],
                {"budget": 8, "rollout_depth": 2, "max_inputs": 12,
                 "seed": 0, "workers": AUTO_WORKERS},
                search_backend=backend,
            )
            t0 = time.perf_counter()
            _, metadata = partir_jit(gtraced, Mesh({"batch": 16}), [tactic],
                                     estimate_per_tactic=False)
            elapsed = time.perf_counter() - t0
            search = tactic.last_search
            shardings_by_backend[backend] = metadata.input_shardings
            auto_rows.append((
                "GNS-auto", backend, f"{metadata.partition_time_s:.2f}s",
                f"{elapsed:.2f}s", search.evaluations, search.cache_hits,
                search.reconcile_chain_hits,
            ))
            records.append({
                "model": "GNS-auto", "backend": backend,
                "workers": AUTO_WORKERS if backend == "process" else 1,
                "partition_s": metadata.partition_time_s,
                "pipeline_total_s": elapsed,
                "search_evaluations": search.evaluations,
                "search_cache_hits": search.cache_hits,
                "reconcile_chain_hits": search.reconcile_chain_hits,
            })
        reference = shardings_by_backend[AUTO_BACKENDS[0]]
        for backend, shardings in shardings_by_backend.items():
            # The backend is a pure scheduling choice: the partitioned
            # program must be identical.
            assert shardings == reference, backend

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "Figure 8: partition time as % of the compile pipeline "
        "(paper: <= 14% of XLA compile); explicit propagate vs lower+fuse "
        "vs estimate split",
        ["model", "partition", "lower+fuse", "estimate", "pipeline total",
         "partition %", "propagates", "ops visited"],
        rows,
    )
    print_table(
        "Figure 8 (backend axis): AutomaticPartition in the pipeline, "
        "one row per rollout scheduler — identical shardings by purity",
        ["model", "backend", "partition", "pipeline total", "evals",
         "tt hits", "chain hits"],
        auto_rows,
    )
    write_bench_json("fig8", {"runs": records})
    # Partitioning stays a bounded fraction of the pipeline.
    assert all(float(row[5].rstrip("%")) < 80.0 for row in rows)
