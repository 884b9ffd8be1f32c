"""Figure 7: resolving conflicts with incrementality (UNet, {8 batch, 2 model}).

Compares, per schedule:
* PartIR            — incremental tactics (the paper's system),
* PartIR-st         — all tactics amalgamated into one (no intermediate
                      propagation): conflicts block, activations stay
                      replicated, memory explodes (the paper's OOMs),
* GSPMD--           — one-shot annotation propagation with greedy conflict
                      resolution and no internal constraints: fits, but
                      slower than PartIR.

The paper's GSPMD-with-tuned-constraints row reaches parity with PartIR by
construction (the constraints reproduce PartIR's sharding), so the
interesting comparisons are the two degradations.
"""

import pytest

from repro.baselines import SingleTactic, gspmd_partition
from repro.mesh import Mesh
from repro.models import unet as unet_mod
from repro.models.schedules import bp, zero2, zero3
from repro.sim import TPU_V3, costmodel
from repro.spmd import lower
from benchmarks.common import print_table, run_schedule, unet_paper

MESH = Mesh({"batch": 8, "model": 2})
DATA = {"image": 0, "timestep": 0, "noise": 0}


def _gspmd_env(traced, cfg):
    annotations = {"image": (0, "batch"), "timestep": (0, "batch"),
                   "noise": (0, "batch"), "opt_state": (0, "batch"),
                   "params": (0, "batch")}
    return gspmd_partition(traced.function, MESH, annotations,
                           use_internal_constraints=False)


def test_fig7(benchmark):
    cfg = unet_paper(batch=64, image_size=128, channels=256)
    traced = unet_mod.trace_training_step(cfg)
    rows = []

    def run_all():
        for label, schedule in {
            "BP+Z2": [bp(DATA), zero2(all_tensors=True)],
            "BP+Z3": [bp(DATA), zero3(all_tensors=True)],
            "BP+MP+Z3": [bp(DATA), unet_mod.megatron_mp(),
                         zero3(all_tensors=True)],
        }.items():
            partir = run_schedule(traced, schedule, MESH)
            st = run_schedule(traced, [SingleTactic(schedule)], MESH)
            env = _gspmd_env(traced, cfg)
            lowered = lower(traced.function, env)
            gspmd_est = costmodel.estimate(lowered, TPU_V3)

            def describe(est):
                oom = est.peak_memory_bytes > TPU_V3.hbm_bytes
                slowdown = est.runtime_s / partir.estimate.runtime_s
                mem = est.peak_memory_bytes / 2 ** 30
                return (f"{slowdown:.2f}x" + (" OOM" if oom else ""),
                        f"{mem:.2f}GB", oom, slowdown)

            p = describe(partir.estimate)
            s = describe(st.estimate)
            g = describe(gspmd_est)
            rows.append((label, p[0], p[1], s[0], s[1], g[0], g[1],
                         s[2] or s[3] > 1.0, g[3] >= 1.0))

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "Figure 7: relative slowdown vs PartIR (higher worse); "
        "paper: PartIR-st OOMs on Z2/Z3, GSPMD-- noticeably slower",
        ["schedule", "PartIR", "mem", "PartIR-st", "st mem",
         "GSPMD--", "g-- mem", "st degraded", "g-- >= PartIR"],
        rows,
    )
    # PartIR-st must degrade (OOM or slower) on the parameter-sharding
    # schedules (Z3; plain Z2 issues no conflicting forward tiles in our
    # model so it matches PartIR); GSPMD-- must never beat PartIR.
    degraded = {row[0]: row[7] for row in rows}
    assert degraded["BP+Z3"] and degraded["BP+MP+Z3"]
    assert all(row[8] for row in rows)
