"""Table 2: MFU and HBM usage, PartIR vs the GSPMD-style baseline.

The paper's claim is *parity*: PartIR reaches the same MFU/HBM as GSPMD
given equivalent, expert-tuned sharding annotations (which the paper says
were found by trial-and-error constraint placement).  We report three
columns per configuration:

* PartIR            — the four-tactic schedule BP+MP+Z3+EMB,
* GSPMD (tuned)     — the one-shot baseline given constraints wherever the
                      expert would place them (operationally: seeded with
                      the solved sharding, then re-propagated greedily),
* GSPMD-- (inputs)  — the same baseline given only the equivalent *input*
                      annotations, whose greedy conflict resolution
                      mis-shards internals (the paper's GSPMD-- gap,
                      cf. its discussion of openxla/xla#13875).

Absolute MFU/HBM values come from our simulator, not real TPUs; the
reproduction target is the parity (tuned) and the gap (untuned).
"""

import pytest

from repro.baselines.gspmd import _GspmdPropagator, gspmd_partition
from repro.core.sharding import ShardingEnv
from repro.mesh import Mesh
from repro.models import transformer
from repro.models.schedules import transformer_schedules
from repro.sim import A100_40GB, TPU_V3, costmodel
from repro.spmd import lower
from benchmarks.common import print_table, run_schedule, t32_paper, t48_paper

CONFIGS = [
    ("16x2 TPU", Mesh({"batch": 16, "model": 2}), TPU_V3, t32_paper,
     (58.5, 58.3, 14.38, 14.38)),
    ("32x4 TPU", Mesh({"batch": 32, "model": 4}), TPU_V3, t48_paper,
     (52.3, 52.2, 14.48, 14.48)),
    ("8x2 GPU", Mesh({"batch": 8, "model": 2}), A100_40GB, t32_paper,
     (42.2, 42.9, 27.02, 26.73)),
]


def _input_annotations(traced, env):
    annotations = {}
    for name, param in zip(traced.function.input_names,
                           traced.function.params):
        tiles = [
            (dim, axis)
            for dim, axes in enumerate(env.sharding(param).dim_axes)
            for axis in axes
        ]
        if tiles:
            annotations[name] = tiles
    return annotations


def test_table2(benchmark):
    rows = []

    def run_all():
        for label, mesh, device, make_cfg, paper in CONFIGS:
            cfg = make_cfg()
            traced = transformer.trace_training_step(cfg)
            schedule = transformer_schedules(cfg)["BP+MP+Z3+EMB"]
            ours = run_schedule(traced, schedule, mesh, device)

            def score(env):
                lowered = lower(traced.function, env)
                est = costmodel.estimate(lowered, device)
                return (
                    costmodel.mfu(traced.function, est.runtime_s,
                                  mesh.num_devices, device),
                    est.peak_memory_bytes / 2 ** 30,
                )

            mfu_partir = costmodel.mfu(traced.function,
                                       ours.estimate.runtime_s,
                                       mesh.num_devices, device)
            hbm_partir = ours.estimate.peak_memory_bytes / 2 ** 30

            # GSPMD (tuned): expert constraints everywhere -> the greedy
            # propagation is fully anchored.  Every solved sharding is
            # written as an annotation, so every one seeds the greedy run.
            tuned_env = ShardingEnv(mesh)
            tuned_env.apply_portable_state(
                traced.function, ours.env.portable_state(traced.function))
            _GspmdPropagator(traced.function, tuned_env).run()
            mfu_tuned, hbm_tuned = score(tuned_env)

            # GSPMD-- : input annotations only.
            minus_env = gspmd_partition(
                traced.function, mesh, _input_annotations(traced, ours.env)
            )
            mfu_minus, hbm_minus = score(minus_env)

            rows.append((
                label, cfg.name,
                f"{mfu_partir:.1f}", f"{mfu_tuned:.1f}", f"{mfu_minus:.1f}",
                f"{hbm_partir:.2f}", f"{hbm_tuned:.2f}", f"{hbm_minus:.2f}",
                f"{paper[0]}/{paper[1]}",
            ))

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "Table 2: MFU % (higher better) and HBM GB (lower better)",
        ["mesh", "model", "MFU PartIR", "MFU GSPMD", "MFU GSPMD--",
         "HBM PartIR", "HBM GSPMD", "HBM GSPMD--", "paper MFU P/G"],
        rows,
    )
    for row in rows:
        mfu_p, mfu_tuned, mfu_minus = (float(row[i]) for i in (2, 3, 4))
        # Parity with tuned GSPMD (the paper reports +-1%).
        assert abs(mfu_p - mfu_tuned) <= 1.0
        assert float(row[6]) <= 1.05 * float(row[5])
        # The untuned baseline never beats PartIR.
        assert mfu_minus <= mfu_p + 1.0
        # Sanity: MFU in a plausible band.
        assert 5.0 <= mfu_p <= 95.0
