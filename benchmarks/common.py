"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's evaluation
(Section 7 / Appendix A).  Model *structure* matches the paper exactly where
it is specified (layer counts, tensors per block, serving-loop length);
tensor shapes are the paper's where given.  Absolute simulator numbers are
not calibrated to real TPUs (the paper makes the same disclaimer about its
own simulator); the reproduction targets are the collective counts and the
relative orderings.

Run with:  pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Dict, List, Optional, Sequence

from repro.core.sharding import ShardingEnv
from repro.mesh import Mesh
from repro.sim import TPU_V3, A100_40GB, costmodel
from repro.spmd import count_collectives, lower
from repro.models import gns, transformer, unet
from repro.models import schedules as sched


# -- paper-scale configurations ----------------------------------------------------

def t32_paper(**overrides):
    """T32 at the paper's published shape (Section 7.1)."""
    defaults = dict(num_layers=32, d_model=4096, num_heads=32, d_head=128,
                    ffw_dim=16384, vocab=32768, seq_len=512, batch=48)
    defaults.update(overrides)
    return transformer.t32(**defaults)


def t48_paper(**overrides):
    defaults = dict(num_layers=48, d_model=8192, num_heads=64, d_head=128,
                    ffw_dim=32768, vocab=32768, seq_len=512, batch=64)
    defaults.update(overrides)
    return transformer.t48(**defaults)


def it32_paper(**overrides):
    """IT32: serving loop of 1536 decode steps (matches the paper's
    98304 = 2 x 32 x 1536 all_reduce count under BP+MP)."""
    defaults = dict(num_layers=32, d_model=4096, num_heads=32, d_head=128,
                    ffw_dim=16384, vocab=32768, batch=48, decode_steps=1536)
    defaults.update(overrides)
    return transformer.it32(**defaults)


def unet_paper(**overrides):
    defaults = dict(num_down=9, num_up=12, channels=128, in_channels=4,
                    image_size=64, batch=32, attention_heads=16,
                    temb_dim=128)
    defaults.update(overrides)
    return unet.unet(**defaults)


def gns_paper(**overrides):
    defaults = dict(num_nodes=2048, num_edges=16384, feature_dim=64,
                    latent_dim=512, mlp_layers=5, message_steps=24,
                    out_dim=64)
    defaults.update(overrides)
    return gns.gns(**defaults)


# -- running schedules ---------------------------------------------------------------

@dataclasses.dataclass
class Run:
    name: str
    counts: object
    estimate: object
    lowered: object
    env: ShardingEnv
    # Wall-clock split: tactics+propagation vs lower vs estimate, so
    # "which phase is the next hottest path" stays directly measurable.
    partition_s: float
    lower_s: float
    estimate_s: float = 0.0
    # Propagation-engine counters (repro.core.sharding.PropagationStats).
    propagate_calls: int = 0
    ops_processed: int = 0


def run_schedule(traced, schedule, mesh, device=TPU_V3) -> Run:
    env = ShardingEnv(mesh)
    t0 = time.perf_counter()
    for tactic in schedule:
        tactic.apply(traced.function, env)
    partition_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    lowered = lower(traced.function, env)
    lower_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    estimate = costmodel.estimate(lowered, device)
    estimate_s = time.perf_counter() - t0
    return Run(
        name="+".join(t.name for t in schedule),
        counts=count_collectives(lowered.function),
        estimate=estimate,
        lowered=lowered,
        env=env,
        partition_s=partition_s,
        lower_s=lower_s,
        estimate_s=estimate_s,
        propagate_calls=env.stats.propagate_calls,
        ops_processed=env.stats.ops_processed,
    )


def search_backend_matrix():
    """Search backends + worker count for benchmarks, from the environment.

    ``BENCH_SEARCH_BACKENDS`` is a comma list (whitespace tolerated, e.g.
    ``"serial, process"``); ``BENCH_SEARCH_WORKERS`` sizes the process
    backend.  CI matrix legs use these to pick which schedulers a
    benchmark exercises.
    """
    backends = tuple(
        entry.strip()
        for entry in os.environ.get(
            "BENCH_SEARCH_BACKENDS", "serial,batched,process"
        ).split(",")
        if entry.strip()
    )
    workers = int(os.environ.get("BENCH_SEARCH_WORKERS", "2"))
    return backends, workers


def write_bench_json(name: str, payload: dict) -> str:
    """Write BENCH_<name>.json (machine-readable perf trajectory).

    Output lands in ``$BENCH_OUTPUT_DIR`` (default: current directory) so
    CI can upload the files as artifacts and downstream tooling can diff
    wall-clock / evaluation / cache-hit trends across commits.
    """
    out_dir = os.environ.get("BENCH_OUTPUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"\n[bench] wrote {path}")
    return path


def print_table(title: str, header: Sequence[str],
                rows: Sequence[Sequence[object]]) -> None:
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])),
            max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def fmt_counts(counts) -> str:
    d = counts.as_dict()
    return f"{d['AG']}/{d['AR']}/{d['RS']}/{d['A2A']}"
