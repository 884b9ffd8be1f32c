"""Figure 11: automatic partitioning search time.

The paper shows search time growing with the number of mesh axes (more
decisions), and search cost dominated by cheap cost-model evaluations.  We
time the MCTS on one and two axes for UNet and GNS with a fixed simulation
budget, and check the search's one evaluation path (undo-log env +
propagation-delta replay + signature-memoized streaming estimator) against
the from-scratch reference (``tests/oracle.py::reference_cost``: fresh
env, one full-sweep ``propagate`` per action, ``lower`` — which emits
its collectives fused — + ``costmodel.estimate``): every cost the search
stored in its transposition table must equal the reference's bit for bit
(purity), and the search's per-evaluation evaluator wall-clock must be
>= 2x lower than the reference's per-key wall-clock (speed; aggregated
across the cases).

A second section exercises the **backend axis** on a transformer training
step: the same fixed-seed search through the ``serial``, ``batched`` and
``process`` rollout schedulers.  All backends must report identical best
actions/cost; on a machine with a core per worker *and* one for the main
process the ``process`` backend (default 2 workers) must also beat
``serial`` wall-clock — evaluation purity makes the fan-out exact, so the
speedup is free.  With fewer cores than that the workers time-share with
the main process and the two read parity (<= 1.12x measured on 2 cores),
so the gate only rejects a regression: ``process < 1.25 x serial``.
Backends and the worker count are overridable via
``BENCH_SEARCH_BACKENDS`` (comma list) and ``BENCH_SEARCH_WORKERS`` for CI
matrix legs.

A third section exercises the **tag-point actions** (mid-function
``TileTagged``/``SumTagged`` actions at the tracer's auto-emitted tag
points) on the interior-bottleneck ensemble
(:mod:`repro.models.bottleneck`) — a model whose ensemble width K exists
on *no* function input, so input tilings either replicate the member
compute or pay mid-function ``[B, K, *]`` collectives.  The fixed-seed
search must put a mid-function action in the winning set, with
identical best actions/cost across all schedulers, and a same-config
second call (``cache_dir``) must be a *replay*: zero evaluations, the
cold call's actions and cost.

A fourth section exercises the **pruning axis** (PR 8) on the same
ensemble: (a) the *identity leg* — at a budget large enough for both
spaces to locate the optimum, the equivalence condenser must cut the
candidate actions by >= 30% while leaving the fixed-seed best
actions/cost byte-identical to the unpruned space; (b) the *warm
condenser leg* — reruns at other seeds from one teacher search's
``cache_dir`` must not re-run a single probe, and their amortized
(signature-lookup-only) pre-pass must cost < 10% of a single rollout's
evaluator wall-clock; and (c) the *exact-solver smoke leg* — on a small
model the branch-and-bound oracle terminates and the default-budget MCTS
matches its certified optimum exactly.

Each run also reports the propagate-vs-estimate wall-clock split, keeping
the "next hottest path" claim measurable, and the whole table is dumped to
``BENCH_fig11.json``.
"""

import os
import shutil
import tempfile
import time

import pytest

from repro.auto.cache import table_for
from repro.auto.search import mcts_search
from repro.core.sharding import ShardingEnv
from repro.mesh import Mesh
from repro.models import bottleneck as bottleneck_mod
from repro.models import gns as gns_mod
from repro.models import transformer
from repro.models import unet as unet_mod
from repro.sim import TPU_V3
from benchmarks.common import (gns_paper, print_table, search_backend_matrix,
                               unet_paper, write_bench_json)
from tests.oracle import reference_cost

MESH = Mesh({"batch": 8, "model": 4})

BACKENDS, WORKERS = search_backend_matrix()


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def test_fig11(benchmark):
    rows = []
    records = []
    evaluation_totals = {"fast": 0.0, "reference": 0.0}

    def run_all():
        cases = [
            ("UNet", unet_mod.trace_training_step(
                unet_paper(num_down=3, num_up=3))),
            ("GNS", gns_mod.trace_training_step(
                gns_paper(message_steps=4))),
        ]
        for label, traced in cases:
            timings = {}
            for axes in (["batch"], ["batch", "model"]):
                with tempfile.TemporaryDirectory() as cache_dir:
                    t0 = time.perf_counter()
                    result = mcts_search(
                        traced.function, ShardingEnv(MESH), axes,
                        device=TPU_V3, budget=8, rollout_depth=2,
                        max_inputs=12, cache_dir=cache_dir,
                    )
                    elapsed = time.perf_counter() - t0
                    scored = dict(table_for(
                        cache_dir, traced.function, MESH, TPU_V3,
                        ShardingEnv(MESH))._costs)
                timings[len(axes)] = elapsed
                # Purity: everything the fast path scored is what the
                # from-scratch reference pipeline prices.
                assert scored[tuple(result.actions)] == result.cost
                t0 = time.perf_counter()
                for key, cost in scored.items():
                    assert cost == reference_cost(
                        traced.function, MESH, key, TPU_V3), (label, key)
                reference_s = time.perf_counter() - t0
                fast_s = result.propagate_time_s + result.estimate_time_s
                evaluation_totals["fast"] += fast_s / result.evaluations
                evaluation_totals["reference"] += reference_s / len(scored)
                rows.append((
                    label, "+".join(axes), "search", f"{elapsed:.2f}s",
                    f"{result.propagate_time_s:.2f}s",
                    f"{result.estimate_time_s:.2f}s",
                    result.evaluations, result.cache_hits,
                    result.estimate_ops_reused, result.ops_processed,
                    len(result.actions),
                ))
                records.append({
                    "model": label, "axes": axes,
                    "wall_clock_s": elapsed,
                    "propagate_time_s": result.propagate_time_s,
                    "estimate_time_s": result.estimate_time_s,
                    "per_evaluation_s": fast_s / result.evaluations,
                    "reference_per_key_s": reference_s / len(scored),
                    "keys_checked": len(scored),
                    "evaluations": result.evaluations,
                    "cache_hits": result.cache_hits,
                    "estimate_ops_reused": result.estimate_ops_reused,
                    "propagate_calls": result.propagate_calls,
                    "ops_processed": result.ops_processed,
                    "best_cost": result.cost,
                    "best_actions": [list(a) for a in result.actions],
                })
            # More axes should not be cheaper to search than one axis.
            assert timings[2] >= 0.5 * timings[1]

        # -- backend axis: serial vs batched vs process on a transformer --
        tcfg = transformer.t32(num_layers=8, d_model=512, num_heads=8,
                               d_head=64, ffw_dim=2048, vocab=4096,
                               seq_len=128, batch=16)
        ttraced = transformer.trace_training_step(tcfg)
        backend_runs = {}
        for backend in BACKENDS:
            env = ShardingEnv(MESH)
            t0 = time.perf_counter()
            # Budget sized so per-wave evaluation work dwarfs the process
            # backend's fixed costs (worker fork, per-worker cache priming,
            # per-wave IPC) — keeps the wall-clock gate below well clear of
            # scheduling noise on small shared CI runners.
            result = mcts_search(
                ttraced.function, env, ["batch", "model"], device=TPU_V3,
                budget=32, rollout_depth=2, max_inputs=12, seed=0,
                backend=backend, workers=WORKERS,
            )
            elapsed = time.perf_counter() - t0
            backend_runs[backend] = (result, elapsed)
            rows.append((
                "T8", "batch+model", f"backend:{backend}",
                f"{elapsed:.2f}s", f"{result.propagate_time_s:.2f}s",
                f"{result.estimate_time_s:.2f}s", result.evaluations,
                result.cache_hits,
                result.estimate_ops_reused, result.ops_processed,
                len(result.actions),
            ))
            records.append({
                "model": "T8", "axes": ["batch", "model"],
                "backend": backend,
                "workers": WORKERS if backend == "process" else 1,
                "wall_clock_s": elapsed,
                "propagate_time_s": result.propagate_time_s,
                "estimate_time_s": result.estimate_time_s,
                "evaluations": result.evaluations,
                "cache_hits": result.cache_hits,
                "reconcile_chain_hits": result.reconcile_chain_hits,
                "best_cost": result.cost,
                "best_actions": [list(a) for a in result.actions],
            })
        reference = backend_runs[BACKENDS[0]][0]
        for backend, (result, _) in backend_runs.items():
            # Pinned regression property on this config: evaluation purity
            # plus the deterministic tie-break keep every scheduler on the
            # same best schedule (parallel waves do explore different
            # rollout sets, so a divergence here means the config's search
            # landscape shifted — inspect before relaxing).
            assert result.actions == reference.actions, backend
            assert result.cost == reference.cost, backend
        if "serial" in backend_runs and "process" in backend_runs:
            serial_s = backend_runs["serial"][1]
            process_s = backend_runs["process"][1]
            records.append({
                "model": "T8", "comparison": "process_vs_serial",
                "serial_wall_clock_s": serial_s,
                "process_wall_clock_s": process_s,
                "process_over_serial": process_s / serial_s,
                "usable_cores": _usable_cores(),
            })
            # A core per worker plus one for the main process: the process
            # backend must beat serial wall-clock on this config (workers
            # evaluate waves concurrently; purity keeps the result
            # unchanged).  With fewer cores the workers time-share with
            # the main process and the two read parity (<= 1.12x on 2
            # cores), so only a regression is rejected (the shared memo
            # PR 16 deleted cost 1.29x).
            limit = 1.0 if _usable_cores() >= WORKERS + 1 else 1.25
            assert process_s < limit * serial_s, (
                f"process backend {process_s:.2f}s not under {limit:g}x "
                f"serial {serial_s:.2f}s on {_usable_cores()} cores with "
                f"{WORKERS} workers"
            )
        # -- tag-point actions on the interior-bottleneck ensemble --
        bcfg = bottleneck_mod.ensemble(batch=2, width=64, d_model=1024,
                                       ffw_dim=4096)
        btraced = bottleneck_mod.trace_forward(bcfg)
        space_kwargs = dict(device=TPU_V3, budget=48, rollout_depth=3,
                            max_inputs=12, seed=0)
        env = ShardingEnv(MESH)
        t0 = time.perf_counter()
        tagged_run = mcts_search(btraced.function, env, ["batch", "model"],
                                 **space_kwargs)
        elapsed = time.perf_counter() - t0
        rows.append((
            "Ensemble", "batch+model", "tag points",
            f"{elapsed:.2f}s", f"{tagged_run.propagate_time_s:.2f}s",
            f"{tagged_run.estimate_time_s:.2f}s", tagged_run.evaluations,
            tagged_run.cache_hits,
            tagged_run.estimate_ops_reused, tagged_run.ops_processed,
            len(tagged_run.actions),
        ))
        records.append({
            "model": "Ensemble", "axes": ["batch", "model"],
            "wall_clock_s": elapsed,
            "evaluations": tagged_run.evaluations,
            "best_cost": tagged_run.cost,
            "best_actions": [list(a) for a in tagged_run.actions],
        })
        # The interior bottleneck (ensemble width K) is unreachable from
        # any function input: the winner must use a mid-function action.
        assert any(action[0] != 0 for action in tagged_run.actions), (
            "ensemble winner contains no mid-function action"
        )
        # Tag-point actions ride every backend unchanged: identical best
        # actions/cost across all schedulers.  (tagged_run already IS the
        # serial leg — only the other legs need recomputing.)
        for backend in BACKENDS:
            if backend == "serial":
                continue
            env = ShardingEnv(MESH)
            result = mcts_search(btraced.function, env, ["batch", "model"],
                                 backend=backend, workers=WORKERS,
                                 **space_kwargs)
            assert result.actions == tagged_run.actions, backend
            assert result.cost == tagged_run.cost, backend
        # Warm start is replay: the tree is a pure function of
        # (candidates, seed), so a same-config second call regenerates the
        # cold call's rollouts and serves every one from the log.
        with tempfile.TemporaryDirectory() as cache_dir:
            env = ShardingEnv(MESH)
            cold = mcts_search(btraced.function, env, ["batch", "model"],
                               cache_dir=cache_dir, **space_kwargs)
            env = ShardingEnv(MESH)
            t0 = time.perf_counter()
            warm = mcts_search(btraced.function, env, ["batch", "model"],
                               cache_dir=cache_dir, **space_kwargs)
            warm_s = time.perf_counter() - t0
        assert warm.evaluations == 0, (
            f"same-config rerun computed {warm.evaluations} evaluations"
        )
        assert warm.actions == cold.actions
        assert warm.cost == cold.cost
        records.append({
            "model": "Ensemble", "comparison": "warm_replay",
            "cold_best_cost": cold.cost, "warm_best_cost": warm.cost,
            "warm_evaluations": warm.evaluations,
            "warm_cache_hits": warm.warm_cache_hits,
            "warm_wall_clock_s": warm_s,
        })

        # -- pruning axis: condensed action space --
        # Identity leg: at a budget big enough for both spaces to locate
        # the optimum, condensing is invisible (byte-identical best
        # actions/cost at a fixed seed) while cutting >= 30% of the
        # candidate actions, and the one-probe-per-candidate pre-pass
        # stays under 10% of a single rollout's evaluator wall-clock.
        for seed in (2, 6):
            identity_runs = {}
            for prune in (True, False):
                env = ShardingEnv(MESH)
                t0 = time.perf_counter()
                result = mcts_search(
                    btraced.function, env, ["batch", "model"],
                    device=TPU_V3, budget=96, rollout_depth=3,
                    max_inputs=12, seed=seed, prune=prune)
                elapsed = time.perf_counter() - t0
                identity_runs[prune] = result
                rows.append((
                    "Ensemble", "batch+model",
                    f"prune:{'on' if prune else 'off'} s{seed}",
                    f"{elapsed:.2f}s", f"{result.propagate_time_s:.2f}s",
                    f"{result.estimate_time_s:.2f}s", result.evaluations,
                    result.cache_hits,
                    result.estimate_ops_reused, result.ops_processed,
                    len(result.actions),
                ))
            pruned_run, full_run = identity_runs[True], identity_runs[False]
            assert pruned_run.actions == full_run.actions, seed
            assert pruned_run.cost == full_run.cost, seed
            cut = 1 - pruned_run.candidates_kept / pruned_run.candidates_total
            assert cut >= 0.30, (
                f"condenser cut only {cut:.0%} of "
                f"{pruned_run.candidates_total} candidates at seed {seed}"
            )
            per_rollout = (
                pruned_run.propagate_time_s + pruned_run.estimate_time_s
            ) / max(pruned_run.evaluations, 1)
            records.append({
                "model": "Ensemble", "comparison": "prune_identity",
                "seed": seed, "best_cost": pruned_run.cost,
                "candidates_total": pruned_run.candidates_total,
                "candidates_kept": pruned_run.candidates_kept,
                "cut_fraction": cut,
                "prune_time_s": pruned_run.prune_time_s,
                "per_rollout_evaluator_s": per_rollout,
            })
        # Warm condenser leg: a teacher search persists its probe
        # signatures ("pa" records) beside its costs.  Reruns from a copy
        # of its cache_dir at other seeds (so they still evaluate) re-run
        # zero probes.
        with tempfile.TemporaryDirectory() as scratch:
            teacher_dir = os.path.join(scratch, "teacher")
            env = ShardingEnv(MESH)
            mcts_search(btraced.function, env, ["batch", "model"],
                        device=TPU_V3, budget=48, rollout_depth=3,
                        max_inputs=12, seed=0, cache_dir=teacher_dir)
            condense_records = []
            for seed in range(1, 6):
                # Fresh copy per seed: warm runs append cost records.
                warm_dir = os.path.join(scratch, f"warm{seed}")
                shutil.copytree(teacher_dir, warm_dir)
                env = ShardingEnv(MESH)
                warm = mcts_search(btraced.function, env,
                                   ["batch", "model"], device=TPU_V3,
                                   budget=24, rollout_depth=3,
                                   max_inputs=12, seed=seed,
                                   cache_dir=warm_dir)
                assert warm.evaluations > 0, seed
                assert warm.prune_probes == 0, seed
                assert warm.prune_probes_reused == warm.candidates_total, seed
                condense_records.append({
                    "seed": seed, "evaluations": warm.evaluations,
                    "prune_time_s": warm.prune_time_s,
                    "evaluator_s": (warm.propagate_time_s
                                    + warm.estimate_time_s),
                })
            # Amortized pre-pass overhead: with the persisted equivalence
            # classes, warm condensing (signature lookups only — zero
            # probes) costs well under 10% of a single rollout's evaluator
            # wall-clock.  (The cold pre-pass above pays ~one propagated
            # extension per candidate, i.e. a handful of rollouts' worth,
            # once per log.)  Both sides are sub-millisecond, so the gate
            # reads the means over the five reruns, not each one.
            prepass = sum(r["prune_time_s"]
                          for r in condense_records) / len(condense_records)
            per_rollout = (
                sum(r["evaluator_s"] for r in condense_records)
                / sum(r["evaluations"] for r in condense_records))
            assert prepass < 0.10 * per_rollout, (
                f"warm pre-pass {prepass * 1e3:.3f}ms not under 10% of one "
                f"rollout's evaluator time ({per_rollout * 1e3:.3f}ms)"
            )
            records.append({
                "model": "Ensemble", "comparison": "warm_condense",
                "budget": 24, "probes_rerun": 0,
                "warm_prepass_s": prepass,
                "per_rollout_evaluator_s": per_rollout,
                "per_seed": condense_records,
            })

        # -- exact-solver smoke: MCTS matches the certified optimum --
        from repro import ShapeDtype, trace
        from repro.auto.exact import exact_search
        from repro.sim import DeviceSpec
        from repro.trace import ops as trace_ops
        tiny = DeviceSpec("tiny", peak_flops=1e9, hbm_bytes=200_000,
                          link_bandwidth=1e9)
        small_mesh = Mesh({"B": 4, "M": 2})
        straced = trace(lambda w, x: trace_ops.reduce_sum(x @ w),
                        ShapeDtype((64, 64)), ShapeDtype((32, 64)))
        t0 = time.perf_counter()
        oracle = exact_search(straced.function, ShardingEnv(small_mesh),
                              ["B", "M"], device=tiny)
        oracle_s = time.perf_counter() - t0
        env = ShardingEnv(small_mesh)
        found = mcts_search(straced.function, env, ["B", "M"], device=tiny,
                            budget=24, rollout_depth=2, seed=7)
        assert oracle.nodes > 1
        assert found.cost == oracle.cost, (
            f"default-budget MCTS {found.cost:.3e} missed the certified "
            f"optimum {oracle.cost:.3e}"
        )
        records.append({
            "model": "MatmulSum", "comparison": "exact_oracle",
            "exact_cost": oracle.cost, "mcts_cost": found.cost,
            "exact_nodes": oracle.nodes,
            "exact_bound_pruned": oracle.bound_pruned,
            "exact_wall_clock_s": oracle_s,
        })

        # The search's evaluation path costs at least 2x less wall-clock
        # per evaluation than the from-scratch reference per key.  Asserted
        # on the aggregate across all cases: aggregating keeps a noisy
        # shared CI runner from flaking the gate on the weakest case.
        assert (evaluation_totals["reference"]
                >= 2.0 * evaluation_totals["fast"]), (
            f"fast path {evaluation_totals['fast']:.3f}s per evaluation "
            f"not 2x faster than the reference pipeline's "
            f"{evaluation_totals['reference']:.3f}s"
        )

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "Figure 11: automatic partitioning search time grows with #axes "
        "(paper: up to ~1250s at full scale; budget-scaled here); "
        "every cost the search stored equals the from-scratch reference "
        "pipeline's at >=2x lower per-evaluation wall-clock, the "
        "serial/batched/process rollout backends agree on the best "
        "schedule (process beating serial wall-clock given a core per "
        "worker plus one, under 1.25x of it otherwise), "
        "and the interior-bottleneck ensemble's winner uses a tag-point "
        "action (identical across backends; a same-config second call from "
        "cache_dir replays it at zero evaluations); the "
        "equivalence condenser cuts >=30% of candidate actions with "
        "byte-identical fixed-seed results, reruns at other seeds from "
        "a teacher's cache_dir re-run zero probes (warm pre-pass <10% "
        "of one rollout's evaluator time), and default-budget MCTS "
        "matches the branch-and-bound oracle's certified optimum",
        ["model", "axes", "mode", "search", "propagate", "estimate",
         "evals", "tt hits", "segments reused", "ops processed",
         "actions"],
        rows,
    )
    write_bench_json("fig11", {"mesh": dict(MESH.axes), "runs": records})
