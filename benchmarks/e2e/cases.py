"""The input programs of the end-to-end benchmark.

A case is ``<model>.<schedule>``: a fresh trace of one model, a mesh and
a schedule of tactics.  Only the public surface is used (``repro.trace``,
the tactic classes, ``Mesh``, ``repro.models.*``); why each case is here
is recorded in METRICS.md.  Cases that are too big to execute on the
simulated mesh name a small *twin* that is compiled with the same
schedule for the numerical check.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from repro import (
    AutomaticPartition,
    ManualPartition,
    Mesh,
    ShapeDtype,
    trace,
)
from repro.models import bottleneck, gns, transformer, unet
from repro.models import pipeline as pm
from repro.models import schedules as sched
from repro.trace import ops

SEARCH_BUDGET = 24
#: Pinned: the driver takes each metric's spread over runs with different
#: ``--seed`` values, and a seed-dependent search moved both the plans
#: (``plan_step_time_s`` spread 0.33 on ``served_stream``) and the work
#: timed.  ``--seed`` feeds the stream shuffle, the clone tag names and
#: the verification inputs.
SEARCH_SEED = 0

MANUAL_MESH = Mesh({"batch": 16, "model": 2})
AUTO_MESH = Mesh({"batch": 4, "model": 2})


@dataclasses.dataclass(frozen=True)
class Case:
    id: str
    build: Callable[[], object]
    mesh: Mesh
    #: ``schedule(**auto_kwargs)`` -> fresh list of tactics; the keywords
    #: reach every AutomaticPartition (``cache_dir=``).
    schedule: Callable[..., List[object]]
    estimate_per_tactic: bool = True
    #: Small executable stand-in (None: the case itself is executed).
    twin: Optional["Case"] = None
    #: Integer inputs are drawn from ``[0, int_high)``.
    int_high: int = 2


def _auto(axes, **auto_kwargs):
    return AutomaticPartition(
        list(axes), {"budget": SEARCH_BUDGET, "seed": SEARCH_SEED},
        search_backend="serial", **auto_kwargs)


def _auto_case(case_id, build, prefix=(), axes=("batch", "model"),
               **fields) -> Case:
    def schedule(**auto_kwargs):
        return [make() for make in prefix] + [_auto(axes, **auto_kwargs)]

    return Case(case_id, build, AUTO_MESH, schedule,
                estimate_per_tactic=False, **fields)


# -- paper-scale configurations (Section 7.1 shapes) ---------------------------

T32X8 = transformer.t32(num_layers=8, d_model=4096, num_heads=32,
                        d_head=128, ffw_dim=16384, vocab=32768,
                        seq_len=512, batch=48)
IT32X8 = transformer.it32(num_layers=8, d_model=4096, num_heads=32,
                          d_head=128, ffw_dim=16384, vocab=32768, batch=48,
                          decode_steps=64)
UNET = unet.unet(num_down=9, num_up=12, channels=128, in_channels=4,
                 image_size=64, batch=32, attention_heads=16, temb_dim=128)
GNS = gns.gns(num_nodes=2048, num_edges=16384, feature_dim=64,
              latent_dim=512, mlp_layers=5, message_steps=24, out_dim=64)
PIPE8 = pm.pipe8(d_model=256, ffw_dim=1024, batch=512, num_microbatches=8)
#: The ROADMAP's cold-search configuration (2,277 ops).
T4 = transformer.t32(num_layers=4, d_model=256, num_heads=4, d_head=64,
                     ffw_dim=1024, vocab=1024, seq_len=64, batch=16)

T_TINY = transformer.tiny()
#: The executable twin of the T4 searches: one layer keeps its own
#: search (same schedule, same options) near a second.
T_TINY1 = transformer.tiny(num_layers=1)
UNET_DATA = {"image": 0, "timestep": 0, "noise": 0}
TOKENS = {"tokens": 0, "targets": 0}


def _transformer_case(prefix, cfg, name, training, mesh, twin=None) -> Case:
    build = (transformer.trace_training_step if training
             else transformer.trace_inference)
    return Case(
        f"{prefix}.{name.lower().replace('+', '-')}",
        lambda: build(cfg), mesh,
        lambda **_: sched.transformer_schedules(cfg, training)[name],
        twin=twin, int_high=cfg.vocab)


def _unet_bp_z3(**_):
    return [sched.bp(UNET_DATA), sched.zero3(all_tensors=True)]


def _pipe_pp_mp(**_):
    return [sched.pp("stage"),
            ManualPartition({"up_w": 1, "down_w": 0}, axis="model",
                            name="MP")]


def manual_cases() -> List[Case]:
    cases = [
        _transformer_case(
            "t32x8", T32X8, name, True, MANUAL_MESH,
            twin=_transformer_case("tiny", T_TINY, name, True, AUTO_MESH))
        for name in ("BP", "BP+MP", "BP+MP+Z3", "BP+MP+Z3+EMB")
    ]
    cases.append(Case(
        "unet.bp-z3", lambda: unet.trace_training_step(UNET), MANUAL_MESH,
        _unet_bp_z3,
        twin=Case("unet_tiny.bp-z3",
                  lambda: unet.trace_training_step(unet.tiny()), AUTO_MESH,
                  _unet_bp_z3)))
    cases.append(_transformer_case(
        "it32x8", IT32X8, "BP+MP", False, MANUAL_MESH,
        twin=_transformer_case("it_tiny", T_TINY, "BP+MP", False,
                               AUTO_MESH)))
    cases.append(Case(
        "gns.es", lambda: gns.trace_training_step(GNS),
        Mesh({"batch": 16}), lambda **_: [sched.edge_sharding()],
        twin=Case("gns_tiny.es",
                  lambda: gns.trace_training_step(gns.tiny()),
                  Mesh({"batch": 4}),
                  lambda **_: [sched.edge_sharding()],
                  int_high=gns.tiny().num_nodes)))
    cases.append(Case(
        "pipe8.pp-mp", lambda: pm.trace_pipeline_transformer(PIPE8),
        Mesh({"stage": 4, "model": 2}), _pipe_pp_mp))
    return cases


def auto_cases() -> List[Case]:
    t4 = lambda: transformer.trace_training_step(T4)  # noqa: E731
    tiny = lambda: transformer.trace_training_step(T_TINY1)  # noqa: E731
    bp = lambda: sched.bp(TOKENS)  # noqa: E731
    return [
        _auto_case("t4.auto", t4, int_high=T4.vocab,
                   twin=_auto_case("tiny.auto", tiny,
                                   int_high=T_TINY1.vocab)),
        _auto_case("t4.bp-auto", t4, prefix=(bp,), axes=("model",),
                   int_high=T4.vocab,
                   twin=_auto_case("tiny.bp-auto", tiny, prefix=(bp,),
                                   axes=("model",), int_high=T_TINY1.vocab)),
        _auto_case("unet_tiny.auto",
                   lambda: unet.trace_training_step(unet.tiny())),
        _auto_case("gns_tiny.auto",
                   lambda: gns.trace_training_step(gns.tiny()),
                   int_high=gns.tiny().num_nodes),
        _auto_case("pipe_tiny.auto",
                   lambda: pm.trace_pipeline_transformer(pm.tiny())),
        # Eight experts divide every axis product of the mesh; with two or
        # four the search raises ShardingError on this tree (METRICS.md).
        _auto_case("moe_tiny8.auto",
                   lambda: pm.trace_pipeline_moe(
                       pm.tiny(batch=16, num_experts=8))),
        _auto_case("bottleneck.auto",
                   lambda: bottleneck.trace_training_step(
                       bottleneck.ensemble())),
    ]


# -- the MLP clone family (relaxed-tier traffic for served_stream) -------------

MLP_WIDTHS = (8, 16, 32)
MLP_ORDERS = (("x", "w1", "w2"), ("w2", "x", "w1"), ("w1", "w2", "x"))


def mlp_clone(width: int, order, tag: str) -> Case:
    """``tag(x @ w1) @ w2`` traced with its inputs in ``order`` and its
    hidden activation named ``tag``: every order and every tag name is
    the same partitioning problem under another spelling."""
    specs = {"x": ShapeDtype((64, width)),
             "w1": ShapeDtype((width, 2 * width)),
             "w2": ShapeDtype((2 * width, width))}

    def build():
        def fn(*args):
            named = dict(zip(order, args))
            return ops.tag(named["x"] @ named["w1"], tag) @ named["w2"]

        return trace(fn, *(specs[name] for name in order))

    return _auto_case(f"mlp{width}.{'-'.join(order)}", build)


SMOKE_MANUAL = ("pipe8.pp-mp",)
SMOKE_AUTO = ("pipe_tiny.auto", "bottleneck.auto")
#: The searches that are too dear to repeat in every run's set-up: the
#: warm and served workloads leave them to ``auto_cold``.
COLD_ONLY = ("t4.bp-auto", "unet_tiny.auto")
