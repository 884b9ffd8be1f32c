"""An interior-bottleneck ensemble: the widened action space's showcase.

The model broadcasts a small batch of examples across an *ensemble* width
``K`` created mid-function (a ``broadcast_in_dim`` size-1 expansion) and
runs the heavy compute — two matmuls per member — at that width before
reducing the members back down:

.. code-block:: text

    x:[B, d] --reshape--> [B, 1, d] --broadcast--> [B, K, d]
      --@ w1--> [B, K, f] --gelu--> --@ w2--> [B, K, d] --sum over K--> [B, d]

The interesting structural property: **the K dimension exists on no
function input.**  A size-1 broadcast expansion is a free factor (the
operand stays replicated), so no amount of input tiling can ever shard K —
propagation has no evidence path to it.  With the batch ``B`` chosen
smaller than the mesh axes, input-only schedules are stuck between
replicated compute and weight-sharded (Megatron-style) schedules whose
per-matmul collectives move ``[B, K, f]``-sized activations.  A
mid-function ``TILE_TAGGED`` action on the matmul outputs' K dimension, by
contrast, parallelizes the whole interior compute with communication only
at the final member reduction — a strictly cheaper schedule, reachable
*only* through tag-point actions.  This is the "interior bottleneck"
Fig 11's tag-point leg searches.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.nn import trace_adam_step
from repro.trace import ShapeDtype, ops, trace
from repro.trace.tracer import TracedFunction, broadcast_to


@dataclasses.dataclass(frozen=True)
class BottleneckConfig:
    """Shapes chosen so the mesh axes divide K and the feature dims but
    not the (deliberately small) batch."""

    name: str = "ensemble"
    batch: int = 2
    width: int = 32  # K: the interior ensemble width
    d_model: int = 64
    ffw_dim: int = 64


def ensemble(**overrides) -> BottleneckConfig:
    return BottleneckConfig(**overrides)


def param_spec(cfg: BottleneckConfig) -> Dict[str, ShapeDtype]:
    return {
        "w1": ShapeDtype((cfg.d_model, cfg.ffw_dim)),
        "w2": ShapeDtype((cfg.ffw_dim, cfg.d_model)),
    }


def forward(cfg: BottleneckConfig, params, x):
    """``x``: [B, d] -> [B, d] after the member reduction.

    The member head is nonlinear (GELU) *before* the K reduction: a
    pending ``#sum`` from a contracting-dimension input sharding cannot
    defer through it, so such schedules materialize a full ``[B, K, d]``
    all_reduce mid-function — while a K-sharded schedule stays local up to
    the final ``[B, d]`` member mean.
    """
    b, k, d = cfg.batch, cfg.width, cfg.d_model
    h = broadcast_to(x.reshape(b, 1, d), (b, k, d))  # K born mid-function
    h = ops.gelu(h @ params["w1"])  # [B, K, f]
    h = ops.gelu(h @ params["w2"])  # [B, K, d]: nonlinear member head
    return ops.reduce_sum(h, axis=1) * (1.0 / k)  # member mean: [B, d]


def loss_fn(cfg: BottleneckConfig, params, x):
    out = forward(cfg, params, x)
    return ops.reduce_sum(out * out) * (1.0 / (cfg.batch * cfg.d_model))


def trace_forward(cfg: BottleneckConfig) -> TracedFunction:
    """Trace the serving pass alone.

    This is the clean interior-bottleneck benchmark: the only cross-member
    communication a K-sharded schedule ever needs is the final member
    reduction of a ``[B, d]`` tensor, while every input-only schedule
    either replicates the member compute or moves ``[B, K, *]``-sized
    activations per matmul.  (The training step adds the data-parallel
    weight-gradient reduction to the K-sharded schedule, which narrows —
    but does not change the direction of — the gap.)
    """
    pspec = param_spec(cfg)

    def serve(params, x):
        return forward(cfg, params, x)

    return trace(serve, pspec, ShapeDtype((cfg.batch, cfg.d_model)),
                 name=cfg.name + "_serve")


def trace_training_step(cfg: BottleneckConfig) -> TracedFunction:
    """One training step (forward + backward + Adam), like the paper's
    benchmark models — the backward pass doubles the interior matmuls, so
    the bottleneck dominates end to end."""
    return trace_adam_step(lambda p, x: loss_fn(cfg, p, x), param_spec(cfg),
                           ShapeDtype((cfg.batch, cfg.d_model)), cfg.name)
