"""Graph Network Simulator (the paper's GNS benchmark, Section 7.1).

A jraph-style encode-process-decode graph network: node/edge encoders,
``message_steps`` rounds of message passing (edge update from sender/receiver
node features, node update from scatter-added incoming messages), a node
decoder, and a global feature aggregator.  Message-passing MLPs are
*unshared* across steps, as the paper's per-step collective accounting
implies.

Edge Sharding (ES) distributes the edge features and connectivity across
devices while replicating nodes; every edge->node aggregation is then a
partial sum requiring an all_reduce, and every edge-MLP parameter gradient
(contracting over edges) requires one too — the structure behind the paper's
GNS row of Table 3.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.ir import dtypes
from repro.nn import mlp, trace_adam_step
from repro.trace import ShapeDtype, ops
from repro.trace.tracer import TracedFunction


@dataclasses.dataclass(frozen=True)
class GNSConfig:
    name: str = "GNS"
    num_nodes: int = 64
    num_edges: int = 256
    feature_dim: int = 8
    latent_dim: int = 16
    mlp_layers: int = 5
    message_steps: int = 24
    out_dim: int = 4


def gns(**overrides) -> GNSConfig:
    return GNSConfig(**overrides)


def tiny(**overrides) -> GNSConfig:
    defaults = dict(name="tiny-gns", num_nodes=16, num_edges=32,
                    feature_dim=4, latent_dim=8, mlp_layers=2,
                    message_steps=2, out_dim=2)
    defaults.update(overrides)
    return GNSConfig(**defaults)


# -- parameter specs --------------------------------------------------------------

def _mlp_spec(d_in: int, d_hidden: int, d_out: int,
              layers: int) -> List[Dict[str, ShapeDtype]]:
    spec = []
    for i in range(layers):
        fan_in = d_in if i == 0 else d_hidden
        fan_out = d_out if i == layers - 1 else d_hidden
        spec.append({"w": ShapeDtype((fan_in, fan_out)),
                     "b": ShapeDtype((fan_out,))})
    return spec


def param_spec(cfg: GNSConfig) -> Dict[str, object]:
    lat = cfg.latent_dim
    spec: Dict[str, object] = {
        "node_encoder": _mlp_spec(cfg.feature_dim, lat, lat, 2),
        "edge_encoder": _mlp_spec(cfg.feature_dim, lat, lat, 2),
        "decoder": _mlp_spec(lat, lat, cfg.out_dim, 2),
        "global_agg": _mlp_spec(lat, lat, 1, 1),
    }
    for step in range(cfg.message_steps):
        spec[f"step_{step:02d}"] = {
            "edge_mlp": _mlp_spec(3 * lat, lat, lat, cfg.mlp_layers),
            "node_mlp": _mlp_spec(2 * lat, lat, lat, cfg.mlp_layers),
        }
    return spec


def num_param_tensors(cfg: GNSConfig) -> int:
    from repro.trace import pytree

    return len(pytree.tree_leaves(param_spec(cfg)))


# -- forward -----------------------------------------------------------------------

def forward(cfg: GNSConfig, params, nodes, edges, senders, receivers):
    lat = cfg.latent_dim
    n = mlp(params["node_encoder"], nodes, activation=ops.relu)
    e = mlp(params["edge_encoder"], edges, activation=ops.relu)
    for step in range(cfg.message_steps):
        step_params = params[f"step_{step:02d}"]
        sent = ops.take(n, senders)       # [E, lat]
        received = ops.take(n, receivers)
        edge_in = ops.concatenate([e, sent, received], axis=1)
        e = e + mlp(step_params["edge_mlp"], edge_in, activation=ops.relu)
        agg = ops.scatter_add(
            ops.zeros((cfg.num_nodes, lat)), receivers, e
        )
        node_in = ops.concatenate([n, agg], axis=1)
        n = n + mlp(step_params["node_mlp"], node_in, activation=ops.relu)
    pred = mlp(params["decoder"], n, activation=ops.relu)
    global_feature = mlp(params["global_agg"], n, activation=ops.relu)
    return pred, ops.mean(global_feature)


def loss_fn(cfg: GNSConfig, params, nodes, edges, senders, receivers,
            targets):
    pred, global_feature = forward(cfg, params, nodes, edges, senders,
                                   receivers)
    diff = pred - targets
    return ops.mean(diff * diff) + 0.01 * global_feature * global_feature


def trace_training_step(cfg: GNSConfig) -> TracedFunction:
    return trace_adam_step(
        lambda p, batch: loss_fn(cfg, p, batch["nodes"], batch["edges"],
                                 batch["senders"], batch["receivers"],
                                 batch["targets"]),
        param_spec(cfg),
        {
            "nodes": ShapeDtype((cfg.num_nodes, cfg.feature_dim)),
            "edges": ShapeDtype((cfg.num_edges, cfg.feature_dim)),
            "senders": ShapeDtype((cfg.num_edges,), dtypes.i32),
            "receivers": ShapeDtype((cfg.num_edges,), dtypes.i32),
            "targets": ShapeDtype((cfg.num_nodes, cfg.out_dim)),
        },
        name=cfg.name,
    )


def edge_sharding(axis: str = "batch"):
    """ES: shard edge features and connectivity (inputs 2, 3, 4)."""
    from repro.api import ManualPartition

    tactic = ManualPartition(
        {"edges": 0, "senders": 0, "receivers": 0}, axis=axis
    )
    tactic.name = "ES"
    return tactic
