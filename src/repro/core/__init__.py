"""PartIR:Core: sharding state, the tile-mapping registry, compiler actions
and the propagation pass."""

from repro.core.loopview import render_loop_view
from repro.core.actions import atomic, find_tagged, first_divisible_dim, tile
from repro.core.propagate import Propagator
from repro.core.opclass import rule_for
from repro.core.rules import OpShardingRule
from repro.core.sharding import Event, PropagationStats, Sharding, ShardingEnv

__all__ = [
    "render_loop_view",
    "atomic",
    "find_tagged",
    "first_divisible_dim",
    "tile",
    "Propagator",
    "OpShardingRule",
    "rule_for",
    "Event",
    "PropagationStats",
    "Sharding",
    "ShardingEnv",
]
