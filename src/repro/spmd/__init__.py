"""PartIR:HLO / SPMD: mesh-axis collectives and device-local lowering
(collectives fused as they are emitted)."""

from repro.spmd import collectives  # registers collective ops
from repro.spmd.collectives import COLLECTIVE_OPS, is_collective
from repro.spmd.count import (CollectiveCounts, collective_sequence,
                              count_collectives)
from repro.spmd.lower import LoweredModule, lower

__all__ = [
    "collectives",
    "COLLECTIVE_OPS",
    "is_collective",
    "CollectiveCounts",
    "collective_sequence",
    "count_collectives",
    "LoweredModule",
    "lower",
]
