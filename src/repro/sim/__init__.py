"""Analytical performance simulator: device specs, cost model, memory."""

from repro.sim.costmodel import (CostEstimate, StreamingEstimator, estimate,
                                 mfu, model_flops, search_objective)
from repro.sim.devices import A100_40GB, TPU_V3, DeviceSpec, get, register
from repro.sim.memory import LiveRangeLog, peak_live_bytes

__all__ = [
    "CostEstimate",
    "StreamingEstimator",
    "estimate",
    "LiveRangeLog",
    "mfu",
    "model_flops",
    "search_objective",
    "A100_40GB",
    "TPU_V3",
    "DeviceSpec",
    "get",
    "register",
    "peak_live_bytes",
]
