"""Functional NN layers and the Adam optimizer."""

from repro.nn.layers import (
    causal_mask_bias,
    init_from_spec,
    layer_norm,
    linear,
    linear_spec,
    mlp,
    rms_norm,
    softmax_cross_entropy,
)
from repro.nn.optimizer import adam_state_spec, adam_update, trace_adam_step

__all__ = [
    "causal_mask_bias",
    "init_from_spec",
    "layer_norm",
    "linear",
    "linear_spec",
    "mlp",
    "rms_norm",
    "softmax_cross_entropy",
    "adam_state_spec",
    "adam_update",
    "trace_adam_step",
]
