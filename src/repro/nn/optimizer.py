"""Adam optimizer (Kingma & Ba), traced into the training-step module.

The paper's benchmark models train with Adam (Section 7.1); the optimizer
update is part of the partitioned program, which is how ZeRO-style optimizer
sharding manifests as collectives (reduce_scatter on gradients, all_gather
on updated parameters).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.trace import ops, pytree, trace, value_and_grad
from repro.trace.tracer import TracedFunction


def adam_state_spec(param_spec) -> Dict[str, Any]:
    """Optimizer state spec: first/second moments shaped like the params."""
    return {
        "m": pytree.tree_map(lambda s: s, param_spec),
        "v": pytree.tree_map(lambda s: s, param_spec),
    }


def adam_update(
    params,
    grads,
    opt_state,
    learning_rate: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> Tuple[Any, Dict[str, Any]]:
    """One Adam step; returns (new_params, new_opt_state).

    Bias correction uses fixed constants (a traced module has no step
    counter); this does not change the communication structure.
    """

    def update_m(m, g):
        return m * beta1 + g * (1.0 - beta1)

    def update_v(v, g):
        return v * beta2 + (g * g) * (1.0 - beta2)

    new_m = pytree.tree_map(update_m, opt_state["m"], grads)
    new_v = pytree.tree_map(update_v, opt_state["v"], grads)

    def update_param(p, m, v):
        return p - learning_rate * m / (ops.sqrt(v) + eps)

    new_params = pytree.tree_map(update_param, params, new_m, new_v)
    return new_params, {"m": new_m, "v": new_v}


def trace_adam_step(loss_fn: Callable, param_spec, batch_spec,
                    name: str) -> TracedFunction:
    """Trace one training step: ``loss_fn(params, batch)`` and its
    gradients, then one Adam update — the step every model family
    trains with, traced over ``{"params", "opt_state"}`` and the batch."""

    def step(state, batch):
        loss, grads = value_and_grad(
            lambda p: loss_fn(p, batch))(state["params"])
        new_params, new_opt = adam_update(state["params"], grads,
                                          state["opt_state"])
        return {"loss": loss, "params": new_params, "opt_state": new_opt}

    return trace(
        step,
        {"params": param_spec, "opt_state": adam_state_spec(param_spec)},
        batch_spec,
        name=name,
    )
