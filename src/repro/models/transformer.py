"""Chinchilla-style transformer: the paper's T32 / T48 / IT32 benchmarks.

The parameter structure matches the paper's counting argument exactly:
**9 tensors per block** (fused qkv, attention out, mlp up/down weights and
biases, and three RMSNorm scales — the "additional normalization layer" of
Section 7.1) plus **one tied embedding**, so T32 has 9x32+1 = 289 parameter
tensors and batch parallelism introduces 290 all_reduces (one per gradient,
one for the loss).

Shapes are scaled down (the simulated mesh runs on CPU) but every structural
knob from the paper — layer count, head count, fused qkv, tied embeddings,
Adam — is preserved, because the evaluation's collective counts depend only
on structure.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.ir import dtypes
from repro.nn import (
    causal_mask_bias,
    rms_norm,
    softmax_cross_entropy,
    trace_adam_step,
)
from repro.trace import ShapeDtype, ops, trace
from repro.trace.tracer import TracedFunction


@dataclasses.dataclass(frozen=True)
class TransformerConfig:
    name: str = "T32"
    num_layers: int = 32
    d_model: int = 64
    num_heads: int = 8
    d_head: int = 8
    ffw_dim: int = 128
    vocab: int = 128
    seq_len: int = 8
    batch: int = 16
    multi_query: bool = False
    decode_steps: int = 8  # serving loop length for inference tracing

    @property
    def params_per_block(self) -> int:
        return 9

    @property
    def num_param_tensors(self) -> int:
        return self.params_per_block * self.num_layers + 1


def t32(**overrides) -> TransformerConfig:
    """The paper's T32 (32 layers, 32 heads, d_model 4096), scaled down."""
    return TransformerConfig(name="T32", **overrides)


def t48(**overrides) -> TransformerConfig:
    """The paper's T48 (48 layers, 64 heads, d_model 8192), scaled down."""
    defaults = dict(name="T48", num_layers=48, d_model=128, num_heads=16,
                    d_head=8, ffw_dim=256, batch=16)
    defaults.update(overrides)
    return TransformerConfig(**defaults)


def it32(**overrides) -> TransformerConfig:
    """IT32: the T32 architecture served with a decode loop + KV caches."""
    defaults = dict(name="IT32", multi_query=False)
    defaults.update(overrides)
    return TransformerConfig(**defaults)


def tiny(**overrides) -> TransformerConfig:
    """A 2-layer variant for unit tests."""
    defaults = dict(name="tiny", num_layers=2, d_model=16, num_heads=4,
                    d_head=4, ffw_dim=32, vocab=32, seq_len=4, batch=8)
    defaults.update(overrides)
    return TransformerConfig(**defaults)


# -- parameter specs --------------------------------------------------------------

def block_spec(cfg: TransformerConfig) -> Dict[str, ShapeDtype]:
    d, h, dh, f = cfg.d_model, cfg.num_heads, cfg.d_head, cfg.ffw_dim
    return {
        "qkv_w": ShapeDtype((3, d, h, dh)),
        "attn_out_w": ShapeDtype((h, dh, d)),
        "mlp_up_w": ShapeDtype((d, f)),
        "mlp_up_b": ShapeDtype((f,)),
        "mlp_down_w": ShapeDtype((f, d)),
        "mlp_down_b": ShapeDtype((d,)),
        "ln1_s": ShapeDtype((d,)),
        "ln2_s": ShapeDtype((d,)),
        "ln3_s": ShapeDtype((d,)),
    }


def param_spec(cfg: TransformerConfig) -> Dict[str, object]:
    spec = {
        f"block_{i:02d}": block_spec(cfg) for i in range(cfg.num_layers)
    }
    spec["embedding"] = ShapeDtype((cfg.vocab, cfg.d_model))
    return spec


# -- forward pass -----------------------------------------------------------------

def _attention(cfg: TransformerConfig, block, h, layer_index: int,
               kv_cache=None, step=None):
    """Fused-qkv multi-head attention; with a KV cache when serving."""
    a = rms_norm(block["ln1_s"], h)
    # a: [B, T, D] x qkv_w: [3, D, H, dh] -> [B, T, 3, H, dh]
    qkv = ops.dot_general(a, block["qkv_w"], ((2,), (1,)))
    q = qkv[:, :, 0]  # [B, T, H, dh]
    k = qkv[:, :, 1]
    v = qkv[:, :, 2]
    if cfg.multi_query and kv_cache is not None:
        q = ops.tag(q, f"mq_q_{layer_index}")
    if kv_cache is None:
        keys, values = k, v
        causal = True
    else:
        k_cache, v_cache = kv_cache
        keys = ops.dynamic_update_slice_in_dim(k_cache, k, step, dim=1)
        values = ops.dynamic_update_slice_in_dim(v_cache, v, step, dim=1)
        if cfg.multi_query:
            keys = ops.tag(keys, f"mq_k_{layer_index}")
            values = ops.tag(values, f"mq_v_{layer_index}")
        kv_cache = (keys, values)
        causal = False  # cache positions beyond `step` hold zeros
    # scores: [B, H, T, S]
    scores = ops.dot_general(q, keys, ((3,), (3,)), ((0, 2), (0, 2)))
    scores = scores * (1.0 / cfg.d_head ** 0.5)
    if causal:
        scores = causal_mask_bias(scores, query_dim=2, key_dim=3)
    probs = ops.softmax(scores, axis=-1)
    # attended: [B, H, T, dh]
    attended = ops.dot_general(probs, values, ((3,), (1,)), ((0, 1), (0, 2)))
    out = ops.dot_general(attended, block["attn_out_w"], ((1, 3), (0, 1)))
    if cfg.multi_query and kv_cache is not None:
        out = ops.tag(out, f"mq_out_{layer_index}")
    return out, kv_cache


def _mlp(block, h):
    a = rms_norm(block["ln2_s"], h)
    up = ops.gelu(a @ block["mlp_up_w"] + block["mlp_up_b"])
    return up @ block["mlp_down_w"] + block["mlp_down_b"]


def forward(cfg: TransformerConfig, params, tokens):
    """Token ids [B, T] -> logits [B, T, V]."""
    h = ops.take(params["embedding"], tokens)  # [B, T, D]
    for i in range(cfg.num_layers):
        block = params[f"block_{i:02d}"]
        attn, _ = _attention(cfg, block, h, i)
        h = ops.tag(h + attn, f"resid_attn_{i}")
        h = h + _mlp(block, h)
        h = rms_norm(block["ln3_s"], h)
        h = ops.tag(h, f"resid_{i}")
    return ops.dot_general(h, params["embedding"], ((2,), (1,)))


def loss_fn(cfg: TransformerConfig, params, tokens, targets):
    logits = forward(cfg, params, tokens)
    return softmax_cross_entropy(logits, targets)


# -- training step -----------------------------------------------------------------

def trace_training_step(cfg: TransformerConfig) -> TracedFunction:
    """Trace one full training step: forward + backward + Adam."""
    token_spec = ShapeDtype((cfg.batch, cfg.seq_len), dtypes.i32)
    return trace_adam_step(
        lambda p, batch: loss_fn(cfg, p, batch["tokens"], batch["targets"]),
        param_spec(cfg), {"tokens": token_spec, "targets": token_spec},
        cfg.name)


# -- inference (serving loop) ---------------------------------------------------------

def trace_inference(cfg: TransformerConfig) -> TracedFunction:
    """Trace the IT32 serving loop: a ``scan`` over decode steps with
    per-layer KV caches (teacher-forced tokens; greedy sampling does not
    change the communication structure)."""
    pspec = param_spec(cfg)
    b, s = cfg.batch, cfg.decode_steps
    h_, dh = cfg.num_heads, cfg.d_head

    def serve(state, batch):
        params = state["params"]
        tokens = batch["tokens"]
        caches: List = []
        for _ in range(cfg.num_layers):
            caches.append(ops.zeros((b, s, h_, dh)))
            caches.append(ops.zeros((b, s, h_, dh)))
        logits_acc = ops.zeros((b, s, cfg.vocab))

        def body(step, logits_acc, *caches):
            token = ops.dynamic_slice_in_dim(tokens, step, 1, dim=1)  # [B,1]
            h = ops.take(params["embedding"], token)  # [B, 1, D]
            new_caches = []
            for i in range(cfg.num_layers):
                block = params[f"block_{i:02d}"]
                kv = (caches[2 * i], caches[2 * i + 1])
                attn, kv = _attention(cfg, block, h, i, kv_cache=kv,
                                      step=step)
                h = h + attn
                h = h + _mlp(block, h)
                h = rms_norm(block["ln3_s"], h)
                new_caches.extend(kv)
            logits = ops.dot_general(h, params["embedding"], ((2,), (1,)))
            logits_acc = ops.dynamic_update_slice_in_dim(
                logits_acc, logits, step, dim=1
            )
            return [logits_acc] + new_caches

        results = ops.scan(body, [logits_acc] + caches, trip_count=s)
        return results[0]

    token_spec = ShapeDtype((b, s), dtypes.i32)
    return trace(serve, {"params": pspec}, {"tokens": token_spec},
                 name=cfg.name)
