"""Diffusion-style U-Net (the paper's UNet benchmark, Section 7.1).

Structure follows the paper: 9 residual down-sampling blocks, 12 up-sampling
blocks, and between them two residual blocks plus one attention layer with
16 heads, conditioned on a timestep embedding.

Simplifications (documented in DESIGN.md): additive skip connections instead
of channel concatenation, and per-channel spatial normalisation instead of
GroupNorm, both of which keep channel-dim model parallelism propagatable;
spatial dims are never sharded (the paper's own limitation, Section 8).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.ir import dtypes
from repro.nn import trace_adam_step
from repro.trace import ShapeDtype, ops
from repro.trace.tracer import TracedFunction


@dataclasses.dataclass(frozen=True)
class UNetConfig:
    name: str = "UNet"
    num_down: int = 9
    num_up: int = 12
    channels: int = 16
    in_channels: int = 4
    image_size: int = 16
    batch: int = 8
    attention_heads: int = 16
    temb_dim: int = 16
    # Blocks at these (0-based) positions in the down path halve the
    # resolution; the up path mirrors them with upsampling.
    downsample_every: int = 3


def unet(**overrides) -> UNetConfig:
    return UNetConfig(**overrides)


def tiny(**overrides) -> UNetConfig:
    defaults = dict(name="tiny-unet", num_down=2, num_up=2, channels=8,
                    image_size=8, batch=4, attention_heads=4, temb_dim=8)
    defaults.update(overrides)
    return UNetConfig(**defaults)


# -- parameter specs --------------------------------------------------------------

def _resblock_spec(cfg: UNetConfig, c_in: int) -> Dict[str, ShapeDtype]:
    c = cfg.channels
    return {
        "norm1_s": ShapeDtype((c_in,)),
        "norm1_b": ShapeDtype((c_in,)),
        "conv1_w": ShapeDtype((c, c_in, 3, 3)),
        "conv1_b": ShapeDtype((c,)),
        "temb_w": ShapeDtype((cfg.temb_dim, c)),
        "temb_b": ShapeDtype((c,)),
        "norm2_s": ShapeDtype((c,)),
        "norm2_b": ShapeDtype((c,)),
        "conv2_w": ShapeDtype((c, c, 3, 3)),
        "conv2_b": ShapeDtype((c,)),
        "skip_w": ShapeDtype((c, c_in, 1, 1)),
        "skip_b": ShapeDtype((c,)),
    }


def _attention_spec(cfg: UNetConfig) -> Dict[str, ShapeDtype]:
    c = cfg.channels
    h = cfg.attention_heads
    dh = max(c // h, 1)
    return {
        "norm_s": ShapeDtype((c,)),
        "norm_b": ShapeDtype((c,)),
        "qkv_w": ShapeDtype((c, 3, h, dh)),
        "proj_w": ShapeDtype((h, dh, c)),
        "proj_b": ShapeDtype((c,)),
    }


def param_spec(cfg: UNetConfig) -> Dict[str, object]:
    c = cfg.channels
    spec: Dict[str, object] = {
        "in_conv": {"w": ShapeDtype((c, cfg.in_channels, 3, 3)),
                    "b": ShapeDtype((c,))},
        "time_mlp": {"w1": ShapeDtype((cfg.temb_dim, cfg.temb_dim)),
                     "b1": ShapeDtype((cfg.temb_dim,)),
                     "w2": ShapeDtype((cfg.temb_dim, cfg.temb_dim)),
                     "b2": ShapeDtype((cfg.temb_dim,))},
        "out": {"norm_s": ShapeDtype((c,)), "norm_b": ShapeDtype((c,)),
                "conv_w": ShapeDtype((cfg.in_channels, c, 3, 3)),
                "conv_b": ShapeDtype((cfg.in_channels,))},
        "mid_attention": _attention_spec(cfg),
    }
    for i in range(cfg.num_down):
        spec[f"down_{i:02d}"] = _resblock_spec(cfg, c)
    spec["mid_0"] = _resblock_spec(cfg, c)
    spec["mid_1"] = _resblock_spec(cfg, c)
    for i in range(cfg.num_up):
        spec[f"up_{i:02d}"] = _resblock_spec(cfg, c)
    return spec


def num_param_tensors(cfg: UNetConfig) -> int:
    from repro.trace import pytree

    return len(pytree.tree_leaves(param_spec(cfg)))


# -- layers -----------------------------------------------------------------------

def _channel_norm(scale, bias, x, eps: float = 1e-5):
    """Per-channel normalisation over spatial dims (keeps C shardable)."""
    mu = ops.mean(x, axis=(2, 3), keepdims=True)
    centered = x - mu
    var = ops.mean(centered * centered, axis=(2, 3), keepdims=True)
    normed = centered * ops.rsqrt(var + eps)
    c = x.shape[1]
    scale = scale.reshape((1, c, 1, 1))
    bias = bias.reshape((1, c, 1, 1))
    return normed * scale + bias


def _resblock(block, x, temb, stride: int = 1):
    h = _channel_norm(block["norm1_s"], block["norm1_b"], x)
    h = ops.relu(h)
    h = ops.conv2d(h, block["conv1_w"], stride=stride, pad=1)
    h = h + block["conv1_b"].reshape((1, h.shape[1], 1, 1))
    t = temb @ block["temb_w"] + block["temb_b"]
    h = h + t.reshape((t.shape[0], t.shape[1], 1, 1))
    h = _channel_norm(block["norm2_s"], block["norm2_b"], h)
    h = ops.relu(h)
    h = ops.conv2d(h, block["conv2_w"], stride=1, pad=1)
    h = h + block["conv2_b"].reshape((1, h.shape[1], 1, 1))
    skip = ops.conv2d(x, block["skip_w"], stride=stride, pad=0)
    skip = skip + block["skip_b"].reshape((1, skip.shape[1], 1, 1))
    return h + skip


def _attention(attn, x):
    n, c, hh, ww = x.shape
    normed = _channel_norm(attn["norm_s"], attn["norm_b"], x)
    seq = normed.reshape((n, c, hh * ww)).transpose((0, 2, 1))  # [N, HW, C]
    qkv = ops.dot_general(seq, attn["qkv_w"], ((2,), (0,)))  # [N,HW,3,H,dh]
    q, k, v = qkv[:, :, 0], qkv[:, :, 1], qkv[:, :, 2]
    dh = q.shape[-1]
    scores = ops.dot_general(q, k, ((3,), (3,)), ((0, 2), (0, 2)))
    scores = scores * (1.0 / dh ** 0.5)
    probs = ops.softmax(scores, axis=-1)
    attended = ops.dot_general(probs, v, ((3,), (1,)), ((0, 1), (0, 2)))
    out = ops.dot_general(attended, attn["proj_w"], ((1, 3), (0, 1)))
    out = out + attn["proj_b"]
    out = out.transpose((0, 2, 1)).reshape((n, c, hh, ww))
    return x + out


def forward(cfg: UNetConfig, params, x, t):
    """Noisy image [B, C_in, S, S] + timestep embedding input [B, temb] ->
    predicted noise [B, C_in, S, S]."""
    tm = params["time_mlp"]
    temb = ops.relu(t @ tm["w1"] + tm["b1"]) @ tm["w2"] + tm["b2"]
    h = ops.conv2d(x, params["in_conv"]["w"], stride=1, pad=1)
    h = h + params["in_conv"]["b"].reshape((1, h.shape[1], 1, 1))
    down_levels: List[int] = []
    for i in range(cfg.num_down):
        downsample = (
            i % cfg.downsample_every == cfg.downsample_every - 1
            and h.shape[2] > 2
        )
        h = _resblock(params[f"down_{i:02d}"], h, temb,
                      stride=2 if downsample else 1)
        if downsample:
            down_levels.append(i)
    h = _resblock(params["mid_0"], h, temb)
    h = _attention(params["mid_attention"], h)
    h = _resblock(params["mid_1"], h, temb)
    ups_needed = len(down_levels)
    for i in range(cfg.num_up):
        # Mirror the downsampling positions at the tail of the up path.
        if ups_needed and i >= cfg.num_up - ups_needed and i < cfg.num_up:
            h = ops.upsample2d(h, 2)
        h = _resblock(params[f"up_{i:02d}"], h, temb)
    h = _channel_norm(params["out"]["norm_s"], params["out"]["norm_b"], h)
    h = ops.relu(h)
    h = ops.conv2d(h, params["out"]["conv_w"], stride=1, pad=1)
    return h + params["out"]["conv_b"].reshape((1, h.shape[1], 1, 1))


def loss_fn(cfg: UNetConfig, params, x, t, noise):
    pred = forward(cfg, params, x, t)
    diff = pred - noise
    return ops.mean(diff * diff)


def trace_training_step(cfg: UNetConfig) -> TracedFunction:
    image = ShapeDtype((cfg.batch, cfg.in_channels, cfg.image_size,
                        cfg.image_size))
    return trace_adam_step(
        lambda p, batch: loss_fn(cfg, p, batch["image"], batch["timestep"],
                                 batch["noise"]),
        param_spec(cfg),
        {"image": image, "timestep": ShapeDtype((cfg.batch, cfg.temb_dim)),
         "noise": image},
        cfg.name)


def megatron_mp(axis: str = "model"):
    """The paper's UNet MP tactic: shard convolutions on their channel
    weights (not strides) and attention on heads (Appendix A.4)."""
    from repro.api import ManualPartition, UNKNOWN

    def spec(name, value):
        leaf = name.split("/")[-1]
        return {
            "conv1_w": 0,   # out-channels
            "conv2_w": 1,   # in-channels (contraction -> AR per block)
            "qkv_w": 2,     # heads
            "proj_w": 0,    # heads
            "temb_w": 1,
        }.get(leaf, UNKNOWN)

    tactic = ManualPartition({"params": spec}, axis=axis)
    tactic.name = "MP"
    return tactic
