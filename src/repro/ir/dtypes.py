"""Element dtypes for the array IR.

The IR supports a small set of dtypes, mirroring what the PartIR paper's
benchmarks need (float32/bfloat16-as-float16 compute, int32 indices, bool
predicates).  Each dtype knows its numpy equivalent and its byte width, which
the cost model uses for memory and communication estimates.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class DType:
    """An element type.

    Attributes:
        name: short IR name, e.g. ``"f32"``.
        np_dtype: the numpy dtype used by the reference interpreter.
        nbytes: bytes per element (used by the cost model).
        is_float: whether this is a floating-point type.
    """

    name: str
    np_dtype: np.dtype
    nbytes: int
    is_float: bool

    def __repr__(self) -> str:
        return self.name

    def __reduce__(self):
        # Type inference compares dtypes by identity, so a pickled dtype
        # (a function sent to a worker or a plan server) loads as the
        # module's instance, not as an equal copy.
        return (from_name, (self.name,))


f32 = DType("f32", np.dtype(np.float32), 4, True)
f16 = DType("f16", np.dtype(np.float16), 2, True)
f64 = DType("f64", np.dtype(np.float64), 8, True)
i32 = DType("i32", np.dtype(np.int32), 4, False)
i64 = DType("i64", np.dtype(np.int64), 8, False)
bool_ = DType("i1", np.dtype(np.bool_), 1, False)

_ALL = {d.name: d for d in (f32, f16, f64, i32, i64, bool_)}
_FROM_NUMPY = {d.np_dtype: d for d in (f32, f16, f64, i32, i64, bool_)}


def from_name(name: str) -> DType:
    """Look up a dtype by its IR name (e.g. ``"f32"``)."""
    try:
        return _ALL[name]
    except KeyError:
        raise KeyError(f"unknown dtype name {name!r}; known: {sorted(_ALL)}")


def from_numpy(np_dtype) -> DType:
    """Map a numpy dtype (or anything np.dtype accepts) to an IR dtype."""
    key = np.dtype(np_dtype)
    try:
        return _FROM_NUMPY[key]
    except KeyError:
        raise KeyError(f"unsupported numpy dtype {np_dtype!r}")
