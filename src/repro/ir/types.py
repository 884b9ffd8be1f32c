"""Tensor types for the array IR."""

from __future__ import annotations

import math
import threading
from typing import Dict, Tuple

from repro.ir import dtypes

#: The intern table: the one :class:`TensorType` per ``(shape, dtype)``.
#: Writes happen under the lock; readers rely on the GIL's atomic dict
#: reads (an entry, once published, never changes), so the lookup every
#: op's type inference and class key make stays lock-free.
_INTERN: Dict[Tuple, "TensorType"] = {}
_INTERN_LOCK = threading.Lock()


class TensorType:
    """A ranked tensor type ``tensor<d0 x d1 x ... x dtype>``.

    Shapes are static (the paper partitions statically-shaped StableHLO).
    A rank-0 tensor models a scalar.

    The constructor returns the one instance per ``(shape, dtype)``, so
    equal types are the same object and compare and hash by identity (in
    C) — also across a pickle round trip.  A dim may be given as any
    integer (a numpy one included); the shape is a tuple of ``int``:

    >>> import pickle
    >>> import numpy as np
    >>> t = TensorType((2, 3))
    >>> t is TensorType([2, 3])
    True
    >>> TensorType((np.int64(2),)).shape == (2,)
    True
    >>> type(TensorType((np.int64(2),)).shape[0])
    <class 'int'>
    >>> pickle.loads(pickle.dumps(t)) is t
    True
    >>> TensorType((-1, 2))
    Traceback (most recent call last):
    ...
    ValueError: negative dimension in shape (-1, 2)

    ``rank``, ``num_elements`` and ``nbytes`` are computed once, when a
    type is first seen, and read as plain attributes afterwards.
    """

    __slots__ = ("shape", "dtype", "rank", "num_elements", "nbytes")

    def __new__(cls, shape, dtype: dtypes.DType = dtypes.f32):
        if type(shape) is not tuple:
            shape = tuple(shape)
        self = _INTERN.get((shape, dtype))
        if self is not None:
            return self
        shape = tuple([int(d) for d in shape])
        for d in shape:
            if d < 0:
                raise ValueError(f"negative dimension in shape {shape}")
        with _INTERN_LOCK:
            self = _INTERN.get((shape, dtype))
            if self is None:
                self = object.__new__(cls)
                num_elements = math.prod(shape)
                for name, value in (
                        ("shape", shape), ("dtype", dtype),
                        ("rank", len(shape)),
                        ("num_elements", num_elements),
                        ("nbytes", num_elements * dtype.nbytes)):
                    object.__setattr__(self, name, value)
                # Published complete: lock-free readers never see a
                # half-built instance.
                _INTERN[(shape, dtype)] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("a TensorType is immutable")

    def __reduce__(self):
        # The receiver rebuilds through the constructor, so an unpickled
        # type is the receiver's canonical instance.
        return TensorType, (self.shape, self.dtype)

    def with_shape(self, shape) -> "TensorType":
        return TensorType(tuple(shape), self.dtype)

    def __repr__(self) -> str:
        if not self.shape:
            return f"tensor<{self.dtype}>"
        dims = "x".join(str(d) for d in self.shape)
        return f"tensor<{dims}x{self.dtype}>"


def scalar(dtype: dtypes.DType = dtypes.f32) -> TensorType:
    """The rank-0 tensor type with the given dtype."""
    return TensorType((), dtype)
