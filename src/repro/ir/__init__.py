"""The array IR: a StableHLO-like SSA tensor IR with a numpy interpreter.

Importing this package registers all built-in ops.
"""

from repro.ir import dtypes
from repro.ir.types import TensorType, scalar
from repro.ir.values import Operation, Value
from repro.ir.function import Function, FunctionBuilder
from repro.ir import opdefs

# Op registrations (import side effects).
from repro.ir import ops_elementwise  # noqa: F401
from repro.ir import ops_linalg  # noqa: F401
from repro.ir import ops_nn  # noqa: F401

from repro.ir.interpreter import evaluate_function
from repro.ir.printer import print_function
from repro.ir.tagpoints import AUTO_TAG_PREFIX, TagPoint, is_auto_tag, tag_points
from repro.ir.verifier import verify_function

__all__ = [
    "AUTO_TAG_PREFIX",
    "TagPoint",
    "is_auto_tag",
    "tag_points",
    "dtypes",
    "TensorType",
    "scalar",
    "Operation",
    "Value",
    "Function",
    "FunctionBuilder",
    "opdefs",
    "evaluate_function",
    "print_function",
    "verify_function",
]
