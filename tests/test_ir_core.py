"""Unit tests for the array IR: types, values, builder, verifier, printer."""

import sys
import threading

import numpy as np
import pytest

from repro.errors import TypeInferenceError, VerificationError
from repro.ir import (
    FunctionBuilder,
    TensorType,
    dtypes,
    print_function,
    scalar,
    verify_function,
)
from repro.core.sharding import ShardingEnv
from repro.ir.values import Operation, Value
from repro.mesh import Mesh
from repro.sim import TPU_V3, costmodel
from repro.spmd import lower


class TestTensorType:
    def test_basic(self):
        t = TensorType((2, 3), dtypes.f32)
        assert t.rank == 2
        assert t.num_elements == 6
        assert t.nbytes == 24

    def test_scalar(self):
        assert scalar().rank == 0
        assert scalar().num_elements == 1

    def test_repr(self):
        assert repr(TensorType((256, 8))) == "tensor<256x8xf32>"
        assert repr(scalar(dtypes.i32)) == "tensor<i32>"

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            TensorType((-1, 2))

    def test_with_shape(self):
        t = TensorType((2, 3), dtypes.f16)
        assert t.with_shape((6,)) == TensorType((6,), dtypes.f16)

    def test_concurrent_constructors_get_one_complete_instance(self):
        """Threads racing to build the same fresh types all get the one
        published instance, never a half-built one."""
        shapes = [(7919, i) for i in range(10000)]
        barrier = threading.Barrier(4)
        got = []

        def build():
            barrier.wait(timeout=10)
            got.append([TensorType(shape, dtypes.i64) for shape in shapes])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 4
        for types in zip(*got):
            assert all(t is types[0] for t in types)
            assert types[0].nbytes == 8 * types[0].num_elements


class TestDtypes:
    def test_lookup_roundtrip(self):
        for name in ("f32", "f16", "i32", "i1"):
            assert dtypes.from_name(name).name == name

    def test_from_numpy(self):
        assert dtypes.from_numpy(np.float32) is dtypes.f32
        assert dtypes.from_numpy(np.int32) is dtypes.i32

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            dtypes.from_name("f8")


class TestValuesAndOps:
    def test_value_identity_semantics(self):
        a = Value(TensorType((2,)))
        b = Value(TensorType((2,)))
        assert a != b
        assert a == a
        assert len({a, b}) == 2

    def test_operation_result_backlink(self):
        op = Operation("neg", [Value(TensorType((2,)))],
                       result_types=[TensorType((2,))])
        assert op.results[0].producer is op
        assert op.result is op.results[0]


class TestBuilder:
    def test_type_inference_error_has_context(self):
        b = FunctionBuilder()
        x = b.param((2, 3))
        y = b.param((4, 3))
        with pytest.raises(TypeInferenceError, match="add"):
            b.emit("add", [x, y])

    def test_emit1(self):
        b = FunctionBuilder()
        x = b.param((2, 3))
        out = b.emit1("neg", [x])
        assert out.type.shape == (2, 3)

    def test_param_maps_a_numpy_dtype_to_the_ir_dtype(self):
        """A param declared with a numpy dtype name gets the IR dtype, so
        the function it is in can be priced."""
        b = FunctionBuilder()
        x = b.param((4, 2), dtype="float64", name="x")
        assert x.type.dtype is dtypes.f64
        assert b.param((4, 2), dtype=np.int32).type.dtype is dtypes.i32
        function = b.ret(b.emit1("neg", [x]))
        estimate = costmodel.estimate(
            lower(function, ShardingEnv(Mesh({"batch": 2}))), TPU_V3)
        assert estimate.peak_memory_bytes >= 2 * x.type.nbytes == 128


class TestVerifier:
    def test_accepts_valid(self, matmul_chain):
        function, _ = matmul_chain
        verify_function(function)

    def test_rejects_use_before_def(self):
        b = FunctionBuilder()
        x = b.param((2,))
        op1 = b.emit("neg", [x])
        op2 = b.emit("neg", [x])
        # Swap ops so op2's operand... instead use a foreign value.
        foreign = Value(TensorType((2,)))
        op1.operands[0] = foreign
        with pytest.raises(VerificationError):
            verify_function(b.ret(op2.result))

    def test_rejects_wrong_result_type(self):
        b = FunctionBuilder()
        x = b.param((2,))
        op = b.emit("neg", [x])
        op.results[0].type = TensorType((3,))
        with pytest.raises(VerificationError):
            verify_function(b.ret(op.result))


class TestPrinter:
    def test_prints_listing1_shape(self, matmul_chain):
        function, _ = matmul_chain
        text = print_function(function)
        assert "func @main" in text
        assert "tensor<256x8xf32>" in text
        assert text.count("dot_general") == 2

    def test_named_values_survive(self, matmul_chain):
        function, _ = matmul_chain
        assert "%x" in print_function(function)
