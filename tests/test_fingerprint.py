"""Canonicalization goldens: the one program identity.

:func:`repro.auto.fingerprint.canonicalize` gives every program a digest
(the program up to spelling) and a layout (the spelling).  The digest must
merge what is "the same partitioning problem" — alpha-renamed tags,
permuted-but-isomorphic inputs, independent ops traced in another order —
while everything that can change a plan's cost (shapes, dtypes, mesh,
device, initial shardings, structure) keeps programs apart.  The layout
must tell every re-spelling apart except a tag rename, because
``(digest, layout)`` names a transposition log whose costs are replayed
blindly.  Neither may depend on the process's hash seed.
"""

import os
import subprocess
import sys

import pytest

from repro import Mesh, ShapeDtype, trace
from repro.core.propagate import propagate
from repro.core.sharding import ShardingEnv
from repro.ir.function import FunctionBuilder
from repro.sim import DeviceSpec
from repro.trace import ops

from repro.auto.fingerprint import CanonicalForm, canonicalize
from repro.core.actions import PIPELINE, SUM_TAGGED, TILE_INPUT, TILE_TAGGED
from repro.core.pipeline import loop_ops
from repro.ir.tagpoints import tag_points
from repro.auto.tree import canonical_key

from conftest import build_matmul_chain

MESH = Mesh({"B": 4, "M": 2})
TINY_DEVICE = DeviceSpec("tiny", peak_flops=1e9, hbm_bytes=200_000,
                         link_bandwidth=1e9)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def chain(order=("x", "w1", "w2")):
    """The paper's matmul chain with a chosen parameter order; every
    order builds the same (x @ w1) @ w2 computation."""
    builder = FunctionBuilder("main")
    specs = {"x": (256, 8), "w1": (8, 16), "w2": (16, 8)}
    params = {name: builder.param(specs[name], name=name)
              for name in order}
    hidden = builder.emit1("dot_general", [params["x"], params["w1"]],
                           {"lhs_contract": (1,), "rhs_contract": (0,)})
    out = builder.emit1("dot_general", [hidden, params["w2"]],
                        {"lhs_contract": (1,), "rhs_contract": (0,)})
    return builder.ret(out)


def tagged_mlp(tag_name):
    """A traced two-layer MLP with one manually named tag point."""
    def fn(x, w1, w2):
        hidden = ops.tag(x @ w1, tag_name)
        return hidden @ w2

    traced = trace(fn, ShapeDtype((32, 8)), ShapeDtype((8, 16)),
                   ShapeDtype((16, 4)))
    return traced.function


def exp_first(first: bool):
    """``exp(x)`` traced before or after ``sum(log(x))``: one graph, two
    op orders (and two simulated peak memories)."""
    def fn(x):
        if first:
            a = ops.exp(x)
            b = ops.reduce_sum(ops.log(x))
        else:
            b = ops.reduce_sum(ops.log(x))
            a = ops.exp(x)
        return a, b

    return trace(fn, ShapeDtype((1024, 1024))).function


def identity(function, mesh=MESH, device=TINY_DEVICE, env=None):
    canon = canonicalize(function, mesh, device, env)
    return canon.digest, canon.layout


class TestRelaxedEquivalence:
    def test_stable_across_retraces(self):
        first, _ = build_matmul_chain()
        second, _ = build_matmul_chain()
        assert identity(first) == identity(second)

    def test_permuted_isomorphic_inputs_share_the_relaxed_key(self):
        """Tracing f(x, w1, w2) as f(w2, x, w1) is the same partitioning
        problem spelled another way: one digest, two layouts."""
        original = identity(chain())
        permuted = identity(chain(order=("w2", "x", "w1")))
        assert original[0] == permuted[0]
        assert original[1] != permuted[1]

    def test_alpha_renamed_tags_share_the_relaxed_key(self):
        """A tag's name is an identity label, not a cost input: a renamed
        program is the same program as written."""
        assert identity(tagged_mlp("hidden")) == \
            identity(tagged_mlp("post_activation"))

    def test_trace_order_variant_shares_the_digest_not_the_layout(self):
        """Independent ops emitted in another order simulate a different
        peak memory, so the spelling must differ even though the graph
        (and so the digest) is the same."""
        one, other = identity(exp_first(True)), identity(exp_first(False))
        assert one[0] == other[0]
        assert one[1] != other[1]


class TestDifferentProgramsStayApart:
    @pytest.mark.parametrize("mutate", ["shape", "dtype", "mesh"])
    def test_cost_relevant_differences_split_both_tiers(self, mutate):
        """A different program gets a different digest, so neither the
        store (digest) nor the log (digest, layout) can confuse them."""
        base, _ = build_matmul_chain()
        if mutate == "shape":
            other, _ = build_matmul_chain(m=512)
            mesh = MESH
        elif mutate == "dtype":
            builder = FunctionBuilder("main")
            x = builder.param((256, 8), dtype="float64", name="x")
            w1 = builder.param((8, 16), dtype="float64", name="w1")
            w2 = builder.param((16, 8), dtype="float64", name="w2")
            h = builder.emit1("dot_general", [x, w1],
                              {"lhs_contract": (1,), "rhs_contract": (0,)})
            out = builder.emit1("dot_general", [h, w2],
                                {"lhs_contract": (1,), "rhs_contract": (0,)})
            other = builder.ret(out)
            mesh = MESH
        else:
            other, mesh = base, Mesh({"B": 8})
        assert identity(other, mesh)[0] != identity(base)[0]

    def test_initial_shardings_enter_the_relaxed_key(self):
        function, _ = build_matmul_chain()
        env = ShardingEnv(MESH)
        blank = identity(function, env=env)
        assert blank == identity(function)  # nothing sharded yet
        env.set_sharding(function.params[0],
                         env.sharding(function.params[0]).with_tile(0, "B"))
        assert identity(function, env=env)[0] != blank[0]

    def test_mesh_axis_order_enters_the_relaxed_key(self):
        """Propagation visits axes in mesh order, so ``{a: 2, b: 2}`` and
        ``{b: 2, a: 2}`` tile ``x + z`` differently: they are two meshes
        and two digests.  A sorted mesh hashes as it always has, so
        existing logs keep their names."""
        function = trace(lambda x, z, w: ops.reduce_sum((x + z) @ w),
                         *[ShapeDtype((8, 8))] * 3,
                         tag_points=False).function
        x, z, _ = function.params
        total = next(op for op in function.walk() if op.opcode == "add")
        meshes = Mesh({"a": 2, "b": 2}), Mesh({"b": 2, "a": 2})
        for mesh, order in zip(meshes, (("a", "b"), ("b", "a"))):
            env = ShardingEnv(mesh)
            env.set_sharding(x, env.sharding(x).with_tile(0, "a"))
            env.set_sharding(z, env.sharding(z).with_tile(0, "b"))
            propagate(function, env)
            assert env.sharding(total.results[0]).dim_axes == (order, ())
        assert meshes[0] != meshes[1]
        digests = [canonicalize(function, mesh).digest for mesh in meshes]
        assert digests[0] != digests[1]
        assert digests[0] == "71356742ba26257289ea816bef3a5424"

    def test_device_enters_the_relaxed_key(self):
        function, _ = build_matmul_chain()
        fat = DeviceSpec("fat", peak_flops=1e12, hbm_bytes=16e9,
                         link_bandwidth=1e11)
        assert identity(function)[0] != identity(function, device=fat)[0]


_HASHSEED_PROBE = """
import json
from repro import Mesh
from repro.auto.fingerprint import canonicalize
from conftest import build_matmul_chain
from test_loop_pipeline import trace_nested_scan

out = []
for function in (build_matmul_chain()[0], trace_nested_scan()):
    canon = canonicalize(function, Mesh({"B": 4, "M": 2}))
    out.append([canon.digest, canon.layout])
print(json.dumps(out))
"""


def test_identity_does_not_depend_on_the_hash_seed():
    """Colours come from sorting, never from ``hash()``: two processes
    with different ``PYTHONHASHSEED`` agree on digest and layout, for a
    flat program and a nested loop."""
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([
                       os.path.join(REPO_ROOT, "src"),
                       os.path.join(REPO_ROOT, "tests")]))
        proc = subprocess.run([sys.executable, "-c", _HASHSEED_PROBE],
                              env=env, capture_output=True, text=True,
                              cwd=REPO_ROOT, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


class TestIndexTranslation:
    def test_encode_decode_roundtrip(self):
        function = chain()
        canon = canonicalize(function, MESH, TINY_DEVICE)
        key = canonical_key([(0, 0, 0, "B"), (0, 2, 1, "M")])
        assert canon.decode_key(canon.encode_key(key)) == key

    def test_permuted_programs_meet_in_canonical_space(self):
        """A plan encoded from one program and decoded into its permuted
        clone must target the *same* parameters (by name)."""
        original = chain()
        permuted = chain(order=("w2", "x", "w1"))
        canon_a = canonicalize(original, MESH, TINY_DEVICE)
        canon_b = canonicalize(permuted, MESH, TINY_DEVICE)
        names_a = [p.name for p in original.params]
        names_b = [p.name for p in permuted.params]
        for index in range(3):
            encoded = canon_a.encode_key(((0, index, 0, "B"),))
            decoded = canon_b.decode_key(encoded)
            assert names_b[decoded[0][1]] == names_a[index]

    def test_every_kind_meets_its_target_in_the_other_spelling(self):
        """One action of each kind, encoded from one spelling and decoded
        into the other, addresses the same named parameter, tag or loop:
        params, tag points and loops are each permuted through the index
        space their kind addresses."""
        def spelled(order):
            def fn(*args):
                named = dict(zip(order, args))
                total = {}
                for branch in order:  # traced in the spelling's order
                    x, w = named[branch]
                    hidden = ops.tag(x @ w, f"h_{branch}")
                    looped = ops.fori_loop(
                        0, TRIPS[branch],
                        lambda i, acc: (ops.tanh(acc @ w),), (hidden,))[0]
                    total[branch] = ops.reduce_sum(looped)
                return total["a"] + total["b"]

            shapes = (ShapeDtype((8, 4)), ShapeDtype((4, 4)))
            traced = trace(fn, *[shapes] * len(order))
            # Parameter i is ``x`` or ``w`` of branch ``order[i // 2]``.
            names = [f"{part}_{branch}" for branch in order
                     for part in "xw"]
            return traced.function, names

        TRIPS = {"a": 2, "b": 3}
        (fn_a, params_a), (fn_b, params_b) = spelled("ab"), spelled("ba")
        canon_a = canonicalize(fn_a, MESH, TINY_DEVICE)
        canon_b = canonicalize(fn_b, MESH, TINY_DEVICE)
        assert canon_a.digest == canon_b.digest
        assert canon_a.layout != canon_b.layout

        def tag_index(function, name):
            return next(point.index for point in tag_points(function)
                        if point.name == name)

        def target(function, params, action):
            kind, index, _, _ = action
            if kind == TILE_INPUT:
                return params[index]
            if kind == PIPELINE:
                return loop_ops(function)[index].attrs["trip_count"]
            return tag_points(function)[index].name

        h_b = tag_index(fn_a, "h_b")
        loop_b = next(i for i, op in enumerate(loop_ops(fn_a))
                      if op.attrs["trip_count"] == TRIPS["b"])
        plan = canonical_key([(TILE_INPUT, 2, 0, "B"),
                              (TILE_TAGGED, h_b, 1, "M"),
                              (SUM_TAGGED, h_b, 0, "M"),
                              (PIPELINE, loop_b, 0, "B")])
        moved = canon_b.decode_key(canon_a.encode_key(plan))
        assert [a[0] for a in moved] == [a[0] for a in plan]
        assert [target(fn_b, params_b, a) for a in moved] == [
            target(fn_a, params_a, a) for a in plan]
        # The spellings really differ in every index space.
        assert [a[1] for a in moved] != [a[1] for a in plan]
        assert params_b[2] != params_a[2]
        assert tag_index(fn_b, "h_b") != h_b

    def test_out_of_range_index_raises(self):
        canon = canonicalize(chain(), MESH, TINY_DEVICE)
        with pytest.raises(IndexError):
            canon.encode_key(((0, 99, 0, "B"),))

    def test_canonical_form_is_complete_permutation(self):
        canon = canonicalize(chain(), MESH, TINY_DEVICE)
        assert isinstance(canon, CanonicalForm)
        assert sorted(canon.param_to_canon) == [0, 1, 2]
        assert sorted(canon.canon_to_param) == [0, 1, 2]
        for local, rank in enumerate(canon.param_to_canon):
            assert canon.canon_to_param[rank] == local
