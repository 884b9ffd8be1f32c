"""Every reconcile chain of a rank-2 value over three mesh axes is fused
exactly as the whole-program reference fuses its unfused emission.

``Lowerer._chain`` decides each chain's fused steps in closed form
(``reduce_scatter`` for a reduce sliced on a subset of its axes,
``all_to_all`` for a gather and slice that move axes between dims).  Here
every actual layout (each axis unused, pending, or tiling either dim, in
every nesting order), every required layout and every subset of the
pending axes the consumer may keep is checked against
``oracle.reference_chain``: the unfused chain in a function of its own,
fused pair by pair.  A wrong fusion branch fails here on the layouts that
take it.
"""

import itertools

from oracle import reference_chain
from repro.core.sharding import Sharding, ShardingEnv
from repro.ir.types import TensorType
from repro.mesh import Mesh
from repro.spmd.lower import Lowerer

MESH = Mesh({"a": 2, "b": 2, "c": 2})
SHAPE = (8, 8)


def _layouts(places):
    """``(dim axes, pending axes)`` for every way of putting each mesh
    axis in one of ``places`` ("-": unused, "sum": pending, 0 or 1: that
    dim), each dim's axes in every order."""
    for placement in itertools.product(places, repeat=len(MESH.axes)):
        chosen = dict(zip(MESH.axes, placement))
        pending = frozenset(a for a, p in chosen.items() if p == "sum")
        per_dim = [[a for a, p in chosen.items() if p == d] for d in (0, 1)]
        for first in itertools.permutations(per_dim[0]):
            for second in itertools.permutations(per_dim[1]):
                yield (first, second), pending


def _subsets(axes):
    axes = sorted(axes)
    for size in range(len(axes) + 1):
        yield from itertools.combinations(axes, size)


def _chains():
    """``(actual, required, allowed pending)`` for every case."""
    requireds = [{d: list(axes) for d, axes in enumerate(dims)}
                 for dims, _ in _layouts(("-", 0, 1))]
    for dims, pending in _layouts(("-", "sum", 0, 1)):
        actual = Sharding(dims, pending)
        for required in requireds:
            for allowed in _subsets(pending):
                yield actual, required, set(allowed)


def test_every_chain_fuses_as_the_reference():
    lowerer = Lowerer(ShardingEnv(MESH))
    fused_forms = set()
    cases = 0
    for actual, required, allowed in _chains():
        local_type = TensorType(actual.local_shape(SHAPE, MESH))
        chain = lowerer._chain(local_type, actual, required, allowed)
        got = () if chain is None else chain.steps
        want = reference_chain(MESH, local_type, actual, required, allowed)
        assert got == want, (actual, required, allowed)
        fused_forms.add(tuple(opcode for opcode, _, _ in got))
        cases += 1
    assert cases == 7791
    # Both fusions and their residual forms are exercised.
    assert {("reduce_scatter",), ("all_reduce", "reduce_scatter"),
            ("all_to_all",), ("all_reduce", "all_to_all")} <= fused_forms
