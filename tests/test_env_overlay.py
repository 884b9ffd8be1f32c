"""ShardingEnv.copy() vs plain-dict copies (the copy() contract).

These tests drive random interleavings of writes, copies and reads over a
tree of envs against a reference model backed by plain dict copies, and
assert every env observes exactly the reference shardings — including
writes made to a parent *after* it was copied (which must never leak into
the child, and vice versa), also with readers on other threads.
"""

import random

import pytest

from repro.core.sharding import Sharding, ShardingEnv
from repro.ir.function import FunctionBuilder
from repro.mesh import Mesh

MESH = Mesh({"a": 2, "b": 2, "c": 2})
AXES = ("a", "b", "c")


def _values(n=24):
    builder = FunctionBuilder("overlay")
    return [builder.param((8, 8), name=f"v{i}") for i in range(n)]


class _ReferenceEnv:
    """The specification: a full dict copy per fork."""

    def __init__(self, shardings=None):
        self.shardings = dict(shardings or {})

    def sharding(self, value):
        return self.shardings.get(value, Sharding.replicated(2))

    def set_sharding(self, value, sharding):
        self.shardings[value] = sharding

    def copy(self):
        return _ReferenceEnv(self.shardings)


def _random_sharding(rng, current):
    axis = rng.choice(AXES)
    if current.uses(axis):
        return None
    if rng.random() < 0.2:
        return current.with_sum(axis)
    return current.with_tile(rng.randrange(2), axis)


@pytest.mark.parametrize("seed", range(10))
def test_overlay_matches_plain_dict_copies(seed):
    rng = random.Random(seed)
    values = _values()
    pairs = [(ShardingEnv(MESH), _ReferenceEnv())]
    for _ in range(300):
        env, ref = pairs[rng.randrange(len(pairs))]
        op = rng.random()
        if op < 0.55:  # write
            value = rng.choice(values)
            new = _random_sharding(rng, ref.sharding(value))
            if new is not None:
                env.set_sharding(value, new)
                ref.set_sharding(value, new)
        elif op < 0.75 and len(pairs) < 40:  # fork
            pairs.append((env.copy(), ref.copy()))
        else:  # read everything
            for value in values:
                assert env.sharding(value) == ref.sharding(value)
    for env, ref in pairs:
        for value in values:
            assert env.sharding(value) == ref.sharding(value)


def test_parent_writes_after_fork_stay_invisible():
    values = _values(4)
    parent = ShardingEnv(MESH)
    parent.set_sharding(values[0], Sharding.replicated(2).with_tile(0, "a"))
    child = parent.copy()
    parent.set_sharding(values[1], Sharding.replicated(2).with_tile(1, "b"))
    child.set_sharding(values[2], Sharding.replicated(2).with_tile(0, "c"))
    # Pre-fork state is shared; post-fork writes are private.
    assert child.sharding(values[0]).dim_axes == (("a",), ())
    assert child.sharding(values[1]).is_fully_replicated()
    assert parent.sharding(values[2]).is_fully_replicated()
    assert parent.sharding(values[1]).dim_axes == ((), ("b",))


def test_concurrent_reads_during_forks_and_writes():
    """Threaded readers hammering a child env while the parent writes and
    copies never observe a torn or stale sharding: ``copy()`` snapshots
    the store with one ``dict.copy()`` (atomic under the GIL) and the
    child owns its snapshot outright."""
    import threading

    values = _values(32)
    parent = ShardingEnv(MESH)
    expected = {}
    for i, value in enumerate(values):
        sharding = Sharding.replicated(2).with_tile(i % 2, AXES[i % 3])
        parent.set_sharding(value, sharding)
        expected[value] = sharding
    child = parent.copy()

    errors = []
    stop = threading.Event()

    def read_loop():
        while not stop.is_set():
            for value in values:
                observed = child.sharding(value)
                if observed != expected[value]:
                    errors.append((value, observed))
                    return

    readers = [threading.Thread(target=read_loop) for _ in range(4)]
    for thread in readers:
        thread.start()
    # Parent churn: writes + copies after the child took its snapshot.
    for round_index in range(200):
        scratch = _values(4)
        for value in scratch:
            parent.set_sharding(
                value, Sharding.replicated(2).with_tile(0, "a"))
        parent.copy()
    stop.set()
    for thread in readers:
        thread.join()
    assert not errors
