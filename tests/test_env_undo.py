"""The env undo log and the interned-sharding table (PR 4's memory model).

``ShardingEnv.checkpoint()/rollback()`` must restore *exactly* the state
``copy()`` would have preserved — shardings, dirty set, event-log length —
across arbitrary interleavings of actions, propagation fixed points and
nested checkpoints.  The property tests here drive ≥50 seeded tactic
chains over transformer/GNS/UNet traces, comparing every rollback against
a ``copy()``-based reference fork; further tests pin nested unwinding,
token discipline, dirty tracking and the interning
invariant ("one live object per signature") under concurrent readers.
"""

import random
import threading

import pytest

from repro.auto.evaluator import candidate_actions
from repro.core.actions import try_apply_action
from repro.core.propagate import propagate
from repro.core.sharding import Sharding, ShardingEnv
from repro.errors import ShardingError
from repro.ir.function import FunctionBuilder

from oracle import MESH, traced


CASES = ("transformer", "gns", "unet")  # their ``oracle.traced`` programs


def _env_state(env, values):
    return [env.sharding(v) for v in values]


@pytest.mark.parametrize("case", range(len(CASES)), ids=CASES)
@pytest.mark.parametrize("seed", range(17))
def test_rollback_matches_copy_forks_over_tactic_chains(case, seed):
    """≥50 seeded chains (17 seeds x 3 models): after any sequence of
    (checkpoint, action+propagate) steps, rolling back to each recorded
    token restores shardings bit-identical to the copy() fork taken at the
    same point."""
    function = traced(f"{CASES[case]}.tiny").function
    values = function.index.values

    env = ShardingEnv(MESH)
    propagate(function, env)
    candidates = candidate_actions(function, env, ["batch", "model"], 8)
    if not candidates:
        pytest.skip("no candidate actions for this trace")

    rng = random.Random(1000 * case + seed)
    checkpoints = []  # (token, reference copy, events length)
    for _ in range(rng.randrange(2, 6)):
        reference = env.copy(with_events=False)
        token = env.checkpoint()
        checkpoints.append((token, reference, len(env.events)))
        action = rng.choice(candidates)
        try_apply_action(function, env, action)
        propagate(function, env)

    # Unwind a random suffix of the stack, checking exact restoration.
    while checkpoints:
        index = rng.randrange(len(checkpoints))
        token, reference, events_length = checkpoints[index]
        del checkpoints[index:]
        env.rollback(token)
        assert len(env.events) == events_length
        assert not env.drain_dirty()
        for value in values:
            restored = env.sharding(value)
            expected = reference.sharding(value)
            assert restored is expected  # one object per signature


def test_search_clone_keeps_no_event_log():
    """``copy(with_events=False)`` -- the search's env -- neither inherits
    the caller's events nor records its own, and its checkpoints still
    restore it exactly; a plain copy goes on logging."""
    builder = FunctionBuilder("chain")
    x = builder.param((8, 4), name="x")
    w = builder.param((4, 4), name="w")
    function = builder.ret(builder.emit1(
        "dot_general", [x, w], {"lhs_contract": (1,), "rhs_contract": (0,)}))
    env = ShardingEnv(MESH)
    env.set_sharding(x, Sharding.replicated(2).with_tile(0, "batch"))
    propagate(function, env)
    assert env.events

    clone = env.copy(with_events=False)
    token = clone.checkpoint()
    clone.set_sharding(w, Sharding.replicated(2).with_tile(1, "model"))
    propagate(function, clone)
    assert len(clone.writes_since(token)) > 1 and clone.events == []
    clone.rollback(token)
    assert [clone.sharding(v) for v in function.index.values] == \
        [env.sharding(v) for v in function.index.values]

    logged = env.copy()
    logged.set_sharding(w, Sharding.replicated(2).with_tile(1, "model"))
    propagate(function, logged)
    assert len(logged.events) > len(env.events)


def test_nested_checkpoints_unwind_correctly():
    builder = FunctionBuilder("nested")
    params = [builder.param((8, 8), name=f"p{i}") for i in range(4)]
    env = ShardingEnv(MESH)

    outer = env.checkpoint()
    env.set_sharding(params[0], Sharding.replicated(2).with_tile(0, "batch"))
    inner = env.checkpoint()
    env.set_sharding(params[1], Sharding.replicated(2).with_tile(1, "model"))
    innermost = env.checkpoint()
    env.set_sharding(params[2], Sharding.replicated(2).with_sum("model"))

    env.rollback(innermost)
    assert env.sharding(params[2]).is_fully_replicated()
    assert env.sharding(params[1]).dim_axes == ((), ("model",))

    # Rolling back to the *outer* token unwinds the (unconsumed) inner
    # checkpoint too, and consumes both tokens.
    env.rollback(outer)
    for param in params:
        assert env.sharding(param).is_fully_replicated()
    assert env.checkpoint_depth == 0
    with pytest.raises(ShardingError):
        env.rollback(inner)


def test_stale_and_foreign_tokens_are_rejected():
    env = ShardingEnv(MESH)
    other = ShardingEnv(MESH)
    token = env.checkpoint()
    env.rollback(token)
    with pytest.raises(ShardingError):
        env.rollback(token)  # consumed
    foreign = other.checkpoint()
    with pytest.raises(ShardingError):
        env.rollback(foreign)


def test_rollback_after_interleaved_copy():
    """copy() freezing the delta between checkpoint and rollback must not
    break restoration (restore shadows the frozen bases)."""
    builder = FunctionBuilder("interleaved")
    a = builder.param((8, 8), name="a")
    b = builder.param((8, 8), name="b")
    env = ShardingEnv(MESH)
    env.set_sharding(a, Sharding.replicated(2).with_tile(0, "batch"))
    token = env.checkpoint()
    env.set_sharding(b, Sharding.replicated(2).with_tile(1, "model"))
    clone = env.copy()  # freezes the delta; clone must keep post-write view
    env.set_sharding(a, env.sharding(a).with_sum("model"))
    env.rollback(token)
    assert env.sharding(b).is_fully_replicated()
    assert env.sharding(a).dim_axes == (("batch",), ())
    assert not env.sharding(a).sum_axes
    # The clone (a fork, not a checkpoint) keeps its snapshot.
    assert clone.sharding(b).dim_axes == ((), ("model",))


def test_writes_since_replays_to_identical_state():
    function = traced("transformer.tiny").function
    env = ShardingEnv(MESH)
    propagate(function, env)
    candidates = candidate_actions(function, env, ["batch", "model"], 8)
    token = env.checkpoint()
    try_apply_action(function, env, candidates[0])
    propagate(function, env)
    delta = env.writes_since(token)
    assert delta

    values = function.index.values
    after = _env_state(env, values)
    env.rollback(token)
    replay_token = env.checkpoint()
    for value, sharding in delta:
        env.set_sharding(value, sharding)
    env.drain_dirty()
    assert _env_state(env, values) == after
    env.rollback(replay_token)


def test_dirty_set_seeds_propagation_and_is_drained_by_it():
    from repro.core import tile

    function = traced("transformer.tiny").function
    env = ShardingEnv(MESH)
    assert not env._dirty
    param = function.params[0]
    tile(env, param, 0, "batch")
    assert env._dirty == {param}
    propagate(function, env)
    assert not env._dirty
    assert env.stats.ops_processed > 0
    # Re-propagating a fixed point with no new writes visits nothing.
    before = env.stats.snapshot()
    propagate(function, env)
    assert env.stats.snapshot() == (before[0] + 1,) + before[1:]


def test_intern_table_single_object_per_signature():
    a = Sharding((("batch",), ()))
    b = Sharding([["batch"], []])
    assert a is b
    assert a.iid == b.iid
    # Distinct signatures, distinct objects/ids.
    c = Sharding(((), ("batch",)))
    assert c is not a and c.iid != a.iid
    # Derivation helpers hand out interned instances.
    assert a.with_sum("model") is a.with_sum("model")
    assert a.with_tile(1, "model") is a.with_tile(1, "model")


def test_intern_table_safe_under_concurrent_readers():
    """Writer threads building fresh shardings while reader threads
    rebuild existing signatures: readers must never see a torn table (a
    lookup returning a different object than the canonical one)."""
    base = Sharding.replicated(2)
    seeded = [base.with_tile(0, "batch"), base.with_tile(1, "model")]
    errors = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            for sharding in seeded:
                again = Sharding(sharding.dim_axes, sharding.sum_axes,
                                 sharding.pinned)
                if again is not sharding:
                    errors.append((sharding, again))
                    return

    def writer(seed):
        rng = random.Random(seed)
        for index in range(400):
            dims = tuple(
                tuple(axis for axis in ("batch", "model")
                      if rng.random() < 0.4 and index % 7)
                for _ in range(rng.randrange(1, 4))
            )
            used = {axis for axes in dims for axis in axes}
            sums = frozenset(
                axis for axis in ("batch", "model")
                if axis not in used and rng.random() < 0.3
            )
            first = Sharding(dims, sums)
            second = Sharding(dims, sums)
            if first is not second:
                errors.append((first, second))
                return

    readers = [threading.Thread(target=reader) for _ in range(3)]
    writers = [threading.Thread(target=writer, args=(seed,))
               for seed in range(3)]
    for thread in readers + writers:
        thread.start()
    for thread in writers:
        thread.join()
    stop.set()
    for thread in readers:
        thread.join()
    assert not errors


def test_pickled_shardings_drop_process_local_caches():
    import pickle

    # The pickle carries the fields alone; the receiver's constructor
    # resolves them to its canonical instance.
    for original in (Sharding((("batch",), ())),
                     Sharding(((), ("batch",)), {"model"}, {"stage"})):
        assert pickle.loads(pickle.dumps(original)) is original


def test_concurrent_reads_during_forks_and_writes():
    """Threaded readers hammering a child env while the parent writes and
    copies never observe a torn or stale sharding: ``copy()`` snapshots
    the store with one ``dict.copy()`` (atomic under the GIL) and the
    child owns its snapshot outright."""
    builder = FunctionBuilder("forks")
    values = [builder.param((8, 8), name=f"v{i}") for i in range(32)]
    parent = ShardingEnv(MESH)
    expected = {}
    for i, value in enumerate(values):
        sharding = Sharding.replicated(2).with_tile(
            i % 2, ("batch", "model")[i % 3 % 2])
        parent.set_sharding(value, sharding)
        expected[value] = sharding
    child = parent.copy()
    errors = []
    stop = threading.Event()

    def read_loop():
        while not stop.is_set():
            for value in values:
                observed = child.sharding(value)
                if observed is not expected[value]:
                    errors.append((value, observed))
                    return

    readers = [threading.Thread(target=read_loop) for _ in range(4)]
    for thread in readers:
        thread.start()
    # Parent churn: writes + copies after the child took its snapshot.
    for _ in range(200):
        for value in values[:4]:
            parent.set_sharding(value, Sharding.replicated(2))
            parent.set_sharding(value, expected[values[-1]])
        parent.copy()
    stop.set()
    for thread in readers:
        thread.join()
    assert not errors


@pytest.mark.parametrize("seed", range(10))
def test_checkpoint_release_rollback_interleaving_property(seed):
    """Random write/checkpoint/rollback interleavings against shadow
    ``copy()`` snapshots: a rollback restores shardings bit-exactly,
    whatever was nested inside; every consumed token — rolled back or
    swallowed by an outer rollback — raises the documented LIFO error from
    ``rollback`` *and* ``writes_since`` (a stale token's recorded undo
    offset indexes a log epoch that no longer exists, so slicing from it
    would silently return the wrong delta)."""
    builder = FunctionBuilder("interleave_prop")
    params = [builder.param((8, 8), name=f"p{i}") for i in range(6)]
    env = ShardingEnv(MESH)
    rng = random.Random(seed)
    pool = [
        Sharding.replicated(2),
        Sharding.replicated(2).with_tile(0, "batch"),
        Sharding.replicated(2).with_tile(1, "model"),
        Sharding.replicated(2).with_tile(0, "batch").with_tile(1, "model"),
        Sharding.replicated(2).with_sum("model"),
    ]
    live = []      # (token, shadow copy taken at checkpoint time)
    consumed = []  # tokens that must raise from now on
    for _ in range(120):
        roll = rng.random()
        if roll < 0.45:
            env.set_sharding(rng.choice(params), rng.choice(pool))
        elif roll < 0.65 or not live:
            live.append((env.checkpoint(), env.copy(with_events=False)))
        else:
            index = rng.randrange(len(live))  # any depth, not just innermost
            token, shadow = live[index]
            env.writes_since(token)  # live tokens always have a delta view
            env.rollback(token)
            consumed.extend(t for t, _ in live[index:])
            del live[index:]
            assert [env.sharding(p) for p in params] == \
                [shadow.sharding(p) for p in params]
        assert env.checkpoint_depth == len(live)
        for stale in consumed:
            with pytest.raises(ShardingError):
                env.rollback(stale)
            with pytest.raises(ShardingError):
                env.writes_since(stale)
    # Outer tokens that survived every inner rollback still
    # restore the exact state their checkpoint captured.
    while live:
        token, shadow = live.pop(0)
        env.rollback(token)
        consumed.extend(t for t, _ in live)
        live.clear()
        assert [env.sharding(p) for p in params] == \
            [shadow.sharding(p) for p in params]
