"""Golden pins for the propagation kernel and the condenser's digests.

Propagation seeded from a tactic's writes and the whole-function sweep of
``oracle.full_sweep`` run the same compiled kernel, so comparing them
cannot see a bug the kernel has.  These pins can:
``tests/golden/propagation.json`` was written by ``python
tests/test_propagation_golden.py --regen`` on the commit *before* the
kernel was compiled, and holds, for one program per model family under a
fixed manual schedule, a blake2b of ``env.portable_state(function)``, a
blake2b of the ``(kind, axis, detail)`` event list and
``env.stats.snapshot()`` — once with each tactic propagating from its own
actions (``incremental``) and once with each followed by a full sweep
(``scratch``) — plus the same three for the GSPMD baseline's one-shot run
(it shares the kernel and overrides its conflict policy), a hand-built
footprint digest and the condenser's signatures on ``transformer.tiny``.
The file's stats rows predate the removal of the per-mode call counter
and still carry it at index 1; the comparison drops it.  Their visit
counts (index 2) were re-pinned, alone, when a settled visit stopped
re-enqueueing its own op (``tests/test_settled_revisits.py``); every
other entry is as first written.
Regenerate only for a change that is *meant* to move fixed points, events
or visit counts, and say so in the PR.
"""
import functools
import hashlib
import json
import os
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.auto.evaluator import Evaluator, candidate_actions
from repro.auto.prune import condense, footprint_digest
from repro.baselines.gspmd import gspmd_partition
from repro.core.propagate import propagate
from repro.core.sharding import Sharding, ShardingEnv
from repro.sim.devices import TPU_V3

from oracle import (FAMILIES, MESH, apply_with_full_sweep, reference_index,
                    traced)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "propagation.json")
#: The pinned families of ``oracle.FAMILIES``.
CASES = ("transformer.tiny", "unet.tiny", "gns.tiny", "pm.tiny", "moe.8",
         "bottleneck.ensemble")


def _digest(obj) -> str:
    return hashlib.blake2b(repr(obj).encode(), digest_size=16).hexdigest()


def _events(function, env):
    """``(kind, axis, detail)`` per event, with the process-global value
    uids in details (``%v123``) replaced by canonical value indices.
    Details are rendered here, not through ``Event.detail``, which keeps
    the text in place of the payload: the kernel runs are shared with
    ``test_settled_revisits.py``, which compares unrendered payloads."""
    index = {value.uid: i
             for i, value in enumerate(reference_index(function)[1])}

    def text(detail):
        return (detail[0].format(*detail[1:]) if isinstance(detail, tuple)
                else detail)

    return [
        (event.kind, event.axis,
         re.sub(r"%v(\d+)", lambda m: f"%#{index[int(m.group(1))]}",
                text(event._detail)))
        for event in env.events
    ]


def _pins(function, env) -> dict:
    events = _events(function, env)
    return {
        "state": _digest(env.portable_state(function)),
        "events": _digest(events),
        "num_events": len(events),
        "stats": list(env.stats.snapshot()),
    }


def _pinned(pins: dict) -> dict:
    """``pins`` from the file, less the retired call-counter stats
    column (index 1 of a 4-entry row)."""
    stats = pins["stats"]
    if len(stats) == 4:
        stats = stats[:1] + stats[2:]
    return dict(pins, stats=stats)


def run_schedule(family: str, sweep: bool):
    """``family``'s schedule on a fresh env over its shared trace, each
    tactic propagated from its writes or, with ``sweep``, by a
    whole-function sweep: ``(function, env)``."""
    spec = FAMILIES[family]
    function = traced(family).function
    env = ShardingEnv(spec.mesh)
    for tactic in spec.schedule():
        if sweep:
            apply_with_full_sweep(tactic, function, env)
        else:
            tactic.apply(function, env)
    return function, env


#: The kernel's run of each schedule, once per session: pinned here and
#: compared with the revisiting oracle in ``test_settled_revisits.py``.
kernel_schedule = functools.lru_cache(maxsize=None)(run_schedule)


def _run(family: str, sweep: bool) -> dict:
    return _pins(*kernel_schedule(family, sweep))


#: Annotations that race in GSPMD's single shot: 10 greedy resolutions.
GSPMD_ANNOTATIONS = {
    "tokens": (0, "batch"), "targets": (0, "batch"),
    "qkv_w": (2, "model"), "mlp_up_w": (1, "model"),
    "embedding": (1, "model"), "mlp_down_w": (1, "batch"),
}


def run_gspmd():
    function = traced("transformer.tiny").function
    return function, gspmd_partition(function, MESH, GSPMD_ANNOTATIONS)


kernel_gspmd = functools.lru_cache(maxsize=None)(run_gspmd)


def _gspmd_run() -> dict:
    function, env = kernel_gspmd()
    pins = _pins(function, env)
    pins["conflicts"] = len(env.conflicts())
    return pins


#: A footprint written by hand: two tiled values, one pending sum, one pin.
HAND_DELTA = [
    (7, ((("batch",), ()), (), ())),
    (3, (((), ("batch", "model")), (), ())),
    (11, (((),), ("model",), ())),
    (4, (((), ()), (), ("batch",))),
]


def _condenser_signatures() -> dict:
    function = traced("transformer.tiny").function
    evaluator = Evaluator(function, ShardingEnv(MESH), TPU_V3)
    candidates = candidate_actions(function, evaluator.root,
                                   ["batch", "model"], 48)
    report = condense(evaluator, candidates)
    return {json.dumps(list(action)): signature
            for action, signature in report.signatures.items()}


def compute() -> dict:
    return {
        "families": {
            family: {"scratch": _run(family, True),
                     "incremental": _run(family, False)}
            for family in CASES
        },
        "gspmd": _gspmd_run(),
        "hand_delta_digest": footprint_digest(HAND_DELTA),
        "condenser_signatures": _condenser_signatures(),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("sweep", [True, False],
                         ids=["scratch", "incremental"])
@pytest.mark.parametrize("family", sorted(CASES))
def test_fixed_point_events_and_stats_are_pinned(golden, family, sweep):
    mode = "scratch" if sweep else "incremental"
    assert _run(family, sweep) == _pinned(golden["families"][family][mode])


def test_gspmd_baseline_run_is_pinned(golden):
    assert golden["gspmd"]["conflicts"] > 0
    assert _gspmd_run() == _pinned(golden["gspmd"])


def test_hand_built_delta_digest_is_pinned(golden):
    assert footprint_digest(HAND_DELTA) == golden["hand_delta_digest"]
    assert footprint_digest(list(reversed(HAND_DELTA))) \
        == golden["hand_delta_digest"]
    assert footprint_digest([]) == "noop"


def test_condenser_signatures_are_pinned(golden):
    assert _condenser_signatures() == golden["condenser_signatures"]


_AXES = st.permutations(["batch", "model", "stage"])


@st.composite
def _shardings(draw):
    rank = draw(st.integers(0, 3))
    axes = list(draw(_AXES))[:draw(st.integers(0, 3))]
    dims = [[] for _ in range(rank)]
    sums, pins = [], []
    for axis in axes:
        slot = draw(st.integers(0, rank + 1))
        if slot < rank:
            dims[slot].append(axis)
        elif slot == rank:
            sums.append(axis)
        else:
            pins.append(axis)
    return Sharding(tuple(tuple(d) for d in dims), frozenset(sums),
                    frozenset(pins))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5000), _shardings()),
                max_size=8, unique_by=lambda pair: pair[0]))
def test_cached_repr_digest_equals_footprint_digest(delta):
    """The probe path digests from the repr cached on each sharding; the
    persisted ``"pa"`` records were written by
    ``footprint_digest`` over portable tuples.  Same bytes."""
    from repro.auto.prune import delta_digest

    expected = footprint_digest(
        [(index, (s.dim_axes, tuple(sorted(s.sum_axes)),
                  tuple(sorted(s.pinned)))) for index, s in delta])
    assert delta_digest(delta) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_propagation_golden.py --regen")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(compute(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote", GOLDEN)
