"""The PartIR schedule API (Section 3, Table 1).

A *schedule* is a list of tactics; each tactic desugars into low-level
compiler actions (``tile``, ``atomic``) followed by ``propagate``.  Tactics
compose in order and can never undo earlier decisions (an axis introduced on
a value stays).  ``partir_jit`` runs the schedule, lowers to device-local
SPMD code, and returns both an executable callable (on the simulated mesh)
and per-tactic metadata: the collective breakdown and analytical cost
estimates the paper highlights as PartIR's debugging feedback.  Each
lowering is :func:`~repro.spmd.lower.lower`'s, collectives already fused
(``reduce_scatter``, ``all_to_all``): there is no separate fusion pass.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.errors import ShardingError
from repro.ir.function import Function
from repro.ir.values import Value
from repro.mesh import Mesh
from repro.core import actions as core_actions
from repro.core import pipeline as pipeline_mod
from repro.core.propagate import propagate
from repro.core.sharding import Sharding, ShardingEnv
from repro.runtime.executor import MeshExecutor
from repro.sim import costmodel
from repro.sim.devices import TPU_V3, DeviceSpec
from repro.spmd.count import CollectiveCounts, count_collectives
from repro.spmd.lower import LoweredModule, lower
from repro.trace.tracer import TracedFunction


class _Replicated:
    def __repr__(self):
        return "REPLICATED"


class _FirstDivisibleDim:
    def __repr__(self):
        return "FIRST_DIVISIBLE_DIM"


class _Unknown:
    def __repr__(self):
        return "UNKNOWN"


#: Pin the matched inputs replicated along the tactic's axis (atomic action).
REPLICATED = _Replicated()
#: Shard the first dimension divisible by the axis size (paper Appendix A.4).
FIRST_DIVISIBLE_DIM = _FirstDivisibleDim()
#: Leave the decision to propagation.
UNKNOWN = _Unknown()

DimSpec = Union[int, _Replicated, _FirstDivisibleDim, _Unknown, Callable]


def _name_matches(key: str, input_name: str) -> bool:
    """``key`` matches ``input_name`` if its '/'-segments appear as a
    contiguous subsequence of the input's segments."""
    key_parts = key.split("/")
    name_parts = input_name.split("/")
    n, k = len(name_parts), len(key_parts)
    return any(name_parts[i:i + k] == key_parts for i in range(n - k + 1))


@dataclasses.dataclass
class TacticReport:
    """Per-tactic feedback (the metadata of Table 1's partir.jit row)."""

    tactic: str
    counts: CollectiveCounts
    estimate: Optional[costmodel.CostEstimate]
    conflicts: List[str]
    actions: int


class Tactic:
    """Base class: a tactic issues actions into the env, then propagates.

    :meth:`issue_actions` is the first half and returns how many actions
    it issued; :meth:`apply` runs it and then one propagation, seeded from
    the values those actions wrote.  A custom tactic is a few lines:

    >>> from repro import Mesh, ShapeDtype, trace
    >>> from repro.core import ShardingEnv, tile
    >>> class ShardFirstInput(Tactic):
    ...     name = "shard-first-input"
    ...     def issue_actions(self, function, env):
    ...         tile(env, function.params[0], 0, "d")
    ...         return 1
    >>> traced = trace(lambda x, w: x @ w,
    ...                ShapeDtype((8, 4)), ShapeDtype((4, 4)))
    >>> env = ShardingEnv(Mesh({"d": 2}))
    >>> ShardFirstInput().apply(traced.function, env)
    1
    >>> [env.sharding(v).spec() for v in traced.function.results]
    ['[{d}, {}]']
    """

    name = "tactic"

    def issue_actions(self, function: Function, env: ShardingEnv) -> int:
        raise NotImplementedError

    def apply(self, function: Function, env: ShardingEnv) -> int:
        applied = self.issue_actions(function, env)
        propagate(function, env)
        return applied


class ManualPartition(Tactic):
    """Shard named inputs (or ``tag``-named internals) along one mesh axis.

    ``inputs`` maps name patterns to dim specs: an int dimension,
    ``REPLICATED`` (atomic pin), ``FIRST_DIVISIBLE_DIM``, ``UNKNOWN``, or a
    callable ``f(name, value) -> spec`` for per-parameter logic (the paper's
    Megatron callbacks in Appendix A.4).  An int dimension outside ``0 <=
    dim < rank`` of a matched value raises :class:`ShardingError`.
    """

    def __init__(self, inputs: Dict[str, DimSpec], axis: str,
                 name: Optional[str] = None):
        self.inputs = inputs
        self.axis = axis
        self.name = name or f"manual<{axis}>"

    def _resolve(self, spec: DimSpec, name: str, value: Value):
        if callable(spec) and not isinstance(
            spec, (_Replicated, _FirstDivisibleDim, _Unknown)
        ):
            spec = spec(name, value)
        return spec

    def issue_actions(self, function: Function, env: ShardingEnv) -> int:
        axis_size = env.mesh.size(self.axis)
        applied = 0
        for key, spec in self.inputs.items():
            targets = [
                (input_name, value)
                for input_name, value in zip(function.input_names,
                                             function.params)
                if _name_matches(key, input_name)
            ]
            if not targets:
                try:
                    tagged = core_actions.find_tagged(function, key)
                    targets = [(key, tagged)]
                except KeyError:
                    raise ShardingError(
                        f"{self.name}: no input or tag matches {key!r}"
                    )
            for input_name, value in targets:
                resolved = self._resolve(spec, input_name, value)
                if resolved is UNKNOWN or resolved is None:
                    continue
                if resolved is REPLICATED:
                    if not env.sharding(value).uses(self.axis):
                        core_actions.atomic(env, value, self.axis)
                        applied += 1
                    continue
                if resolved is not FIRST_DIVISIBLE_DIM and not (
                        0 <= resolved < value.type.rank):
                    raise ShardingError(
                        f"{self.name}: dim {resolved} of input "
                        f"{input_name!r} is out of range (rank "
                        f"{value.type.rank})"
                    )
                sharding = env.sharding(value)
                if resolved is FIRST_DIVISIBLE_DIM:
                    resolved = core_actions.first_divisible_dim(
                        value, axis_size, sharding, env.mesh
                    )
                    if resolved is None:
                        continue
                if sharding.uses(self.axis):
                    continue  # never undo/duplicate earlier decisions
                if value.type.shape[resolved] % (
                    env.mesh.group_size(sharding.dim_axes[resolved])
                    * axis_size
                ):
                    continue
                core_actions.tile(env, value, resolved, self.axis)
                applied += 1
        return applied


class PipelinePartition(Tactic):
    """Pipeline a microbatch loop into stages along one mesh axis.

    Targets the ``loop_index``-th loop op (``scan``/``fori_loop``/
    ``while_loop``) in the function's canonical walk order and splits its
    body into ``mesh.size(axis)`` stages under ``schedule`` (``"1f1b"`` or
    ``"gpipe"``).  Desugars into the same :data:`~repro.core.actions.PIPELINE`
    action the automatic search enumerates, so manual and automatic
    pipelining price identically.  A ``loop_index`` outside
    ``0 <= loop_index < len(loops)`` raises :class:`ShardingError`.

    >>> from repro import Mesh, ShapeDtype, trace
    >>> from repro.core import ShardingEnv
    >>> from repro.trace import ops
    >>> def f(x, w):
    ...     def body(i, acc):
    ...         return ((acc @ w) @ w,)
    ...     return ops.fori_loop(0, 4, body, (x,))[0]
    >>> traced = trace(f, ShapeDtype((8, 4)), ShapeDtype((4, 4)))
    >>> env = ShardingEnv(Mesh({"stage": 2}))
    >>> PipelinePartition(axis="stage").apply(traced.function, env)
    1
    """

    def __init__(self, axis: str, schedule: str = "1f1b",
                 loop_index: int = 0, name: Optional[str] = None):
        self.axis = axis
        self.schedule = schedule
        self.loop_index = loop_index
        self.name = name or f"pipeline<{axis}:{schedule}>"

    def issue_actions(self, function: Function, env: ShardingEnv) -> int:
        loops = pipeline_mod.loop_ops(function)
        if not 0 <= self.loop_index < len(loops):
            raise ShardingError(
                f"{self.name}: loop index {self.loop_index} out of range "
                f"({len(loops)} loop ops)"
            )
        op = loops[self.loop_index]
        if not pipeline_mod.pipeline_legal(env, op, self.axis,
                                           self.schedule):
            raise ShardingError(
                f"{self.name}: pipelining loop {self.loop_index} on axis "
                f"{self.axis!r} is illegal (axis in use, too few body ops, "
                f"or already pipelined)"
            )
        pipeline_mod.apply_pipeline(env, op, self.axis, self.schedule)
        return 1


class AutomaticPartition(Tactic):
    """Search for a partitioning over the given axes (Section 3's AUTO).

    Wraps :mod:`repro.auto`'s Monte-Carlo tree search; any optimisation
    algorithm with the same action interface can be substituted.

    ``options`` holds :class:`repro.auto.SearchConfig` fields — what each
    one means is documented there, once — plus an optional ``"device"`` to
    price on; ``search_backend`` (the ``backend`` field) and ``cache_dir``
    are shorthands for those two.  All of it is validated here, at
    construction: a misspelled or ill-typed option raises ``TypeError`` /
    ``ValueError`` naming the valid fields instead of silently searching
    with a default.  ``partir_jit`` passes its ``device`` and
    ``plan_server`` to :meth:`apply` (``options`` win; nothing is written).

    Candidate shardings are scored through the streaming cost evaluator
    (``lower + estimate`` fused into one pass that never materializes
    device-local IR), bit-identical to the materializing
    pipeline ``partir_jit`` itself runs for the final lowering, since the
    executor needs real IR.  After ``apply``, ``last_search`` holds the
    full :class:`repro.auto.SearchResult` (evaluations, cache/warm-start
    hit counters, timing split, and what the self-healing backends had to
    recover from).

    >>> from repro import Mesh, ShapeDtype, partir_jit, trace
    >>> from repro.trace import ops
    >>> traced = trace(lambda w, x: ops.reduce_sum(x @ w),
    ...                ShapeDtype((16, 16)), ShapeDtype((8, 16)))
    >>> tactic = AutomaticPartition(["d"], {"budget": 4, "seed": 0})
    >>> _, meta = partir_jit(traced, Mesh({"d": 2}), [tactic],
    ...                      estimate_per_tactic=False)
    >>> result = tactic.last_search
    >>> result.plan_source, result.backend
    ('local', 'serial')
    >>> result.evaluations + result.cache_hits >= 4  # one per rollout
    True
    """

    def __init__(self, axes: Sequence[str],
                 options: Optional[Dict[str, Any]] = None,
                 search_backend: Optional[str] = None,
                 cache_dir: Optional[str] = None):
        # A repeated axis names no new action: ["b", "b"] searches ["b"].
        self.axes = list(dict.fromkeys(axes))
        shorthands = {"backend": search_backend, "cache_dir": cache_dir}
        self.options = {**(options or {}), **{
            key: value for key, value in shorthands.items()
            if value is not None}}
        self._search_arguments()  # fail on a bad option now, not mid-schedule
        self.name = f"auto<{','.join(self.axes)}>"
        #: The SearchResult of the most recent apply() (None before).
        self.last_search = None

    def _search_arguments(self, device: DeviceSpec = TPU_V3,
                          plan_server: Optional[str] = None
                          ) -> Dict[str, Any]:
        """``options`` over ``device`` / ``plan_server``, as validated
        ``run_automatic_partition`` keywords."""
        from repro.auto.search import SearchConfig

        fields = dict(self.options)
        device = fields.pop("device", device)
        if plan_server is not None:
            fields.setdefault("plan_server", plan_server)
        return {"device": device, "config": SearchConfig.of(**fields)}

    def apply(self, function: Function, env: ShardingEnv,
              device: DeviceSpec = TPU_V3,
              plan_server: Optional[str] = None) -> int:
        """Search, then replay the winner with one propagation per action
        (the search scores plans that way, so they cannot be issued as one
        batch)."""
        from repro.auto.search import run_automatic_partition

        results: list = []
        applied = run_automatic_partition(
            function, env, self.axes, result_sink=results,
            **self._search_arguments(device, plan_server)
        )
        self.last_search = results[-1] if results else None
        return applied


@dataclasses.dataclass
class Metadata:
    """Everything partir_jit learned while partitioning."""

    reports: List[TacticReport]
    input_shardings: Dict[str, str]
    output_shardings: Dict[str, str]
    partition_time_s: float
    lower_time_s: float
    env: ShardingEnv
    lowered: LoweredModule
    global_function: Function

    @property
    def counts(self) -> CollectiveCounts:
        return count_collectives(self.lowered.function)

    @property
    def estimate(self) -> Optional[costmodel.CostEstimate]:
        return self.reports[-1].estimate if self.reports else None


class PartitionedFunction:
    """The distributed callable returned by partir_jit."""

    def __init__(self, traced: TracedFunction, lowered: LoweredModule):
        self.traced = traced
        self.lowered = lowered
        self._executor = MeshExecutor(lowered)

    def __call__(self, *args):
        flat = self.traced.flatten_args(*args)
        outputs = self._executor(*flat)
        return self.traced.unflatten_results(outputs)


def partir_jit(
    traced: TracedFunction,
    mesh: Mesh,
    schedule: Sequence[Tactic],
    device: DeviceSpec = TPU_V3,
    estimate_per_tactic: bool = True,
    plan_server: Optional[str] = None,
):
    """Partition a traced function with a schedule of tactics.

    Returns ``(PartitionedFunction, Metadata)``: the callable runs on the
    simulated mesh; the metadata carries per-tactic collective counts, cost
    estimates and conflicts — PartIR's incremental feedback loop.

    >>> import numpy as np
    >>> from repro import ManualPartition, Mesh, ShapeDtype, trace
    >>> traced = trace(lambda x, w: x @ w,
    ...                ShapeDtype((8, 4)), ShapeDtype((4, 4)))
    >>> fn, meta = partir_jit(traced, Mesh({"d": 2}),
    ...                       [ManualPartition({"0": 0}, axis="d")])
    >>> meta.input_shardings["0"]  # batch dim tiled over the d axis
    '[{d}, {}]'
    >>> out = fn(np.ones((8, 4), np.float32), np.eye(4, dtype=np.float32))
    >>> out.shape
    (8, 4)

    Each tactic's propagation is seeded from the values its actions wrote,
    so it costs the tactic's delta, not a sweep of the whole function.
    With ``estimate_per_tactic`` each tactic is then lowered — fused as
    emitted, reusing every lowering plan an earlier tactic built — and
    counted and priced on that program.
    Per-tactic ``conflicts`` lists the *distinct* conflicts that first
    appeared under that tactic, deduped across the schedule.

    ``device`` prices the per-tactic and final estimates and every
    :class:`AutomaticPartition` search that does not pin its own
    ``"device"`` option.

    ``plan_server="host:port"`` points every :class:`AutomaticPartition`
    in the schedule (that does not pin its own) at a
    :mod:`repro.auto.server` daemon: searches are answered from the
    shared plan store when possible and fall back to local search when
    the server is unreachable.  A per-address circuit breaker
    (:mod:`repro.auto.rpc`; ``BREAKER_THRESHOLD`` / ``BREAKER_COOLDOWN_S``)
    makes a flapping server cost one timeout per cooldown window, not one
    per call — ``last_search.server_circuit_open`` reports a skipped
    request.
    """
    function = traced.function
    env = ShardingEnv(mesh)
    reports: List[TacticReport] = []
    seen_conflicts = set()

    def new_conflicts() -> List[str]:
        fresh = []
        for event in env.conflicts():
            key = (id(event.op), event.kind, event.axis, event.detail)
            if key not in seen_conflicts:
                seen_conflicts.add(key)
                fresh.append(event.detail)
        return fresh

    def timed_lower():
        """(lowering of the env as it stands — ``lower`` emits every
        reconcile chain fused — seconds, write serial)."""
        lower_start = time.perf_counter()
        lowered = lower(function, env)
        return (lowered, time.perf_counter() - lower_start,
                env.write_serial)

    start = time.perf_counter()
    snapshot = lower_time = snapshot_serial = None
    for tactic in schedule:
        if isinstance(tactic, AutomaticPartition):
            # Price candidates the way the final estimate prices the plan.
            applied = tactic.apply(function, env, device=device,
                                   plan_server=plan_server)
        else:
            applied = tactic.apply(function, env)
        report_estimate = None
        counts = CollectiveCounts()
        if estimate_per_tactic:
            snapshot, lower_time, snapshot_serial = timed_lower()
            counts = count_collectives(snapshot.function)
            report_estimate = costmodel.estimate(snapshot, device)
        reports.append(
            TacticReport(
                tactic=tactic.name,
                counts=counts,
                estimate=report_estimate,
                conflicts=new_conflicts(),
                actions=applied,
            )
        )
    partition_time = time.perf_counter() - start

    # The last tactic's snapshot is the final lowering unless the env has
    # moved since it was taken.
    lowered = snapshot
    if snapshot_serial != env.write_serial:
        lowered, lower_time, _ = timed_lower()

    if not estimate_per_tactic or not reports:
        final_estimate = costmodel.estimate(lowered, device)
        reports.append(
            TacticReport("final", count_collectives(lowered.function),
                         final_estimate, [], 0)
        )

    metadata = Metadata(
        reports=reports,
        input_shardings={
            name: env.sharding(p).spec()
            for name, p in zip(function.input_names, function.params)
        },
        output_shardings={
            name: s.spec()
            for name, s in zip(function.output_names,
                               lowered.output_shardings)
        },
        partition_time_s=partition_time,
        lower_time_s=lower_time,
        env=env,
        lowered=lowered,
        global_function=function,
    )
    return PartitionedFunction(traced, lowered), metadata
