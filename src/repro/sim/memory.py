"""Live-range peak-memory analysis of device-local programs (Appendix A.3.2).

"We implement a live range analysis of a tensor usage in a given SPMD context
at the PartIR:HLO level, where we follow a tensor as long as it is being
used" — this module is that analysis.  A simple fusion heuristic treats
zero-cost shape ops (reshape/transpose/broadcast-of-scalar) as aliasing their
operand rather than allocating, mimicking what a backend compiler would fuse.

The analysis runs over a :class:`LiveRangeLog` — a compact stream of
``(operand uids, result (uid, nbytes) pairs, alias flag, transient extra)``
records.  :func:`peak_live_bytes` builds the log by walking a materialized
:class:`~repro.ir.function.Function`; the search's estimator
(:class:`repro.sim.costmodel.StreamingEstimator`) appends the identical
records as it folds its per-op segments — per function, loop regions
included — so both paths share one peak-memory algorithm —
:meth:`LiveRangeLog.peak_bytes`, a linear walk — without the search ever
allocating IR objects.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.ir import opdefs
from repro.ir.function import Function
from repro.ir.values import Value

# Ops assumed fused/aliased by the backend: they do not allocate.
ALIASING_OPS = {"reshape", "transpose", "tag", "stop_gradient", "convert"}


def value_bytes(value: Value) -> int:
    return value.type.nbytes


class LiveRangeLog:
    """Streaming op log feeding the live-range peak-memory analysis.

    One record per executed op: which uids it reads, which (uid, nbytes)
    it defines, whether it aliases its operand instead of allocating, and
    any transient bytes (a scan body's extra) that spike only during the op.
    """

    __slots__ = ("_params", "_ops")

    def __init__(self):
        self._params: List[Tuple[int, int]] = []
        self._ops: List[tuple] = []

    def add_param(self, uid: int, nbytes: int) -> None:
        self._params.append((uid, nbytes))

    def add_op(self, operand_uids: Sequence[int],
               result_pairs: Sequence[Tuple[int, int]],
               alias: bool = False, extra: int = 0) -> None:
        self._ops.append((tuple(operand_uids), tuple(result_pairs),
                          alias, extra))

    def peak_bytes(self, result_uids: Sequence[int]) -> int:
        """Peak sum of live tensor bytes across the logged execution.

        Two passes: the first resolves alias classes and folds every uid's
        last operand use onto its class root, producing one free event per
        root; the second walks the records accumulating allocations and
        applying the precomputed frees.  Equivalent to checking every
        touched uid per record (a root's folded last use is exactly the
        index at which the old per-record scan would have freed it), with
        O(1) work per record plus O(1) per free.
        """
        ops = self._ops
        alias_of: Dict[int, int] = {}
        last_use: Dict[int, int] = {}
        for index, (operands, results, alias, _) in enumerate(ops):
            if alias:
                alias_of[results[0][0]] = operands[0]
            for uid in operands:
                last_use[uid] = index

        def root(uid: int) -> int:
            while uid in alias_of:
                uid = alias_of[uid]
            return uid

        out_roots: Set[int] = {root(uid) for uid in result_uids}
        # One free event per alias-class root: the class's maximum operand
        # use (aliases extend the root's lifetime).
        root_lu: Dict[int, int] = {}
        for uid, index in last_use.items():
            root_uid = root(uid)
            if root_uid not in out_roots:
                existing = root_lu.get(root_uid, -1)
                if index > existing:
                    root_lu[root_uid] = index
        freed_at: Dict[int, List[int]] = {}
        for root_uid, index in root_lu.items():
            freed_at.setdefault(index, []).append(root_uid)

        nbytes = dict(self._params)
        live = 0
        # Parameters are live from the start.
        for _, size in self._params:
            live += size
        peak = live
        freed_at_get = freed_at.get
        for index, (operands, results, alias, extra) in enumerate(ops):
            if alias:
                nbytes[results[0][0]] = results[0][1]
            else:
                for uid, size in results:
                    nbytes[uid] = size
                    live += size
                if extra:
                    # A scan body's transient peak rides on top of the
                    # carries for the duration of the op.
                    transient = live + extra
                    if transient > peak:
                        peak = transient
            if live > peak:
                peak = live
            frees = freed_at_get(index)
            if frees is not None:
                for root_uid in frees:
                    live -= nbytes[root_uid]
            # A result never consumed downstream (and not an output) dies
            # with its defining record, exactly like the old per-record
            # scan's last_use default of -1.
            if not alias:
                for uid, size in results:
                    if uid not in last_use and uid not in out_roots:
                        live -= size
        return peak


def peak_live_bytes(function: Function) -> int:
    """Peak sum of live tensor bytes across the function's execution."""
    log = LiveRangeLog()
    for param in function.params:
        log.add_param(param.uid, value_bytes(param))
    for op in function.ops:
        extra = _loop_extra(op) if op.opcode in opdefs.LOOP_OPS else 0
        log.add_op(
            [operand.uid for operand in op.operands],
            [(result.uid, value_bytes(result)) for result in op.results],
            alias=op.opcode in ALIASING_OPS,
            extra=extra,
        )
    return log.peak_bytes([result.uid for result in function.results])


def _region_extra(region: Function) -> Tuple[int, int]:
    """(peak, params bytes) of one loop region's single-iteration run."""
    inner_peak = peak_live_bytes(region)
    params = sum(value_bytes(p) for p in region.params)
    return inner_peak, params


def _loop_extra(op) -> int:
    """Transient memory a loop op spikes beyond its carries: the body's
    per-iteration extra (scaled by in-flight microbatches when pipelined,
    via the op's ``pipeline_*`` attrs) plus the cond region's, for
    ``while_loop``."""
    extra = loop_extra_bytes(op.attrs, *_region_extra(op.regions[0]))
    for region in op.regions[1:]:
        extra += scan_body_extra_bytes(*_region_extra(region))
    return extra


def scan_body_extra_bytes(body_peak: int, body_params_bytes: int) -> int:
    """The transient spike one loop-body iteration adds on top of its
    carries, from the body's already-computed peak and parameter bytes."""
    return max(0, body_peak - body_params_bytes)


def loop_extra_bytes(attrs: dict, body_peak: int,
                     body_params_bytes: int) -> int:
    """A loop body's transient extra, accounting for pipelining.

    Unpipelined loops run one iteration at a time, so the extra is the
    single-iteration spike (exactly :func:`scan_body_extra_bytes`).  A
    pipelined loop keeps several microbatches' activations in flight at
    once: ``min(stages, trip_count)`` under 1F1B (a stage starts a
    backward as soon as its forward completes, bounding the queue at the
    stage count) and ``trip_count`` under GPipe (all forwards complete
    before any hand-back).

    >>> loop_extra_bytes({"trip_count": 8}, 100, 40)
    60
    >>> attrs = {"trip_count": 8, "pipeline_stages": 4,
    ...          "pipeline_schedule": "1f1b"}
    >>> loop_extra_bytes(attrs, 100, 40)
    240
    >>> loop_extra_bytes({**attrs, "pipeline_schedule": "gpipe"}, 100, 40)
    480
    """
    extra = max(0, body_peak - body_params_bytes)
    stages = attrs.get("pipeline_stages")
    if stages:
        trips = attrs["trip_count"]
        if attrs.get("pipeline_schedule") == "gpipe":
            extra *= trips
        else:
            extra *= min(stages, trips)
    return extra
