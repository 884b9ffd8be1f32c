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
records as it folds its per-op instances — per function, loop regions
included — so both paths share one peak-memory algorithm —
:meth:`LiveRangeLog.peak_bytes`, one live interval per alias-class root
and a prefix sum — without the search ever allocating IR objects.
"""

from __future__ import annotations

from itertools import accumulate, compress, count
from operator import itemgetter, not_
from typing import Dict, List, Sequence, Tuple

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
    An *alias* names a uid no record defines by the uid it stands for (a
    dropped transparent ``tag``'s result, in the search's estimator): a
    use of it is a use of its target, at the user's position.
    """

    __slots__ = ("_params", "_ops", "_aliases")

    def __init__(self):
        self._params: List[Tuple[int, int]] = []
        self._ops: List[tuple] = []
        #: uid -> the uid it stands for.
        self._aliases: Dict[int, int] = {}

    def add_param(self, uid: int, nbytes: int) -> None:
        self._params.append((uid, nbytes))

    def add_op(self, operand_uids: Sequence[int],
               result_pairs: Sequence[Tuple[int, int]],
               alias: bool = False, extra: int = 0) -> None:
        self._ops.append((tuple(operand_uids), tuple(result_pairs),
                          alias, extra))

    def peak_bytes(self, result_uids: Sequence[int]) -> int:
        """Peak sum of live tensor bytes across the logged execution.

        A tensor is live from its def record through the last record that
        uses any uid of its alias class (an aliasing record's result, an
        alias of :attr:`_aliases`, recursively), read after that record's
        allocations; a record-defined tensor nothing uses dies with its
        def, an output never dies and an unused parameter lives
        throughout.  So each class root contributes one interval, and the
        live bytes at every record are one prefix sum over the intervals'
        end points: O(1) work per use, per defined uid and per alias.
        """
        ops = self._ops
        # Each uid's last operand use: a later record overwrites.
        last_use: Dict[int, int] = {
            uid: index for index, record in enumerate(ops)
            for uid in record[0]}
        alias_of: Dict[int, int] = dict(self._aliases)
        flags = list(map(itemgetter(2), ops))
        for record in compress(ops, flags):
            alias_of[record[1][0][0]] = record[0][0]

        def root(uid: int) -> int:
            while uid in alias_of:
                uid = alias_of[uid]
            return uid

        # One end per alias-class root: the class's last use, or past the
        # last record for an output.
        end_of = dict(last_use)
        for uid in alias_of:
            index = end_of.pop(uid, None)
            if index is not None:
                root_uid = root(uid)
                if index > end_of.get(root_uid, -1):
                    end_of[root_uid] = index
        for uid in result_uids:
            end_of[root(uid)] = len(ops)
        end_get = end_of.get
        # delta[i]: bytes allocated at record i minus bytes freed after
        # record i - 1.
        delta = [0] * (len(ops) + 2)
        start = 0
        for uid, size in self._params:
            start += size
            delta[end_get(uid, len(ops)) + 1] -= size
        defining = compress(zip(count(), map(itemgetter(1), ops)),
                            map(not_, flags))
        for index, results in defining:
            for uid, size in results:
                delta[index] += size
                delta[end_get(uid, index) + 1] -= size
        live = list(accumulate(delta, initial=start))
        peak = max(live)
        # A loop's transient extra rides on top of the carries for the
        # duration of its record.
        for index in compress(count(), map(itemgetter(3), ops)):
            transient = live[index + 1] + ops[index][3]
            if transient > peak:
                peak = transient
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
