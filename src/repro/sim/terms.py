"""The simulator's pricing table and its one fold (Appendix A.3).

Every estimate in :mod:`repro.sim.costmodel` is a sum over *cost terms*,
and this module is the only place terms are made or summed:

* ``("fl", flops)`` / ``("cp", compute_s)`` — local FLOPs and the seconds
  they take (:func:`compute_terms`),
* ``("cb", bytes)`` / ``("cs", comm_s)`` / ``("co", opcode, seconds)`` —
  bytes on the wire, seconds on the wire, and the same seconds again under
  the collective's opcode for the per-collective breakdown
  (:func:`collective_terms`),
* :func:`loop_cost_terms` — a loop op's terms from its region estimates,
  schedule bubble and stage hand-offs included when pipelined.

:class:`TermSum` collects terms append-only and finalises each field with
:func:`math.fsum`, the correctly-rounded sum of the term multiset — so a
total depends on *which* terms were added, never on the order, and the
materializing walk and the search's segment fold agree bit for bit as
long as they add the same terms.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ir import opdefs
from repro.mesh import Mesh
from repro.sim.devices import DeviceSpec
from repro.spmd.collectives import is_collective

# Fraction of peak FLOPs dense ops actually achieve; keeps MFU in the
# realistic 40-60% band the paper reports instead of an idealised 100%.
_COMPUTE_EFFICIENCY = 0.62


@dataclasses.dataclass
class CostEstimate:
    """Simulator output for one partitioned program."""

    runtime_s: float
    compute_s: float
    comm_s: float
    local_flops: float
    comm_bytes: float
    peak_memory_bytes: float
    collective_time_s: Dict[str, float]


def compute_terms(flops: float, device: DeviceSpec) -> tuple:
    """Terms of ``flops`` local FLOPs: ``flops / (peak_flops x 0.62)``
    seconds.  Zero FLOPs cost nothing and yield no terms.

    >>> device = DeviceSpec("doc", peak_flops=1e12, hbm_bytes=1e9,
    ...                     link_bandwidth=1e9, collective_latency=1e-6)
    >>> compute_terms(3.1e9, device)
    (('fl', 3100000000.0), ('cp', 0.005))
    >>> compute_terms(0.0, device)
    ()
    """
    if not flops:
        return ()
    return (("fl", flops),
            ("cp", flops / (device.peak_flops * _COMPUTE_EFFICIENCY)))


def collective_cost(opcode: str, attrs: dict, operand_bytes: float,
                    result_bytes: float, mesh: Mesh,
                    device: DeviceSpec) -> Tuple[float, float]:
    """(bytes_on_wire, seconds) for one collective, from sizes + attrs.

    Ring-style costs over the ``n`` devices of the mesh axes the collective
    spans: an ``all_reduce`` moves ``2 (n-1)/n`` of its operand, an
    ``all_gather`` ``(n-1)/n`` of its *result*, ``reduce_scatter`` and
    ``all_to_all`` ``(n-1)/n`` of their operand; each pays link bandwidth
    plus one launch latency.  ``all_slice`` is device-local and free.

    >>> mesh = Mesh({"batch": 4, "model": 2})
    >>> device = DeviceSpec("doc", peak_flops=1e12, hbm_bytes=1e9,
    ...                     link_bandwidth=1e9, collective_latency=1e-6)
    >>> collective_cost("all_reduce", {"axes": ("batch",)}, 4000, 4000,
    ...                 mesh, device)
    (6000.0, 7e-06)
    >>> collective_cost("all_gather", {"dims": (("model",), ())}, 500, 1000,
    ...                 mesh, device)
    (500.0, 1.5e-06)
    >>> collective_cost("all_slice", {"dims": (("model",),)}, 1000, 500,
    ...                 mesh, device)
    (0.0, 0.0)
    """
    if opcode == "all_reduce":
        axes = attrs["axes"]
        n = mesh.group_size(axes)
        bytes_moved = 2.0 * operand_bytes * (n - 1) / max(n, 1)
    elif opcode == "all_gather":
        axes = [a for dim_axes in attrs["dims"] for a in dim_axes]
        n = mesh.group_size(axes)
        bytes_moved = result_bytes * (n - 1) / max(n, 1)
    elif opcode == "reduce_scatter":
        axes = [a for dim_axes in attrs["dims"] for a in dim_axes]
        n = mesh.group_size(axes)
        bytes_moved = operand_bytes * (n - 1) / max(n, 1)
    elif opcode == "all_to_all":
        axes = attrs["axes"]
        n = mesh.group_size(axes)
        bytes_moved = operand_bytes * (n - 1) / max(n, 1)
    elif opcode == "all_slice":
        return 0.0, 0.0  # device-local
    else:
        raise ValueError(f"not a collective: {opcode}")
    seconds = bytes_moved / device.link_bandwidth + device.collective_latency
    return bytes_moved, seconds


def collective_terms(opcode: str, attrs: dict, operand_bytes: float,
                     result_bytes: float, mesh: Mesh,
                     device: DeviceSpec) -> tuple:
    """Terms of one collective (see :func:`collective_cost`).  A free
    ``all_slice`` still yields its ``"co"`` term, so it shows up — at zero
    seconds — in ``collective_time_s``."""
    bytes_moved, seconds = collective_cost(
        opcode, attrs, operand_bytes, result_bytes, mesh, device)
    return (("cb", bytes_moved), ("cs", seconds), ("co", opcode, seconds))


def op_terms(opcode: str, attrs: dict, operands, results, mesh: Mesh,
             device: DeviceSpec) -> tuple:
    """Terms of one device-local, non-loop op; ``operands`` / ``results``
    are IR values."""
    if is_collective(opcode):
        return collective_terms(opcode, attrs, operands[0].type.nbytes,
                                results[0].type.nbytes, mesh, device)
    opdef = opdefs.get(opcode)
    if not opdef.flops:
        return ()
    return compute_terms(opdef.flops([v.type for v in operands], attrs),
                         device)


def _region_terms(region: CostEstimate, trips: int, flops: float,
                  compute_s: float) -> list:
    """One loop region's terms: communication runs once per trip; the
    caller supplies the (possibly pipelined) compute."""
    terms = [("fl", flops), ("cp", compute_s),
             ("cb", region.comm_bytes * trips),
             ("cs", region.comm_s * trips)]
    for opcode, seconds in region.collective_time_s.items():
        terms.append(("co", opcode, seconds * trips))
    return terms


def loop_cost_terms(attrs: dict, body: CostEstimate, device: DeviceSpec,
                    cond: Optional[CostEstimate] = None) -> list:
    """The cost terms of one loop op, from its region estimates.

    Unpipelined, the body simply runs ``trip_count`` times: one term per
    field, scaled by the trip count.  With ``pipeline_*`` attrs present
    (see :func:`repro.core.pipeline.pipeline_schedule_attrs`), the body is
    split into ``K = pipeline_stages`` stages over a mesh axis and the
    ``T = trip_count`` iterations stream through as microbatches:

    * per-device FLOPs shrink to the heaviest stage's share ``f``
      (``pipeline_stage_fraction``) — ``T`` microbatches of ``f x`` body
      work actually execute on the critical device;
    * compute *time* pays the schedule bubble: the critical stage is busy
      for ``T + K - 1`` slots of ``f x`` body compute (the classic
      GPipe/1F1B bubble fraction ``(K-1)/(T+K-1)``);
    * collectives inside the body (spanning the other mesh axes) still run
      once per microbatch — unchanged ``x T`` terms;
    * stage hand-offs add point-to-point transfers:
      ``pipeline_p2p_bytes x T`` bytes on the wire, paying link bandwidth
      plus one launch latency per boundary crossing (``(K-1) x T``),
      reported under the pseudo-collective key ``"pipeline_p2p"``.

    ``cond`` is a ``while_loop``'s condition-region estimate: it runs once
    per iteration on every device (lockstep), so its terms ride unpipelined
    at ``x T`` regardless of schedule.

    >>> device = DeviceSpec("doc", peak_flops=1e12, hbm_bytes=1e9,
    ...                     link_bandwidth=1e9, collective_latency=1e-6)
    >>> body = CostEstimate(0.0, 0.5, 0.25, 1e9, 2e6, 0.0,
    ...                     {"all_reduce": 0.25})
    >>> loop_cost_terms({"trip_count": 8}, body, device)
    ... # doctest: +NORMALIZE_WHITESPACE
    [('fl', 8000000000.0), ('cp', 4.0), ('cb', 16000000.0), ('cs', 2.0),
     ('co', 'all_reduce', 2.0)]
    >>> attrs = {"trip_count": 8, "pipeline_stages": 4,
    ...          "pipeline_stage_fraction": 0.25, "pipeline_p2p_bytes": 1000}
    >>> loop_cost_terms(attrs, body, device)[:2]    # 8 x 1/4; 11 slots x 1/4
    [('fl', 2000000000.0), ('cp', 1.375)]
    >>> loop_cost_terms(attrs, body, device)[-3:]   # 8 kB, 24 launches
    [('cb', 8000.0), ('cs', 3.2e-05), ('co', 'pipeline_p2p', 3.2e-05)]
    """
    trips = attrs["trip_count"]
    stages = attrs.get("pipeline_stages")
    if not stages:
        terms = _region_terms(body, trips, body.local_flops * trips,
                              body.compute_s * trips)
    else:
        fraction = attrs["pipeline_stage_fraction"]
        slots = trips + stages - 1
        terms = _region_terms(body, trips,
                              body.local_flops * fraction * trips,
                              body.compute_s * fraction * slots)
        moved = float(attrs["pipeline_p2p_bytes"]) * trips
        seconds = (moved / device.link_bandwidth
                   + (stages - 1) * trips * device.collective_latency)
        terms += [("cb", moved), ("cs", seconds),
                  ("co", "pipeline_p2p", seconds)]
    if cond is not None:
        terms += _region_terms(cond, trips, cond.local_flops * trips,
                               cond.compute_s * trips)
    return terms


class TermSum:
    """Append-only accumulator of cost terms, one list per estimate field.

    :meth:`add` files tagged terms; :func:`split_terms` / :meth:`extend`
    let a caller that replays the same terms many times (the search's
    segment replay) pay the tag dispatch once and ``list.extend``
    afterwards.

    >>> acc = TermSum()
    >>> acc.add([("cs", 0.1), ("cs", 0.2), ("co", "all_reduce", 0.3),
    ...          ("co", "all_slice", 0.0), ("cp", 0.25)])
    >>> est = acc.total()
    >>> est.compute_s, est.comm_s, est.runtime_s
    (0.25, 0.30000000000000004, 0.30000000000000004)
    >>> est.collective_time_s
    {'all_reduce': 0.3, 'all_slice': 0.0}
    """

    __slots__ = ("fl", "cp", "cb", "cs", "co")

    def __init__(self):
        self.fl: List[float] = []
        self.cp: List[float] = []
        self.cb: List[float] = []
        self.cs: List[float] = []
        self.co: List[Tuple[str, float]] = []

    def add(self, terms: Iterable[tuple]) -> None:
        for term in terms:
            tag = term[0]
            if tag == "fl":
                self.fl.append(term[1])
            elif tag == "cp":
                self.cp.append(term[1])
            elif tag == "cb":
                self.cb.append(term[1])
            elif tag == "cs":
                self.cs.append(term[1])
            else:  # ("co", opcode, seconds)
                self.co.append((term[1], term[2]))

    def extend(self, parts: tuple) -> None:
        """Add terms pre-split by :func:`split_terms`."""
        fl, cp, cb, cs, co = parts
        self.fl.extend(fl)
        self.cp.extend(cp)
        self.cb.extend(cb)
        self.cs.extend(cs)
        self.co.extend(co)

    def total(self) -> CostEstimate:
        """Finalise into a :class:`CostEstimate`: step time is
        ``max(compute, comm)`` — collectives overlap compute — and peak
        memory is the caller's to fill in.  A ``collective_time_s`` key
        exists iff a ``"co"`` term named it."""
        coll: Dict[str, list] = {}
        for opcode, seconds in self.co:
            coll.setdefault(opcode, []).append(seconds)
        compute_s = math.fsum(self.cp)
        comm_s = math.fsum(self.cs)
        runtime_s = max(compute_s, comm_s)
        return CostEstimate(
            runtime_s, compute_s, comm_s, math.fsum(self.fl),
            math.fsum(self.cb), 0.0,
            {opcode: math.fsum(times) for opcode, times in coll.items()},
        )


def split_terms(terms: Iterable[tuple]) -> Optional[tuple]:
    """``terms`` pre-split by field for :meth:`TermSum.extend` (``None``
    when there are none)."""
    acc = TermSum()
    acc.add(terms)
    if not (acc.fl or acc.cp or acc.cb or acc.cs or acc.co):
        return None
    return (tuple(acc.fl), tuple(acc.cp), tuple(acc.cb), tuple(acc.cs),
            tuple(acc.co))
