"""Golden pricing table for :mod:`repro.sim.terms`.

Every other pricing test compares one implementation with another, so a
formula error shared by all of them would pass.  This table pins the
formulas themselves: each row's expected totals are hand-computed numbers
for ``Mesh({"batch": 4, "model": 2})`` on a round-number device
(1 TFLOP/s peak, 1 GB/s links, 1 us launch latency), never the output of
another ``repro`` function.
"""

import dataclasses

import pytest

from repro.mesh import Mesh
from repro.sim import DeviceSpec, terms

MESH = Mesh({"batch": 4, "model": 2})
DEVICE = DeviceSpec("round", peak_flops=1e12, hbm_bytes=1e9,
                    link_bandwidth=1e9, collective_latency=1e-6)

#: One loop body iteration: 1 GFLOP in 0.5 s, one 2 MB all_reduce in 0.25 s.
BODY = terms.CostEstimate(0.0, 0.5, 0.25, 1e9, 2e6, 0.0, {"all_reduce": 0.25})
#: A while_loop condition: compute only.
COND = terms.CostEstimate(0.0, 0.001, 0.0, 1e3, 0.0, 0.0, {})
PIPELINED = {"trip_count": 8, "pipeline_stages": 4,
             "pipeline_stage_fraction": 0.25, "pipeline_p2p_bytes": 1000}


def _collective(opcode, attrs, operand_bytes, result_bytes):
    return terms.collective_terms(opcode, attrs, operand_bytes, result_bytes,
                                  MESH, DEVICE)


def _comm(opcode, bytes_moved, seconds):
    return dict(comm_bytes=bytes_moved, comm_s=seconds, runtime_s=seconds,
                collective_time_s={opcode: seconds})


# (id, terms, expected non-zero CostEstimate fields).  Ring factors: n = 4
# over "batch", 2 over "model", 8 over both; seconds = bytes / 1e9 + 1e-6.
TABLE = [
    # all_reduce moves 2 (n-1)/n of its operand.
    ("all_reduce-batch",
     _collective("all_reduce", {"axes": ("batch",)}, 4000, 4000),
     _comm("all_reduce", 6000.0, 7e-6)),
    ("all_reduce-batch+model",
     _collective("all_reduce", {"axes": ("batch", "model")}, 4000, 4000),
     _comm("all_reduce", 7000.0, 8e-6)),
    # all_gather moves (n-1)/n of its *result*.
    ("all_gather-model",
     _collective("all_gather", {"dims": (("model",), ())}, 500, 1000),
     _comm("all_gather", 500.0, 1.5e-6)),
    ("all_gather-batch+model",
     _collective("all_gather", {"dims": (("batch",), ("model",))}, 1000,
                 8000),
     _comm("all_gather", 7000.0, 8e-6)),
    # reduce_scatter and all_to_all move (n-1)/n of their operand.
    ("reduce_scatter-batch",
     _collective("reduce_scatter", {"dims": (("batch",),)}, 4000, 1000),
     _comm("reduce_scatter", 3000.0, 4e-6)),
    ("reduce_scatter-batch+model",
     _collective("reduce_scatter", {"dims": (("batch", "model"),)}, 8000,
                 1000),
     _comm("reduce_scatter", 7000.0, 8e-6)),
    ("all_to_all-model",
     _collective("all_to_all", {"axes": ("model",)}, 4000, 4000),
     _comm("all_to_all", 2000.0, 3e-6)),
    ("all_to_all-batch+model",
     _collective("all_to_all", {"axes": ("batch", "model")}, 8000, 8000),
     _comm("all_to_all", 7000.0, 8e-6)),
    # all_slice is device-local: free, but present in the breakdown.
    ("all_slice-model",
     _collective("all_slice", {"dims": (("model",),)}, 1000, 500),
     _comm("all_slice", 0.0, 0.0)),
    ("all_slice-batch+model",
     _collective("all_slice", {"dims": (("batch",), ("model",))}, 8000, 1000),
     _comm("all_slice", 0.0, 0.0)),
    # 3.1 GFLOP at 62% of 1 TFLOP/s.
    ("compute",
     terms.compute_terms(3.1e9, DEVICE),
     dict(local_flops=3.1e9, compute_s=0.005, runtime_s=0.005)),
    # Unpipelined: body and cond region both run trip_count = 8 times.
    ("loop-unpipelined",
     terms.loop_cost_terms({"trip_count": 8}, BODY, DEVICE, COND),
     dict(local_flops=8.000008e9, compute_s=4.008, comm_bytes=1.6e7,
          comm_s=2.0, runtime_s=4.008,
          collective_time_s={"all_reduce": 2.0})),
    # K = 4 stages, T = 8 microbatches: the critical stage does 1/4 of the
    # body per microbatch (8 x 0.25 GFLOP) over T + K - 1 = 11 slots
    # (11 x 0.125 s); the body's all_reduce still runs 8 times; hand-offs
    # add 8 x 1000 B and (K - 1) T = 24 launch latencies (8 us + 24 us).
    ("loop-pipelined",
     terms.loop_cost_terms(PIPELINED, BODY, DEVICE),
     dict(local_flops=2e9, compute_s=1.375, comm_bytes=1.6008e7,
          comm_s=2.000032, runtime_s=2.000032,
          collective_time_s={"all_reduce": 2.0, "pipeline_p2p": 3.2e-5})),
]


@pytest.mark.parametrize("priced, expected", [row[1:] for row in TABLE],
                         ids=[row[0] for row in TABLE])
def test_golden_pricing(priced, expected):
    acc = terms.TermSum()
    acc.add(priced)
    want = dict(runtime_s=0.0, compute_s=0.0, comm_s=0.0, local_flops=0.0,
                comm_bytes=0.0, peak_memory_bytes=0.0, collective_time_s={})
    want.update(expected)
    got = dataclasses.asdict(acc.total())
    assert got.keys() == want.keys()
    for field, value in want.items():
        # Literals are decimal; 1e-12 absorbs their binary rounding and
        # nothing else (the nearest perturbation, a p2p latency count off
        # by one, moves comm_s by 5e-7 relative).
        assert got[field] == pytest.approx(value, rel=1e-12, abs=0.0), field
