"""Untimed correctness checks; every failed check counts as a failure.

(a) ``counts``  collective counts of the manual cases against the
    hand-written ``expected.json`` (never captured from a run);
(b) ``exec``    the returned callable, run on the simulated mesh, against
    the unpartitioned interpreter at ``atol=1e-3``;
(c) ``repeat``  every rep of a case returns the identical plan;
(d) ``served``  every served hit equals what the populating search
    replied, and a relaxed-tier hit re-priced locally costs what the
    server advertised.  On ``auto_warm`` the same slot checks that a warm
    plan is never worse than the cold one it started from.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

import numpy as np

from repro.ir.interpreter import evaluate_function
from repro.trace import pytree

HERE = os.path.dirname(os.path.abspath(__file__))
ATOL = 1e-3


def server_stats(address):
    """The daemon's ``stats()`` reply, or None if it cannot be had."""
    try:
        from repro.auto import rpc

        with rpc.connect(address) as connection:
            return connection.request({"kind": "stats"})
    except Exception:  # statistics are optional, the run is not
        return None


def make_inputs(function, rng, int_high: int) -> List[np.ndarray]:
    """Seeded inputs: floats in ``[0, 0.1)`` (a signed Adam second moment
    gives NaN under ``sqrt``; unit-scale inputs grow to 1e29 through 24
    GNS message steps, where an absolute tolerance means nothing),
    integers inside ``[0, int_high)``."""
    inputs = []
    for param in function.params:
        dtype = param.type.dtype.np_dtype
        shape = param.type.shape
        if param.type.dtype.is_float:
            inputs.append((0.1 * rng.random(shape)).astype(dtype))
        elif dtype == np.bool_:
            inputs.append(rng.integers(0, 2, size=shape).astype(dtype))
        else:
            inputs.append(rng.integers(0, int_high, size=shape).astype(dtype))
    return inputs


class Checks:
    def __init__(self, seed: int):
        self.seed = seed
        self.counts: Dict[str, int] = {"counts": 0, "exec": 0, "repeat": 0,
                                       "served": 0}
        self.failures: List[str] = []
        self.max_abs_err = 0.0
        with open(os.path.join(HERE, "expected.json")) as handle:
            self.expected = json.load(handle)["collectives"]

    def total(self) -> int:
        return sum(self.counts.values())

    def _check(self, kind: str, ok: bool, message: str) -> None:
        self.counts[kind] += 1
        if not ok:
            self.failures.append(f"{kind}: {message}")

    # (a)
    def collective_counts(self, case_id: str, counts: dict) -> None:
        rule = self.expected.get(case_id)
        if rule is None:
            return
        problems = []
        for name, want in rule.get("exact", {}).items():
            if counts.get(name) != want:
                problems.append(f"{name}={counts.get(name)} want {want}")
        for name, low in rule.get("at_least", {}).items():
            if counts.get(name, 0) < low:
                problems.append(f"{name}={counts.get(name)} want >= {low}")
        for names, want in rule.get("sums", []):
            got = sum(counts.get(name, 0) for name in names)
            if got != want:
                problems.append(f"{'+'.join(names)}={got} want {want}")
        self._check("counts", not problems,
                    f"{case_id}: {', '.join(problems)}")

    # (b)
    def execute(self, latest: dict, compile_case) -> None:
        for case, *artefacts in list(latest.values()):
            if case.twin is not None:
                twin = case.twin
                sample = compile_case(twin)
                if sample.error is not None:
                    self._check("exec", False,
                                f"{twin.id}: {sample.error}")
                    continue
                case, *artefacts = latest.pop(twin.id)
            if case.id.startswith("mlp") and not case.id.endswith("x-w1-w2"):
                continue  # one order per width is enough to execute
            self._execute_one(case, *artefacts)

    def _execute_one(self, case, traced, fn) -> None:
        rng = np.random.default_rng(self.seed)
        flat = make_inputs(traced.function, rng, case.int_high)
        try:
            want = evaluate_function(traced.function, flat)
            got, _ = pytree.flatten(
                fn(*pytree.unflatten(traced.in_treedef, flat)))
        except Exception as exc:
            self._check("exec", False,
                        f"{case.id}: {type(exc).__name__}: {exc}")
            return
        worst = 0.0
        ok = len(want) == len(got)
        for a, b in zip(want, got):
            a, b = np.asarray(a), np.asarray(b)
            if a.shape != b.shape or not np.all(np.isfinite(a)):
                ok = False
                continue
            if a.size:
                worst = max(worst, float(np.max(np.abs(
                    a.astype(np.float64) - b.astype(np.float64)))))
            ok = ok and bool(np.allclose(a, b, atol=ATOL, rtol=0.0))
        self.max_abs_err = max(self.max_abs_err, worst)
        self._check("exec", ok, f"{case.id}: max abs error {worst:g}")

    # (c)
    def repeatable(self, samples) -> None:
        plans: Dict[str, set] = {}
        for sample in samples:
            if sample.error is None:
                plans.setdefault(sample.case, set()).add(sample.plan)
        for case_id, seen in plans.items():
            self._check("repeat", len(seen) == 1,
                        f"{case_id}: {len(seen)} distinct plans")

    # (d)
    def served_hit(self, sample, populated, reprice=None) -> None:
        search = sample.search
        source = getattr(search, "plan_source", None)
        want = getattr(populated, "search", None)
        problems = []
        if want is None:
            problems.append("no populating reply")
        else:
            if getattr(search, "cost", None) != getattr(want, "cost", None):
                problems.append(f"cost {getattr(search, 'cost', None)} != "
                                f"{getattr(want, 'cost', None)}")
            if source == "server:exact" and \
                    getattr(search, "actions", None) != want.actions:
                problems.append("actions differ from the populating reply")
        if reprice is not None:
            try:
                local = _reprice(reprice, search.actions)
            except Exception as exc:
                local = f"{type(exc).__name__}: {exc}"
            if local != search.cost:
                problems.append(f"re-priced {local} != {search.cost}")
        self._check("served", not problems,
                    f"{sample.case} ({source}): {'; '.join(problems)}")

    def warm_not_worse(self, warm, cold) -> None:
        warm_cost = getattr(warm.search, "cost", None)
        cold_cost = getattr(getattr(cold, "search", None), "cost", None)
        ok = None not in (warm_cost, cold_cost) and warm_cost <= cold_cost
        self._check("served", ok,
                    f"{warm.case}: warm cost {warm_cost} vs cold {cold_cost}")


def _reprice(latest, actions) -> float:
    """Cost of ``actions`` on the requester's own function, priced by the
    search's evaluator from scratch."""
    from repro.auto.evaluator import Evaluator
    from repro.core.sharding import ShardingEnv
    from repro.sim.devices import TPU_V3

    case, traced, _ = latest
    evaluator = Evaluator(traced.function, ShardingEnv(case.mesh), TPU_V3)
    return evaluator.evaluate([tuple(a) for a in actions])
