"""Partitioning-as-a-service: high-QPS plan-serving replay.

Replays a stream of mixed partition requests — the paper's benchmark
models at tiny shapes plus an MLP family with **renamed-tag and
permuted-input clones** — against a plan server
(:mod:`repro.auto.server`), twice: the first pass populates the store
(every distinct structure pays one server-side search; clones hit the
store's one canonical key immediately), the second pass replays the whole
stream warm.  A hit reads ``exact`` when the request's canonical layout
is the populating program's (a retrace, a renamed tag: the populating
actions, verbatim) and ``relaxed`` when its parameters or tags are
numbered differently (a permuted clone: translated actions).  Reported
per request: the plan source and the wall clock, aggregated into the
warm-hit rate and p50/p99 partition latency the multi-tenant serving
story is measured by.

Asserted (full mode):

* warm-hit rate (exact + relaxed) >= 50% across the clone stream,
* server-warm p50 partition latency >= 5x lower than cold local search,
* served plans bit-identical (same best actions/cost) to local
  ``serial``-backend results on the same seeds, with relaxed hits'
  translations re-validated by evaluating the translated plan locally,
* a concurrent burst of N identical requests triggers exactly one
  server-side search (in-flight deduplication, server counter asserted).

``--smoke`` runs a reduced stream (MLP family only) with the structural
assertions (warm-hit rate > 0, dedup, bit-identity) but no latency-ratio
assertion — the CI serving job's fast regression gate.

Usage::

    python benchmarks/bench_serving.py [--smoke] [--server HOST:PORT]

Without ``--server`` the benchmark spawns its own daemon subprocess
(``python -m repro.auto.server``) and tears it down at exit.  Results are
dumped to ``$BENCH_OUTPUT_DIR/BENCH_serving.json``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.core.sharding import ShardingEnv  # noqa: E402
from repro.ir.function import FunctionBuilder  # noqa: E402
from repro.mesh import Mesh  # noqa: E402
from repro.sim import DeviceSpec  # noqa: E402

from repro.auto import rpc  # noqa: E402
from repro.auto.evaluator import Evaluator  # noqa: E402
from repro.auto.search import mcts_search  # noqa: E402
from repro.auto.tree import canonical_key  # noqa: E402

from benchmarks.common import print_table, write_bench_json  # noqa: E402

MESH = Mesh({"B": 4, "M": 2})
AXES = ["B", "M"]
#: Small HBM so replication is infeasible and the search must shard.
TINY_DEVICE = DeviceSpec("tiny", peak_flops=1e9, hbm_bytes=200_000,
                         link_bandwidth=1e9)
SEARCH = dict(device=TINY_DEVICE, budget=24, rollout_depth=2, seed=0)

#: Parameter orders for the permuted-clone stream: every order is the
#: same computation, so all of them share one canonical digest.
PARAM_ORDERS = (("x", "w1", "w2"), ("w2", "x", "w1"), ("w1", "w2", "x"))


def mlp_chain(width, order=PARAM_ORDERS[0]):
    """(x @ w1) @ w2 with a chosen parameter order."""
    builder = FunctionBuilder("main")
    specs = {"x": (256, width), "w1": (width, 2 * width),
             "w2": (2 * width, width)}
    params = {name: builder.param(specs[name], name=name)
              for name in order}
    hidden = builder.emit1("dot_general", [params["x"], params["w1"]],
                           {"lhs_contract": (1,), "rhs_contract": (0,)})
    out = builder.emit1("dot_general", [hidden, params["w2"]],
                        {"lhs_contract": (1,), "rhs_contract": (0,)})
    return builder.ret(out)


def tagged_mlp(width, tag_name):
    """A traced MLP whose hidden activation carries a manually *named*
    tag: renaming the tag is an alpha-rename — same canonical key and
    layout, so an exact hit."""
    from repro import ShapeDtype, trace
    from repro.trace import ops

    def fn(x, w1, w2):
        hidden = ops.tag(x @ w1, tag_name)
        return hidden @ w2

    traced = trace(fn, ShapeDtype((64, width)),
                   ShapeDtype((width, 2 * width)),
                   ShapeDtype((2 * width, width)))
    return traced.function


def model_zoo():
    """Tiny shapes of the paper's benchmark models, traced twice each
    (a retrace is byte-identical structure: an exact hit)."""
    from repro.models import bottleneck, gns, transformer, unet

    cases = []
    for name, build in (
        ("transformer", lambda: transformer.trace_training_step(
            transformer.tiny())),
        ("gns", lambda: gns.trace_training_step(gns.tiny())),
        ("unet", lambda: unet.trace_training_step(unet.tiny())),
        ("bottleneck", lambda: bottleneck.trace_training_step(
            bottleneck.ensemble(batch=2, width=8, d_model=16, ffw_dim=16))),
    ):
        for copy in range(2):
            cases.append((f"{name}/copy{copy}", build().function))
    return cases


def build_stream(smoke: bool):
    """The request stream: ``(label, function factory)`` pairs.  Factories
    (not functions) so each request holds a *fresh* object graph — the
    server can never cheat via object identity."""
    widths = (16,) if smoke else (8, 16, 32)
    stream = []
    for width in widths:
        for order in PARAM_ORDERS:
            stream.append((f"mlp{width}/{'-'.join(order)}",
                           lambda w=width, o=order: mlp_chain(w, o)))
        for tag in ("hidden", "post_act"):
            stream.append((f"tagmlp{width}/{tag}",
                           lambda w=width, t=tag: tagged_mlp(w, t)))
    if not smoke:
        stream.extend((label, lambda f=fn: f) for label, fn in model_zoo())
    return stream


def start_daemon():
    """Spawn ``python -m repro.auto.server`` and parse its address."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"),
                    env.get("PYTHONPATH", "")) if p
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.auto.server", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    line = process.stdout.readline()
    marker = "listening on "
    if marker not in line:
        process.terminate()
        raise RuntimeError(f"daemon failed to start: {line!r}")
    return process, line.split(marker, 1)[1].strip()


def server_stats(address):
    with rpc.connect(address) as connection:
        return connection.request({"kind": "stats"})


def percentile(values, q):
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced stream; skip the latency-ratio gate")
    parser.add_argument("--server", default=None,
                        help="use a running daemon (HOST:PORT) instead of "
                             "spawning one")
    args = parser.parse_args(argv)

    daemon = None
    if args.server is None:
        daemon, address = start_daemon()
        print(f"[bench] spawned daemon at {address}")
    else:
        address = args.server
        print(f"[bench] using daemon at {address}")

    try:
        return _run(args, address, spawned=daemon is not None)
    finally:
        if daemon is not None:
            daemon.terminate()
            daemon.wait(timeout=10)


def _run(args, address, spawned: bool) -> int:
    stream = build_stream(args.smoke)
    requests = []
    rows = []

    # Two passes: pass 0 populates (searches + clone hits),
    # pass 1 replays everything against the warm store.
    for replay in range(2):
        for label, factory in stream:
            function = factory()
            t0 = time.perf_counter()
            result = mcts_search(function, ShardingEnv(MESH), AXES,
                                 plan_server=address, **SEARCH)
            elapsed = time.perf_counter() - t0
            requests.append({
                "pass": replay, "label": label,
                "source": result.plan_source,
                "latency_s": elapsed, "cost": result.cost,
                "actions": [list(a) for a in result.actions],
            })
            rows.append((replay, label, result.plan_source,
                         f"{elapsed * 1e3:.1f}ms"))
    print_table("plan-serving replay",
                ("pass", "request", "source", "latency"), rows)

    total = len(requests)
    by_tier = {}
    for request in requests:
        by_tier[request["source"]] = by_tier.get(request["source"], 0) + 1
    warm = [r for r in requests if r["source"] in
            ("server:exact", "server:relaxed")]
    warm_rate = len(warm) / total

    # Cold *local* baseline: the same distinct structures searched
    # serially in-process — what every request would cost without the
    # service.  Distinct = one representative per (family, width).
    seen = set()
    local_latency = []
    for label, factory in stream:
        family = label.split("/")[0]
        if family in seen:
            continue
        seen.add(family)
        function = factory()
        t0 = time.perf_counter()
        local = mcts_search(function, ShardingEnv(MESH), AXES, **SEARCH)
        local_latency.append(time.perf_counter() - t0)

        # Bit-identity: replay the request served-side and compare.
        served = mcts_search(factory(), ShardingEnv(MESH), AXES,
                             plan_server=address, **SEARCH)
        assert served.cost == local.cost, (label, served.cost, local.cost)
        assert served.actions == local.actions, label

    # Relaxed-hit validation: the translated plan must evaluate to the
    # served cost on the permuted clone itself.
    clone = mlp_chain(16, PARAM_ORDERS[1])
    served = mcts_search(clone, ShardingEnv(MESH), AXES,
                         plan_server=address, **SEARCH)
    evaluated = Evaluator(clone, ShardingEnv(MESH), TINY_DEVICE).evaluate(
        canonical_key(served.actions))
    assert evaluated == served.cost, (evaluated, served.cost)

    # In-flight dedup burst: N identical requests for a fresh structure.
    before = server_stats(address)
    burst = 4
    burst_results = [None] * burst

    def request(i):
        burst_results[i] = mcts_search(
            mlp_chain(24), ShardingEnv(MESH), AXES,
            plan_server=address, **SEARCH)

    threads = [threading.Thread(target=request, args=(i,))
               for i in range(burst)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    after = server_stats(address)
    searches_delta = after["searches_run"] - before["searches_run"]
    assert searches_delta == 1, f"dedup broke: {searches_delta} searches"
    assert len({(tuple(map(tuple, r.actions)), r.cost)
                for r in burst_results}) == 1

    warm_latency = [r["latency_s"] for r in warm]
    warm_p50 = percentile(warm_latency, 0.50)
    warm_p99 = percentile(warm_latency, 0.99)
    local_p50 = percentile(local_latency, 0.50)
    speedup = (local_p50 / warm_p50) if warm_p50 else None

    print(f"\n[bench] warm-hit rate: {warm_rate:.1%} "
          f"({len(warm)}/{total}; tiers: {by_tier})")
    print(f"[bench] warm p50/p99: {warm_p50 * 1e3:.1f}ms / "
          f"{warm_p99 * 1e3:.1f}ms; cold local p50: "
          f"{local_p50 * 1e3:.1f}ms; speedup p50: {speedup:.1f}x")
    print(f"[bench] dedup burst: {burst} concurrent requests -> "
          f"{searches_delta} search")

    if args.smoke:
        assert warm_rate > 0, "no warm hits on the clone stream"
    else:
        assert warm_rate >= 0.5, f"warm-hit rate {warm_rate:.1%} < 50%"
        assert speedup >= 5.0, f"warm p50 speedup {speedup:.1f}x < 5x"

    write_bench_json("serving", {
        "mode": "smoke" if args.smoke else "full",
        "spawned_daemon": spawned,
        "stream_requests": total,
        "tiers": by_tier,
        "warm_hit_rate": warm_rate,
        "warm_p50_s": warm_p50,
        "warm_p99_s": warm_p99,
        "cold_local_p50_s": local_p50,
        "warm_speedup_p50": speedup,
        "dedup_burst": {"requests": burst, "searches": searches_delta},
        "server_stats": after,
        "requests": requests,
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
