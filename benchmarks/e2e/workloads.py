"""The four workloads: set-up, the timed loop, and what is read off it.

One process runs one workload.  A *compile sample* is a fresh trace plus
one ``partir_jit`` call, timed with ``perf_counter``; ``gc.collect()``
runs between samples, outside the timer.  Timed code touches only the
public surface; everything read from ``SearchResult`` / ``env.stats`` /
server ``stats()`` goes through :func:`read`, which yields ``None`` for a
field a later change removed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional

from repro import partir_jit

import cases as zoo
import verify
from spans import Recorder, layer_times, load as load_spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

def read(obj, *path):
    """``obj.a.b`` / ``obj["a"]["b"]``, or None where any step is absent."""
    for key in path:
        if isinstance(obj, dict):
            obj = obj.get(key)
        else:
            obj = getattr(obj, key, None)
        if obj is None:
            return None
    return obj


@dataclasses.dataclass
class Sample:
    case: str
    seconds: float = 0.0
    ir_ops: int = 0
    step_time_s: Optional[float] = None
    peak_bytes: Optional[float] = None
    #: What must repeat exactly between reps of one case.
    plan: tuple = ()
    counts: Optional[dict] = None
    search: object = None
    stats: Optional[tuple] = None
    actions_applied: int = 0
    local_ops: int = 0
    error: Optional[str] = None


class Run:
    """State of one workload process."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = 0.0 if smoke else seconds
        self.trace = trace
        self.smoke = smoke
        self.recorder = Recorder(enabled=False)
        self.recorder.workload = workload
        if trace:
            self.recorder.enabled = True
            self.recorder.install()
        self.workdir = os.path.join(os.getcwd(), ".e2e_tmp", str(os.getpid()))
        os.makedirs(self.workdir)
        self.checks = verify.Checks(seed)
        #: Per case, the artefacts of its latest good sample.
        self.latest: Dict[str, tuple] = {}
        self.setup_samples: List[Sample] = []
        self.extra: Dict[str, object] = {}
        self.server_spans = os.path.join(self.workdir, "server_spans.jsonl")

    # -- one compile sample -----------------------------------------------------

    def compile(self, case: zoo.Case, keep: bool = True, auto_kwargs=None,
                **jit_kwargs) -> Sample:
        gc.collect()
        recorder = self.recorder
        recorder.case = case.id
        recorder.call_id += 1
        sample = Sample(case.id)
        with recorder.span("bench.sample"):
            start = time.perf_counter()
            try:
                with recorder.span("trace"):
                    traced = case.build()
                schedule = case.schedule(**(auto_kwargs or {}))
                with recorder.span("api"):
                    fn, meta = partir_jit(
                        traced, case.mesh, schedule,
                        estimate_per_tactic=case.estimate_per_tactic,
                        **jit_kwargs)
            except Exception:  # a failed call is a result, not a crash
                sample.error = traceback.format_exc(limit=4)
                sample.seconds = time.perf_counter() - start
                return sample
            sample.seconds = time.perf_counter() - start
        searches = [tactic.last_search for tactic in schedule
                    if read(tactic, "last_search") is not None]
        sample.search = searches[-1] if searches else None
        sample.ir_ops = sum(1 for _ in traced.function.walk())
        sample.step_time_s = read(meta, "estimate", "runtime_s")
        sample.peak_bytes = read(meta, "estimate", "peak_memory_bytes")
        sample.counts = meta.counts.as_dict()
        sample.local_ops = sum(1 for _ in meta.lowered.function.walk())
        sample.actions_applied = sum(
            read(report, "actions") or 0 for report in meta.reports)
        stats = read(meta, "env", "stats")
        if stats is not None:
            sample.stats = (read(stats, "propagate_calls"),
                            read(stats, "ops_processed"))
        sample.plan = (
            sample.step_time_s, sample.peak_bytes,
            tuple(tuple(a) for s in searches for a in read(s, "actions") or ()),
            tuple(sorted(meta.input_shardings.items())),
        )
        if keep:
            # Only what the numerical check will execute is kept alive.
            self.latest[case.id] = (
                (case, traced, fn) if case.twin is None else (case,))
        return sample

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.workdir))


# -- workload definitions ----------------------------------------------------------


class Workload:
    """Set-up, rounds of timed requests, checks, tear-down."""

    #: Seconds one round took on the machine the baseline was taken on.
    #: The number of rounds is ``--seconds`` over this, rounded: a fixed
    #: amount of work, so that sample counts, counters and peak memory do
    #: not depend on how fast a particular run happened to be.
    ROUND_S = 1.0

    def __init__(self, run: Run, case_list, smoke_names):
        self.run = run
        self.cases = [case for case in case_list
                      if not run.smoke or case.id in smoke_names]

    def setup(self) -> None:
        pass

    def round(self):
        """``(case, compile keywords)`` for one pass over the cases."""
        for case in self.cases:
            yield case, {}

    def timed(self) -> List[Sample]:
        return [self.run.compile(case, **keywords)
                for _ in range(max(1, round(self.run.seconds / self.ROUND_S)))
                for case, keywords in self.round()]

    def verify(self, samples) -> None:
        pass

    def teardown(self) -> None:
        pass


class ManualCompose(Workload):
    """Manual tactics composed with per-tactic feedback (the paper's
    headline use): bulk propagation, lowering, fusion and the
    materialising estimator do the work; ``auto/*`` does none."""

    ROUND_S = 9.5

    def __init__(self, run: Run):
        super().__init__(run, zoo.manual_cases(), zoo.SMOKE_MANUAL)

    def verify(self, samples) -> None:
        for sample in _latest_per_case(samples):
            self.run.checks.collective_counts(sample.case, sample.counts)


class AutoCold(Workload):
    """The cold user-visible search: no cache directory, no server."""

    ROUND_S = 18.5

    def __init__(self, run: Run, skip=()):
        super().__init__(
            run, [c for c in zoo.auto_cases() if c.id not in skip],
            zoo.SMOKE_AUTO)


class AutoWarm(AutoCold):
    """The rerun a user iterating on a schedule pays: every timed call
    reads a fresh copy of exactly one cold run's cache directory."""

    ROUND_S = 2.5

    def __init__(self, run: Run):
        super().__init__(run, skip=zoo.COLD_ONLY)

    def _dir(self, case, kind) -> str:
        return os.path.join(self.run.workdir, kind, case.id)

    def setup(self) -> None:
        for case in self.cases:
            self.run.setup_samples.append(self.run.compile(
                case, keep=False,
                auto_kwargs={"cache_dir": self._dir(case, "cold")}))
        self.run.extra["cache_log_bytes"] = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _, names in os.walk(
                os.path.join(self.run.workdir, "cold"))
            for name in names)

    def round(self):
        for case in self.cases:
            fresh = self._dir(case, "warm")
            shutil.rmtree(fresh, ignore_errors=True)
            shutil.copytree(self._dir(case, "cold"), fresh)
            yield case, {"auto_kwargs": {"cache_dir": fresh}}

    def verify(self, samples) -> None:
        cold = {s.case: s for s in self.run.setup_samples}
        for sample in _latest_per_case(samples):
            self.run.checks.warm_not_worse(sample, cold.get(sample.case))


def _structure(case_id: str) -> str:
    """The key of the populating search a request should hit."""
    return case_id.split(".")[0] if case_id.startswith("mlp") else case_id


class ServedStream(AutoCold):
    """Plan serving: one closed-loop client against a daemon in a second
    process.  Searches happen in set-up; the timed stream only hits."""

    ROUND_S = 0.8

    def __init__(self, run: Run):
        super().__init__(run, skip=zoo.COLD_ONLY)
        self.daemon = None
        self.address = None
        self.rng = random.Random(run.seed)
        self.tags = 0
        widths = zoo.MLP_WIDTHS[:1] if run.smoke else zoo.MLP_WIDTHS
        self.family = [(w, o) for w in widths for o in zoo.MLP_ORDERS]

    def _clone(self, width, order) -> zoo.Case:
        # A fresh tag name per request: an alpha-renamed program misses
        # the exact tier and must be served by the relaxed one.
        self.tags += 1
        return zoo.mlp_clone(width, order, f"h{self.run.seed}_{self.tags}")

    def setup(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH", "")) if p)
        if self.run.trace:
            command = [sys.executable,
                       os.path.join(HERE, "traced_server.py"),
                       self.run.server_spans, "--port", "0"]
        else:
            command = [sys.executable, "-m", "repro.auto.server",
                       "--port", "0"]
        self.daemon = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        line = self.daemon.stdout.readline()
        if "listening on " not in line:
            raise RuntimeError(f"daemon failed to start: {line!r}")
        self.address = line.split("listening on ", 1)[1].strip()
        populate = self.cases + [
            self._clone(width, zoo.MLP_ORDERS[0])
            for width in sorted({w for w, _ in self.family})]
        for case in populate:
            self.run.setup_samples.append(self.run.compile(
                case, keep=False, plan_server=self.address))
        self.run.extra["stats_before"] = verify.server_stats(self.address)

    def round(self):
        requests = self.cases + [self._clone(w, o) for w, o in self.family]
        self.rng.shuffle(requests)
        for case in requests:
            yield case, {"plan_server": self.address}

    def verify(self, samples) -> None:
        self.run.extra["stats_after"] = verify.server_stats(self.address)
        populated = {_structure(s.case): s for s in self.run.setup_samples}
        latest = {id(s) for s in _latest_per_case(samples)}
        for sample in samples:
            if sample.error is not None:
                continue
            relaxed = read(sample.search, "plan_source") == "server:relaxed"
            self.run.checks.served_hit(
                sample, populated.get(_structure(sample.case)),
                self.run.latest.get(sample.case)
                if relaxed and id(sample) in latest else None)

    def teardown(self) -> None:
        if self.daemon is None:
            return
        self.daemon.send_signal(signal.SIGTERM)
        try:
            self.daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.daemon.wait()
        self.daemon.stdout.close()


CLASSES = {"manual_compose": ManualCompose, "auto_cold": AutoCold,
           "auto_warm": AutoWarm, "served_stream": ServedStream}


# -- statistics --------------------------------------------------------------------


def _latest_per_case(samples) -> List[Sample]:
    latest = {}
    for sample in samples:
        if sample.error is None:
            latest[sample.case] = sample
    return list(latest.values())


def geomean(values) -> Optional[float]:
    values = [v for v in values if v is not None and v > 0]
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, q: float) -> Optional[float]:
    """Nearest-rank percentile."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       max(0, math.ceil(q * len(ordered)) - 1))]


def per_case(samples) -> Dict[str, dict]:
    rows: Dict[str, dict] = {}
    for sample in samples:
        row = rows.setdefault(sample.case, {"seconds": [], "failed": 0})
        if sample.error is not None:
            row["failed"] += 1
            continue
        row["seconds"].append(sample.seconds)
        row["ir_ops"] = sample.ir_ops
        row["plan_step_time_s"] = sample.step_time_s
        row["plan_peak_bytes"] = sample.peak_bytes
        row["plan_source"] = read(sample.search, "plan_source")
        row["actions"] = [list(a) for a in read(sample.search, "actions")
                          or ()]
    for row in rows.values():
        seconds = row.pop("seconds")
        row["samples"] = len(seconds)
        row["median_s"] = statistics.median(seconds) if seconds else None
        row["min_s"] = min(seconds) if seconds else None
    return rows


def compile_s(samples) -> Optional[float]:
    return geomean(row["median_s"] for row in per_case(samples).values())


def tail_s(samples) -> Optional[float]:
    """The pooled p95 where every case has ten samples or more (the
    served stream); elsewhere no percentile above the median is
    supported, and the tail is the slowest case's median."""
    rows = per_case(samples)
    if rows and min(row["samples"] for row in rows.values()) >= 10:
        return percentile(
            [s.seconds for s in samples if s.error is None], 0.95)
    return max((row["median_s"] for row in rows.values()
                if row["median_s"] is not None), default=None)


def end_to_end(samples, setup_s: float, rss_kb: int) -> dict:
    good = [s for s in samples if s.error is None]
    latest = _latest_per_case(samples)
    total = sum(s.seconds for s in good)
    return {
        "setup_s": (setup_s, "s"),
        "compile_s": (compile_s(samples), "s"),
        "compile_p95_s": (tail_s(samples), "s"),
        "ops_per_s": (sum(s.ir_ops for s in good) / total if total else None,
                      "ops/s"),
        "plan_step_time_s": (geomean(s.step_time_s for s in latest),
                             "sim_sec"),
        "plan_peak_bytes": (geomean(s.peak_bytes for s in latest), "sim_B"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def _total(values):
    """Sum, 0 of nothing, None where every source field is absent."""
    values = list(values)
    present = [v for v in values if v is not None]
    return sum(present) if present or not values else None


def _share(part, whole):
    if part is None or not whole:
        return None
    return part / whole


def per_layer(run: Run, reference, traced, window, failed_share) -> dict:
    """The per-layer table of one traced pass (``traced``; ``reference``
    is the same pass with the recorder switched off)."""
    recorder = run.recorder
    layers = layer_times(recorder.spans, window)
    everything = layer_times(recorder.spans)
    server, server_tail = {}, {}
    if os.path.exists(run.server_spans):
        server_spans, server_tail = load_spans(run.server_spans)
        server = layer_times(server_spans, window)
    good = [s for s in traced if s.error is None]
    searches = [s.search for s in good if s.search is not None]
    counters = recorder.counters

    def busy(name, table=layers):
        return read(table, name, "busy") or 0.0

    def self_s(name):
        return read(layers, name, "self") or 0.0

    def calls(name, table=layers):
        return read(table, name, "calls") or 0

    def field(name):
        return _total(read(s, name) for s in searches)

    wall = busy("bench.sample")
    lookups = _total([field("evaluations"), field("cache_hits")])
    before = read(run.extra, "stats_before", "store") or {}
    after = read(run.extra, "stats_after", "store") or {}
    served = {k: (after.get(k) or 0) - (before.get(k) or 0)
              for k in ("hits_exact", "hits_relaxed", "misses")}
    requests = sum(served.values())
    reference_s, traced_s = compile_s(reference), compile_s(traced)
    rss_kb = read(server_tail, "counters", "auto.server.rss_kb")
    reuse = [read(s, "prefix_reuse_ratio") for s in searches]
    reuse = [v for v in reuse if v is not None]
    table = {
        "trace.busy_s": (busy("trace"), "s"),
        "trace.ir_ops": (sum(s.ir_ops for s in good), "count"),
        "api.self_s": (self_s("api"), "s"),
        "core.propagate.busy_s": (busy("core.propagate"), "s"),
        "core.propagate.calls": (_total(
            s.stats[0] for s in good if s.stats), "count"),
        "core.propagate.ops_processed": (_total(
            s.stats[1] for s in good if s.stats), "count"),
        "core.actions.applied": (sum(s.actions_applied for s in good),
                                 "count"),
        "spmd.lower.busy_s": (busy("spmd.lower"), "s"),
        "spmd.lower.calls": (calls("spmd.lower"), "count"),
        "spmd.lower.local_ops": (sum(s.local_ops for s in good), "count"),
        "spmd.fusion.busy_s": (busy("spmd.fusion"), "s"),
        "spmd.fusion.fused_share": (_share(
            counters["spmd.fusion.ops_in"] - counters["spmd.fusion.ops_out"],
            counters["spmd.fusion.ops_in"]), "ratio"),
        "spmd.count.collectives": (sum(
            sum(s.counts.values()) for s in good if s.counts), "count"),
        "sim.costmodel.estimate_busy_s": (busy("sim.costmodel.estimate"),
                                          "s"),
        "sim.costmodel.estimate_calls": (calls("sim.costmodel.estimate"),
                                         "count"),
        "sim.costmodel.incremental_busy_s": (
            busy("sim.costmodel.incremental"), "s"),
        "sim.costmodel.incremental_calls": (
            calls("sim.costmodel.incremental"), "count"),
        "sim.costmodel.ops_reused": (field("estimate_ops_reused"), "count"),
        "auto.search.busy_s": (busy("auto.search"), "s"),
        "auto.search.self_s": (self_s("auto.search"), "s"),
        "auto.evaluator.candidates_s": (busy("auto.evaluator.candidates"),
                                        "s"),
        "auto.evaluator.evaluations": (field("evaluations"), "count"),
        "auto.evaluator.table_hit_share": (
            _share(field("cache_hits"), lookups), "ratio"),
        "auto.evaluator.prefix_reuse_ratio": (
            statistics.fmean(reuse) if reuse else None, "ratio"),
        "auto.prune.busy_s": (busy("auto.prune"), "s"),
        "auto.prune.probes_run": (field("prune_probes"), "count"),
        "auto.prune.probes_reused": (field("prune_probes_reused"), "count"),
        "auto.prune.kept_share": (_share(
            field("candidates_kept"), field("candidates_total")), "ratio"),
        "auto.tree.busy_s": (busy("auto.tree.next") + busy("auto.tree.note"),
                             "s"),
        "auto.tree.rollouts": (calls("auto.tree.next"), "count"),
        "auto.prior.fit_s": (busy("auto.prior.fit"), "s"),
        "auto.prior.tree_prior_hits": (field("tree_prior_hits"), "count"),
        "auto.scheduler.self_s": (self_s("auto.scheduler"), "s"),
        "auto.scheduler.waves": (field("waves"), "count"),
        "auto.cache.load_s": (busy("auto.cache.load"), "s"),
        "auto.cache.flush_s": (busy("auto.cache.flush", everything), "s"),
        "auto.cache.log_bytes": (run.extra.get("cache_log_bytes", 0),
                                 "bytes"),
        "auto.cache.warm_hit_share": (
            _share(field("warm_cache_hits"), lookups), "ratio"),
        "auto.fingerprint.busy_s": (
            busy("auto.fingerprint") + busy("auto.fingerprint", server),
            "s"),
        "auto.rpc.roundtrip_s": (busy("auto.rpc.roundtrip"), "s"),
        "auto.rpc.request_bytes": (counters["auto.rpc.sent_bytes"],
                                   "bytes"),
        "auto.rpc.reply_bytes": (counters["auto.rpc.received_bytes"],
                                 "bytes"),
        "auto.rpc.failed": (read(layers, "auto.rpc.roundtrip", "failed")
                            or 0, "count"),
        "auto.planstore.exact_share": (
            _share(served["hits_exact"], requests), "ratio"),
        "auto.planstore.relaxed_share": (
            _share(served["hits_relaxed"], requests), "ratio"),
        "auto.planstore.miss_share": (
            _share(served["misses"], requests), "ratio"),
        "auto.server.handle_s": (busy("auto.server.handle", server), "s"),
        "auto.server.searches_run": (
            read(run.extra, "stats_after", "searches_run"), "count"),
        "auto.server.rss_mb": (rss_kb / 1024.0 if rss_kb else None, "MB"),
        "runtime.executor.exec_s": (busy("runtime.executor", everything),
                                    "s"),
        "runtime.executor.max_abs_err": (run.checks.max_abs_err, "abs"),
        "bench.unattributed_share": (_share(
            self_s("api") + self_s("bench.sample"), wall), "s/s"),
        "bench.trace_overhead_share": (
            _share(traced_s - reference_s, reference_s)
            if traced_s and reference_s else None, "s/s"),
        "bench.missing_span_targets": (len(recorder.missing), "count"),
        "bench.failed_share": (failed_share, "ratio"),
    }
    return table


# -- the run -----------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, started: float,
                 spans_out: Optional[str] = None) -> dict:
    """Run one workload in this process; the detailed result as a dict."""
    run = Run(workload, seed, seconds, trace, smoke)
    spec = CLASSES[workload](run)
    try:
        try:
            spec.setup()
            setup_s = time.perf_counter() - started
            reference, window = [], [0.0, 0.0]
            if trace:
                # The per-layer run: one round with the recorder switched
                # off (the reference for the tracing overhead), one with
                # it on.
                run.seconds = 0.0
                run.recorder.enabled = False
                reference = spec.timed()
                run.recorder.enabled = True
                window[0] = time.perf_counter()
            samples = spec.timed()
            window[1] = time.perf_counter()
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            spec.verify(samples)
            run.checks.repeatable(samples)
            run.checks.execute(run.latest, run.compile)
        finally:
            spec.teardown()
        calls = samples + run.setup_samples
        bad_calls = sum(1 for s in calls if s.error is not None)
        if workload == "served_stream":
            bad_calls += sum(
                1 for s in calls if s.error is None and not str(
                    read(s.search, "plan_source")).startswith("server:"))
        attempted = len(calls) + run.checks.total()
        failed = bad_calls + len(run.checks.failures)
        rows = per_case(samples)
        if trace:
            metrics = per_layer(run, reference, samples, window,
                                failed / attempted)
            for case_id, row in rows.items():
                row["layers"] = {
                    name: {"busy_s": t["busy"], "self_s": t["self"]}
                    for name, t in layer_times(
                        run.recorder.spans, window, case_id).items()}
            if spans_out:
                run.recorder.dump(spans_out)
        else:
            metrics = end_to_end(samples, setup_s, rss_kb)
        return {
            "workload": workload, "seed": seed, "trace": int(trace),
            "smoke": smoke, "seconds": seconds,
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "checks": run.checks.counts,
            "failures": run.checks.failures + [
                s.error for s in calls if s.error],
            "missing_span_targets": run.recorder.missing,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
            "cases": rows,
        }
    finally:
        run.close()
