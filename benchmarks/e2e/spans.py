"""Spans recorded from outside the library.

The library has no tracing of its own yet, so the benchmark wraps a fixed
list of public layer entry points (``TARGETS``) and records one span per
call: name, start, end, parent span, and the call / workload / case that
caused it.  A function imported by name into other modules
(``from repro.core.propagate import propagate``) is rebound in every
``repro`` module that holds it, so callers see the wrapper too.  A target
that a later change renames or deletes is skipped and listed in
``Recorder.missing``; nothing here may make a timed run fail.

Spans stay in memory; ``dump`` writes them as JSON lines.  A layer's
*busy* time is the duration of its outermost spans, its *self* time their
duration minus the interval their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

#: (span name, module, attribute path).  The span name is the layer.
TARGETS = (
    ("core.propagate", "repro.core.propagate", "propagate"),
    ("spmd.lower", "repro.spmd.lower", "lower"),
    ("spmd.fusion", "repro.spmd.fusion", "fuse_collectives"),
    ("spmd.count", "repro.spmd.count", "count_collectives"),
    ("sim.costmodel.estimate", "repro.sim.costmodel", "estimate"),
    ("sim.costmodel.incremental", "repro.sim.costmodel",
     "StreamingEstimator.estimate_incremental"),
    ("auto.search", "repro.auto.search", "mcts_search"),
    ("auto.evaluator.candidates", "repro.auto.evaluator",
     "candidate_actions"),
    ("auto.prune", "repro.auto.prune", "condense"),
    ("auto.tree.next", "repro.auto.tree", "TreePolicy.next_rollout"),
    ("auto.tree.note", "repro.auto.tree", "TreePolicy.note_result"),
    ("auto.prior.fit", "repro.auto.prior", "LinearPrior.fit"),
    ("auto.scheduler", "repro.auto.scheduler", "RolloutScheduler.run"),
    ("auto.cache.load", "repro.auto.cache", "table_for"),
    ("auto.cache.flush", "repro.auto.cache", "TranspositionTable.flush"),
    ("auto.fingerprint", "repro.auto.cache", "function_fingerprint"),
    ("auto.fingerprint", "repro.auto.fingerprint", "relaxed_fingerprint"),
    ("auto.fingerprint", "repro.auto.fingerprint", "canonicalize"),
    ("auto.rpc.send", "repro.auto.rpc", "send_msg"),
    ("auto.rpc.recv", "repro.auto.rpc", "recv_msg"),
    ("auto.rpc.roundtrip", "repro.auto.rpc", "Connection.request"),
    ("auto.planstore", "repro.auto.planstore", "PlanStore.lookup"),
    ("auto.planstore", "repro.auto.planstore", "PlanStore.put"),
    ("auto.server.handle", "repro.auto.server", "PlanServer.handle_plan"),
    ("runtime.executor", "repro.runtime.executor", "MeshExecutor.__call__"),
)

#: Imported before rebinding so that their by-name imports are seen.
CALLER_MODULES = ("repro.api", "repro.models.schedules", "repro.auto.server",
                  "repro.auto.exact")


class Recorder:
    """An append-only tape of spans plus a few counters taken at the same
    boundaries.  ``enabled=False`` records nothing and costs one branch."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: [name, start, end, parent id, call id, workload, case, ok]
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self.workload = ""
        self.case = ""
        self.call_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id,
                  self.workload, self.case, True]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        return record

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own calls into the library."""
        if not self.enabled:
            yield
            return
        record = self._open(name)
        record[1] = time.perf_counter()
        try:
            yield
        except BaseException:
            record[7] = False
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack().pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` with a span around each call.  ``before(args)`` may
        replace the positional arguments; ``after(args, result)`` may add
        counters.  Both run outside the span's own interval."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            record = self._open(name)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[7] = False
                raise
            finally:
                record[2] = time.perf_counter()
                self._stack().pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        for module in CALLER_MODULES:
            with contextlib.suppress(ImportError):
                importlib.import_module(module)
        for name, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            before, after = self._hooks(path)
            if isinstance(original, (classmethod, staticmethod)):
                wrapper = type(original)(
                    self.wrap(name, original.__func__, before, after))
            else:
                wrapper = self.wrap(name, original, before, after)
            setattr(owner, attr, wrapper)
            if not parents:
                _rebind(original, wrapper)

    def _hooks(self, path: str):
        if path == "fuse_collectives":
            return None, self._note_fusion
        if path == "send_msg":
            return functools.partial(self._count_bytes,
                                     "auto.rpc.sent_bytes"), None
        if path == "recv_msg":
            return functools.partial(self._count_bytes,
                                     "auto.rpc.received_bytes"), None
        return None, None

    def _note_fusion(self, args, result) -> None:
        self.counters["spmd.fusion.ops_in"] += _op_count(args[0])
        self.counters["spmd.fusion.ops_out"] += _op_count(result)

    def _count_bytes(self, counter: str, args):
        if not args:
            return args
        return (_CountingSocket(args[0], self.counters, counter),) + args[1:]

    # -- output -----------------------------------------------------------------

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "call", "workload", "case",
                "ok")
        with open(path, "w") as handle:
            for index, record in enumerate(self.spans):
                row = dict(zip(keys, record), id=index)
                handle.write(json.dumps(row) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters),
                                     "missing": self.missing}) + "\n")


def _rebind(original, wrapper) -> None:
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _op_count(function) -> int:
    try:
        return sum(1 for _ in function.walk())
    except (AttributeError, TypeError):
        return 0


class _CountingSocket:
    """Forwards to a socket and counts the bytes through it."""

    def __init__(self, sock, counters, counter: str):
        self._sock = sock
        self._counters = counters
        self._counter = counter

    def sendall(self, data):
        self._counters[self._counter] += len(data)
        return self._sock.sendall(data)

    def recv(self, count):
        data = self._sock.recv(count)
        self._counters[self._counter] += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._sock, name)


def load(path: str):
    """Spans and the trailing counters row of a ``dump``."""
    spans, tail = [], {}
    with open(path) as handle:
        for line in handle:
            row = json.loads(line)
            if "name" in row:
                spans.append([row[key] for key in (
                    "name", "start", "end", "parent", "call", "workload",
                    "case", "ok")])
            else:
                tail = row
    return spans, tail


def layer_times(spans, window=(0.0, float("inf")),
                case: Optional[str] = None):
    """``{layer: {"busy": s, "self": s, "calls": n, "failed": n}}`` over
    the spans that started inside ``window`` (of ``case`` only, when
    given).  ``spans`` is a whole tape in recording order: a span's parent
    field indexes into it."""
    child_time = defaultdict(float)
    for record in spans:
        if record[3] >= 0:
            child_time[record[3]] += record[2] - record[1]
    out: Dict[str, Dict[str, float]] = {}
    for index, record in enumerate(spans):
        name, start, end, parent = record[:4]
        if not window[0] <= start <= window[1]:
            continue
        if case is not None and record[6] != case:
            continue
        row = out.setdefault(name, {"busy": 0.0, "self": 0.0, "calls": 0,
                                    "failed": 0})
        duration = end - start
        row["calls"] += 1
        row["failed"] += 0 if record[7] else 1
        row["self"] += duration - child_time.get(index, 0.0)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["busy"] += duration
    return out
