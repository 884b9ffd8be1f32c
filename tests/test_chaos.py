"""The fault-tolerant search fabric, under scripted failure schedules.

The degradation contract pinned here (ISSUE 9): under ANY injected fault
schedule — worker kills mid-wave, RPC resets on either worker transport,
torn transposition writes, server-side search crashes — ``mcts_search``
completes and returns best actions/cost **bit-identical** to the
fault-free serial run at the same seed, truthfully reporting what
recovery ran in ``SearchResult.faults_injected`` / ``workers_restarted``
/ ``waves_retried`` / ``degraded_to``.  Plus the zero-overhead pin: with
no :class:`~repro.auto.faults.FaultPlan` installed, the new machinery is
a single global check and every counter stays at its pre-PR value.
"""

import dataclasses
import json
import os
import pickle
import socket
import struct
import subprocess
import sys
import time
import warnings
import zlib

import pytest

from repro import Mesh
from repro.core.sharding import ShardingEnv
from repro.sim import DeviceSpec

from repro.auto import faults, rpc
from repro.auto.cache import TranspositionTable
from repro.auto.evaluator import Evaluator, candidate_actions
from repro.auto.scheduler import make_scheduler
from repro.auto.search import SearchConfig, mcts_search
from repro.auto.server import PlanServer

from conftest import build_matmul_chain

TINY_DEVICE = DeviceSpec("tiny", peak_flops=1e9, hbm_bytes=200_000,
                         link_bandwidth=1e9)
MESH = Mesh({"B": 4, "M": 2})
SEARCH = dict(device=TINY_DEVICE, budget=8, seed=0)


def chain():
    return build_matmul_chain()[0]


def search(plan=None, **kw):
    """``mcts_search`` of :func:`chain` with ``SEARCH`` (``kw`` wins), under
    the fault ``plan`` when one is given (uninstalled after)."""
    if plan is not None:
        faults.install(plan)
    try:
        return mcts_search(chain(), ShardingEnv(MESH), ["B", "M"],
                           **{**SEARCH, **kw})
    finally:
        if plan is not None:
            faults.uninstall()


@pytest.fixture(autouse=True)
def clean_fabric():
    """No fault plan or breaker state may leak between tests (both are
    process-wide registries)."""
    faults.uninstall()
    rpc.reset_breakers()
    yield
    faults.uninstall()
    rpc.reset_breakers()


@pytest.fixture(scope="module")
def reference():
    """The fault-free serial run every schedule must reproduce."""
    return search()


# -- the harness itself ------------------------------------------------------------


class TestFaultPlan:
    def test_scripted_schedule_fires_at_exact_invocations(self):
        plan = faults.FaultPlan({"rpc.send": [0, 2]})
        assert [plan.should_fire("rpc.send") for _ in range(4)] == \
            [True, False, True, False]
        assert plan.should_fire("rpc.recv") is False  # unscripted site
        assert plan.fired == 2
        assert plan.invocations["rpc.send"] == 4

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            faults.FaultPlan({"disk.melt": [0]})

    def test_seeded_plans_are_deterministic_in_the_seed(self):
        a = faults.FaultPlan.seeded(7, rate=0.2)
        b = faults.FaultPlan.seeded(7, rate=0.2)
        c = faults.FaultPlan.seeded(8, rate=0.2)
        assert a.schedule == b.schedule
        assert a.schedule != c.schedule

    def test_json_round_trip(self):
        plan = faults.FaultPlan({"worker.exit": [3, 1]}, name="x")
        clone = faults.FaultPlan.from_json(plan.to_json())
        assert clone.schedule == {"worker.exit": (1, 3)}  # sorted
        assert clone.name == "x"

    def test_install_exports_env_and_uninstall_clears(self):
        plan = faults.install(faults.FaultPlan({"cache.append": [0]}))
        assert faults.active_plan() is plan
        assert faults.ENV_PLAN in os.environ
        reloaded = faults.reload_from_env()
        assert reloaded is not plan  # fresh counters
        assert reloaded.schedule == plan.schedule
        faults.uninstall()
        assert faults.active_plan() is None
        assert faults.ENV_PLAN not in os.environ
        assert faults.should_fire("cache.append") is False

    def test_subprocess_inherits_plan_through_env(self):
        faults.install(faults.FaultPlan({"rpc.send": [0]}))
        try:
            code = ("from repro.auto import faults; "
                    "plan = faults.active_plan(); "
                    "assert plan is not None and "
                    "plan.schedule == {'rpc.send': (0,)}; "
                    "assert faults.should_fire('rpc.send'); "
                    "print('inherited')")
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, ["src", env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", code],
                                  capture_output=True, text=True, env=env,
                                  cwd=os.path.dirname(
                                      os.path.dirname(__file__)))
            assert proc.returncode == 0, proc.stderr
            assert "inherited" in proc.stdout
        finally:
            faults.uninstall()

    def test_no_plan_fast_path_reports_zero(self):
        assert faults.fired_count() == 0
        assert faults.should_fire("worker.exit") is False


# -- rpc framing -------------------------------------------------------------------


class TestCrcFraming:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_round_trip(self):
        a, b = self._pair()
        try:
            rpc.send_msg(a, {"kind": "ping", "blob": b"x" * 4096})
            assert rpc.recv_msg(b)["kind"] == "ping"
        finally:
            a.close()
            b.close()

    def test_corrupted_payload_raises_protocol_error(self):
        payload = pickle.dumps({"kind": "ping"},
                               protocol=pickle.HIGHEST_PROTOCOL)
        frame = bytearray(struct.pack("<II", len(payload),
                                      zlib.crc32(payload)) + payload)
        frame[-1] ^= 0xFF  # one flipped bit on the wire
        a, b = self._pair()
        try:
            a.sendall(bytes(frame))
            with pytest.raises(rpc.ProtocolError, match="checksum"):
                rpc.recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_oversized_frame_rejected_before_any_recv(self):
        a, b = self._pair()
        try:
            a.sendall(struct.pack("<II", rpc.MAX_FRAME_BYTES + 1, 0))
            with pytest.raises(rpc.ProtocolError, match="oversized"):
                rpc.recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_protocol1_frame_detected(self):
        """A pre-CRC peer's frame ([u32 len][pickle]) must fail cleanly:
        back-to-back old frames produce the versioned ProtocolError hint,
        a single old frame dies as a mid-frame disconnect."""
        payload = pickle.dumps({"kind": "ping"},
                               protocol=pickle.HIGHEST_PROTOCOL)
        old_frame = struct.pack("<I", len(payload)) + payload
        a, b = self._pair()
        try:
            a.sendall(old_frame + old_frame)
            with pytest.raises(rpc.ProtocolError, match="pre-CRC"):
                rpc.recv_msg(b)
        finally:
            a.close()
            b.close()
        a, b = self._pair()
        try:
            a.sendall(old_frame)
            a.close()
            with pytest.raises(ConnectionError):
                rpc.recv_msg(b)
        finally:
            b.close()

    def test_protocol_error_is_a_connection_error(self):
        # Every existing fall-back-to-local path catches ConnectionError/
        # OSError; ProtocolError must ride the same ladder.
        assert issubclass(rpc.ProtocolError, ConnectionError)

    def test_injected_send_and_recv_faults(self):
        faults.install(faults.FaultPlan({"rpc.send": [0], "rpc.recv": [1]}),
                       export_env=False)
        a, b = self._pair()
        try:
            with pytest.raises(ConnectionResetError):
                rpc.send_msg(a, {"kind": "ping"})
            a2, b2 = self._pair()
            try:
                rpc.send_msg(a2, {"kind": "ping"})
                assert rpc.recv_msg(b2)["kind"] == "ping"  # recv idx 0 ok
                rpc.send_msg(a2, {"kind": "ping"})
                with pytest.raises(ConnectionResetError):
                    rpc.recv_msg(b2)  # recv idx 1 scripted
            finally:
                a2.close()
                b2.close()
        finally:
            a.close()
            b.close()


# -- transposition log crash safety ------------------------------------------------


class TestCacheCrashSafety:
    def _table(self, tmp_path, name="t.jsonl"):
        return TranspositionTable(path=str(tmp_path / name))

    def test_torn_append_loses_tail_not_log(self, tmp_path):
        table = self._table(tmp_path)
        table.store(((0, 0, 0, "B"),), 1.0)
        table.flush()  # intact line on disk
        faults.install(faults.FaultPlan({"cache.append": [0]}),
                       export_env=False)
        try:
            table.store(((0, 1, 0, "B"),), 2.0)
            table.store(((0, 2, 0, "B"),), 3.0)
            table.flush()  # torn mid-first-line; second line never lands
        finally:
            faults.uninstall()
        raw = open(table.path).read()
        assert raw.count("\n") == 1  # the intact record only
        # A torn tail is the expected crash signature: silent skip.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh = self._table(tmp_path)
        assert fresh.lookup(((0, 0, 0, "B"),)) == 1.0
        assert fresh.lookup(((0, 1, 0, "B"),)) is None

    def test_compact_fsyncs_before_atomic_rename(self, tmp_path,
                                                 monkeypatch):
        table = self._table(tmp_path)
        table.store(((0, 0, 0, "B"),), 1.0)
        table.flush()
        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (calls.append("fsync"),
                                        real_fsync(fd))[1])
        monkeypatch.setattr(os, "replace",
                            lambda a, b: (calls.append("replace"),
                                          real_replace(a, b))[1])
        table.compact()
        assert "fsync" in calls and "replace" in calls
        assert calls.index("fsync") < calls.index("replace")

    def test_kill_mid_compact_preserves_old_log(self, tmp_path,
                                                monkeypatch):
        table = self._table(tmp_path)
        table.store(((0, 0, 0, "B"),), 1.0)
        table.store(((0, 1, 0, "B"),), 2.0)
        table.flush()
        before = open(table.path).read()

        def crash(src, dst):
            raise KeyboardInterrupt("kill -9 mid-compact")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(KeyboardInterrupt):
            table.compact()
        monkeypatch.undo()
        # The old log survives byte-for-byte and still loads fully.
        assert open(table.path).read() == before
        fresh = self._table(tmp_path)
        assert fresh.lookup(((0, 0, 0, "B"),)) == 1.0
        assert fresh.lookup(((0, 1, 0, "B"),)) == 2.0


# -- the degradation contract ------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestProcessChaos:
    def test_worker_kills_heal_bit_identically(self, reference):
        """Every worker dies on its second evaluation, repeatedly; the
        scheduler re-forks within the budget and re-routes the lost keys.
        Result: bit-identical to the fault-free serial run."""
        result = search(faults.FaultPlan({"worker.exit": [1]}),
                        backend="process", workers=2, wave_size=2,
                        restart_budget=16)
        assert result.actions == reference.actions
        assert result.cost == reference.cost
        assert result.workers_restarted >= 1
        assert result.waves_retried >= 1

    def test_restart_budget_exhaustion_degrades_to_serial(self, reference):
        """Workers die on their *first* evaluation — healing cannot win
        (replacements die too), so past the default budget the search
        degrades to in-process serial evaluation and still completes
        bit-identically."""
        result = search(faults.FaultPlan({"worker.exit": [0]}),
                        backend="process", workers=2, wave_size=2)
        assert result.actions == reference.actions
        assert result.cost == reference.cost
        assert result.degraded_to == "serial"
        assert result.faults_injected == 0  # fired in workers, not here

    def test_zero_restart_budget_degrades_on_first_failure(self, reference):
        """The ``restart_budget`` field is the one way to set the budget,
        and the degrade warning names it."""
        with pytest.warns(RuntimeWarning, match="restart_budget"):
            result = search(faults.FaultPlan({"worker.exit": [1]}),
                            backend="process", workers=2, wave_size=2,
                            restart_budget=0)
        assert result.actions == reference.actions
        assert result.cost == reference.cost
        assert result.workers_restarted == 0
        assert result.degraded_to == "serial"

    def test_connection_resets_heal_bit_identically(self, reference):
        """The forked workers speak the same frames as the daemon's
        sessions, so the same scripted resets heal the same way."""
        check_connection_resets_heal("process", reference)

    def test_dead_worker_is_an_eof_not_a_timeout(self):
        """A worker dying mid-slice must surface as EOF on its socket at
        once, never as the 60 s call deadline — including when a sibling
        re-forked while the victim's socketpair was open is still alive
        (it must not hold the victim's end open)."""
        function = chain()
        evaluator = Evaluator(function, ShardingEnv(MESH), TINY_DEVICE)
        expected = Evaluator(function, ShardingEnv(MESH), TINY_DEVICE)
        keys = [(action,) for action in candidate_actions(
            function, evaluator.root, ["B", "M"])[:5]]
        # Every worker (re-forked ones too) dies handling its second key.
        faults.install(faults.FaultPlan({"worker.exit": [1]}))
        scheduler = make_scheduler("process", SearchConfig(
            workers=2, restart_budget=8, rpc_timeout_s=60.0))
        scheduler.prepare(evaluator)
        try:
            # Wave 1: one key each.  Wave 2: a single key kills one worker,
            # re-forked while its sibling lives.  Wave 3: the sibling dies
            # on its second key (where the re-routed key lands decides
            # whether the replacement follows it).
            for wave, restarts in ((keys[:2], 0), (keys[2:3], 1),
                                   (keys[3:], 2)):
                started = time.monotonic()
                costs = scheduler._evaluate_wave(evaluator, wave)
                assert time.monotonic() - started < 1.0
                assert costs == {key: expected.evaluate(key)
                                 for key in wave}
                assert scheduler.workers_restarted >= restarts
        finally:
            scheduler.shutdown()
            faults.uninstall()
        assert scheduler.degraded_to == ""


def check_connection_resets_heal(backend, reference, **kw):
    """Scripted mid-stream resets on the worker connections (send + recv
    sides; either end of them may draw from the schedule) — sessions are
    re-opened, replay ``eval_init`` and re-route; the result matches the
    fault-free serial run bit for bit."""
    result = search(faults.FaultPlan({"rpc.recv": [6, 9], "rpc.send": [12]}),
                    backend=backend, workers=2, wave_size=2,
                    restart_budget=16, rpc_timeout_s=10.0, **kw)
    assert result.actions == reference.actions
    assert result.cost == reference.cost
    assert result.faults_injected >= 1
    assert result.workers_restarted >= 1 or result.degraded_to


@pytest.mark.parametrize("backend", ["serial", "process", "remote"])
def test_raising_evaluation_surfaces_with_its_own_type(backend,
                                                       monkeypatch):
    """An evaluation that raises is a bug, not a fault: workers report
    it, the ladder runs out, and the in-process terminus re-raises the
    same exception type the serial backend would have."""

    class Boom(ArithmeticError):
        pass

    real_compute = Evaluator.compute

    def compute(self, key):
        if key:
            raise Boom(f"cannot price {key!r}")
        return real_compute(self, key)

    monkeypatch.setattr(Evaluator, "compute", compute)
    with PlanServer() as server, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(Boom, match="cannot price"):
            search(backend=backend, workers=2, wave_size=2,
                   plan_server=(rpc.format_address(server.address)
                                if backend == "remote" else None))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestRemoteChaos:
    def test_connection_resets_heal_bit_identically(self, reference):
        """The client and the in-process server share the schedule's
        counters."""
        with PlanServer() as server:
            check_connection_resets_heal(
                "remote", reference,
                plan_server=rpc.format_address(server.address))

    def test_server_search_crash_falls_back_to_local(self, reference):
        with PlanServer() as server:
            address = rpc.format_address(server.address)
            result = search(faults.FaultPlan({"server.search": [0]}),
                            plan_server=address)
            assert result.plan_source == "local"
            assert result.actions == reference.actions
            assert result.cost == reference.cost
            # The server recovered: a retry is served normally.
            retry = search(plan_server=address)
        assert retry.plan_source == "server:search"
        assert retry.actions == reference.actions

    def test_seeded_schedule_over_remote_backend(self, reference):
        """A pseudo-random (but seed-deterministic) schedule across every
        site at once — the 'any fault schedule' quantifier."""
        with PlanServer() as server:
            address = rpc.format_address(server.address)
            result = search(faults.FaultPlan.seeded(3, rate=0.06),
                            backend="remote", workers=2, wave_size=2,
                            plan_server=address, restart_budget=32,
                            rpc_timeout_s=10.0)
        assert result.actions == reference.actions
        assert result.cost == reference.cost


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestTornWritesDuringSearch:
    def test_torn_cache_and_memo_writes_do_not_change_results(
            self, tmp_path, reference):
        """A cache.append fault during a process-backend search with a
        persistent cache_dir: the search completes bit-identically, and
        the torn log still warm-starts a later run to the same answer."""
        result = search(faults.FaultPlan({"cache.append": [0]}),
                        backend="process", workers=2, wave_size=2,
                        cache_dir=str(tmp_path))
        assert result.actions == reference.actions
        assert result.cost == reference.cost
        warm = search(cache_dir=str(tmp_path))
        assert warm.actions == reference.actions
        assert warm.cost == reference.cost


class TestZeroOverhead:
    def test_no_plan_means_no_fabric_footprint(self, reference):
        assert reference.faults_injected == 0
        assert reference.workers_restarted == 0
        assert reference.waves_retried == 0
        assert reference.degraded_to == ""
        assert reference.server_circuit_open is False

    def test_results_identical_after_install_uninstall_cycle(
            self, reference):
        """A plan installed and removed leaves no residue: the next
        search's full SearchResult — counters included — is byte-identical
        to one from a process that never saw a plan."""
        faults.install(faults.FaultPlan({"worker.exit": [0]}))
        faults.uninstall()
        again = search()

        def stable(result):  # timings are wall-clock, not contract
            return {key: value
                    for key, value in dataclasses.asdict(result).items()
                    if not key.endswith("_time_s")}

        assert stable(again) == stable(reference)

    def test_process_backend_counters_clean_without_plan(self):
        result = search(backend="process", workers=2, wave_size=2)
        assert result.faults_injected == 0
        assert result.workers_restarted == 0
        assert result.waves_retried == 0
        assert result.degraded_to == ""


class TestPipelinedModelChaos:
    """The degradation contract extends to loop/pipeline programs: a
    seeded fault schedule over a search whose action space includes
    PIPELINE (the microbatched layer stack) still reproduces the
    fault-free serial result bit for bit."""

    def pipeline_search(self, **kw):
        from repro.models import pipeline as pm

        traced = pm.trace_pipeline_transformer(pm.tiny())
        env = ShardingEnv(Mesh({"stage": 2, "model": 2}))
        params = dict(device=TINY_DEVICE, budget=8, seed=3)
        params.update(kw)
        return mcts_search(traced.function, env, ["stage", "model"],
                           **params)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_seeded_schedule_over_pipelined_search(self):
        reference = self.pipeline_search()
        faults.install(faults.FaultPlan.seeded(21, rate=0.05))
        try:
            result = self.pipeline_search(backend="process", workers=2,
                                          wave_size=2, restart_budget=16)
        finally:
            faults.uninstall()
        assert result.actions == reference.actions
        assert result.cost == reference.cost
