"""Length-prefixed socket protocol for the plan server.

Wire format (all little-endian): each message is ``[u32 length][u32
crc32][pickle payload]`` on a stream socket.  The CRC catches silent
truncation/corruption on flaky links; a mismatch (including a frame from
a pre-CRC protocol-1 peer, whose "crc" field is really the first payload
bytes) raises :class:`ProtocolError` instead of unpickling garbage.
A request and its reply are both plain picklable objects (dicts by
convention, with a ``"kind"`` discriminator); the peer answers every
request on the same connection, in order (:func:`serve_connection`), so
a connection is a request/reply channel — synchronous through
:meth:`Connection.request`, pipelined through ``send`` then ``recv`` —
and one client can hold several connections for parallelism.  Both
worker transports of the rollout scheduler do: ``remote`` connects to
the plan server over TCP, ``process`` forks a child on the other end of
a ``socket.socketpair()``; the frames are the same.

Payloads are **pickle**, which is what lets traced :class:`Function`
objects, meshes and portable env states ride along unchanged.  Pickle is
not safe against hostile peers: the plan server is a *trusted-cluster*
daemon (bind it to localhost or a private network, as the paper's target
deployment does), not an internet service.

Errors cross the wire as ``{"ok": False, "error": ...}`` replies and are
re-raised client-side as :class:`RemoteError`; transport-level failures
surface as :class:`ConnectionError`/``OSError`` so callers can fall back
to local search (see ``mcts_search(plan_server=...)``).

Client-side resilience: a per-address :class:`CircuitBreaker`
(:func:`breaker_for`) turns a flapping server into one timeout instead of
one per call — after :data:`BREAKER_THRESHOLD` consecutive transport
failures the breaker *opens* and callers skip the network entirely;
after :data:`BREAKER_COOLDOWN_S` one half-open probe is let through and
its outcome closes or re-opens the circuit.  A :class:`RemoteError`
means the server is alive (it processed the request), so it counts as
breaker *success*.  Every breaker reads the two module constants when
it is created.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time
import zlib
from typing import Callable, Dict, Optional, Tuple

from . import faults

#: ``[u32 payload length][u32 payload crc32]``.
_FRAME = struct.Struct("<II")

#: Upper bound on one frame; a guard against garbage on the port, not a
#: protocol limit (paper-scale functions pickle to a few MB at most).
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Protocol version, checked by the server on every request.
#: 1 = ``[u32 len][payload]``; 2 = ``[u32 len][u32 crc32][payload]``;
#: 3 = the same frames, ``eval`` replies are 10-tuples (no shared-memo
#: slots; see :func:`repro.auto.evaluator.evaluate_with_deltas`).
PROTOCOL = 3


class RemoteError(RuntimeError):
    """The server processed the request and reported a failure."""


class ProtocolError(ConnectionError):
    """The peer sent bytes that violate the framing protocol (oversized
    frame, checksum mismatch, or a pre-CRC protocol-1 frame).  Subclasses
    ``ConnectionError`` so every existing fall-back-to-local path treats
    it as an unusable transport."""


def parse_address(address) -> Tuple[str, int]:
    """``"host:port"`` (or ``(host, port)``) -> ``(host, port)``."""
    if isinstance(address, (tuple, list)):
        host, port = address
        return str(host), int(port)
    host, _, port = str(address).rpartition(":")
    if not host or not port:
        raise ValueError(
            f"plan server address {address!r} is not 'host:port'"
        )
    return host, int(port)


def format_address(address: Tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


# -- framing -----------------------------------------------------------------------


def send_msg(sock: socket.socket, payload) -> None:
    if faults.should_fire("rpc.send"):
        try:
            sock.close()  # a real reset also kills the socket
        except OSError:
            pass
        raise ConnectionResetError("injected fault: rpc.send")
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_FRAME.pack(len(blob), zlib.crc32(blob)) + blob)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket):
    if faults.should_fire("rpc.recv"):
        try:
            sock.close()
        except OSError:
            pass
        raise ConnectionResetError("injected fault: rpc.recv")
    header = _recv_exact(sock, _FRAME.size)
    length, crc = _FRAME.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"oversized frame ({length} bytes > {MAX_FRAME_BYTES})"
        )
    blob = _recv_exact(sock, length)
    if zlib.crc32(blob) != crc:
        # A protocol-1 peer sends [u32 len][payload]: our "crc" field is
        # then the payload's first 4 bytes, which for pickle protocol 2+
        # start with the 0x80 opcode — flag the likely version skew.
        hint = ""
        if crc & 0xFF == 0x80:
            hint = " (frame looks like pre-CRC protocol 1; upgrade the peer)"
        raise ProtocolError(f"frame checksum mismatch{hint}")
    return pickle.loads(blob)


# -- client ------------------------------------------------------------------------


class Connection:
    """One request/reply channel to a peer that answers in order."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, payload: dict) -> None:
        """Send one request without waiting for its reply (a later
        :meth:`recv` collects it; replies arrive in request order)."""
        message = dict(payload)
        message.setdefault("protocol", PROTOCOL)
        send_msg(self._sock, message)

    def recv(self):
        """The next reply's ``"value"`` field.

        Raises :class:`RemoteError` for peer-reported failures and
        ``ConnectionError``/``OSError`` for transport failures — a peer
        that died is an EOF here, a silent one the socket's deadline."""
        reply = recv_msg(self._sock)
        if not isinstance(reply, dict) or not reply.get("ok"):
            error = reply.get("error") if isinstance(reply, dict) \
                else repr(reply)
            raise RemoteError(str(error))
        return reply.get("value")

    def request(self, payload: dict):
        """Send one request; return its reply (see :meth:`recv`)."""
        self.send(payload)
        return self.recv()

    def settimeout(self, timeout: Optional[float]) -> None:
        """Adjust the per-call deadline on the underlying socket."""
        self._sock.settimeout(timeout)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect(address, timeout: Optional[float] = 30.0) -> Connection:
    """Open a connection to ``address`` (``"host:port"`` or tuple).

    ``timeout`` bounds the TCP connect *and* every subsequent
    request/reply round trip; raises ``OSError`` when the server is
    unreachable — the signal the client-side fallback keys on."""
    host, port = parse_address(address)
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(timeout)
    return Connection(sock)


# -- circuit breaker ---------------------------------------------------------------

#: Consecutive transport failures that open an address's circuit.
BREAKER_THRESHOLD = 3
#: Seconds an open circuit waits before letting one half-open probe out.
BREAKER_COOLDOWN_S = 30.0

class CircuitBreaker:
    """Closed → (N consecutive transport failures) → open → (cooldown)
    → half-open, where exactly one probe call is admitted; the probe's
    outcome closes or re-opens the circuit.

    Only *transport* failures (``OSError``/``ConnectionError``) count
    toward opening: a :class:`RemoteError` proves the server is alive and
    is recorded as success.  Thread-safe — ``partir_jit`` callers and the
    remote backend's fan-out threads share one breaker per address.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self):
        self.threshold = BREAKER_THRESHOLD
        self.cooldown_s = BREAKER_COOLDOWN_S
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May this call touch the network?  In the open state, returns
        True exactly once per cooldown window (the half-open probe)."""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if time.monotonic() - self._opened_at < self.cooldown_s:
                    return False
                self._state = self.HALF_OPEN
                self._probing = True
                return True
            # half-open: one probe in flight at a time
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._probing = False
            if (self._state == self.HALF_OPEN
                    or self._failures >= self.threshold):
                self._state = self.OPEN
                self._opened_at = time.monotonic()


_BREAKERS: Dict[str, CircuitBreaker] = {}
_BREAKERS_LOCK = threading.Lock()


def breaker_for(address) -> CircuitBreaker:
    """The process-wide breaker for ``address`` (normalized host:port)."""
    key = format_address(parse_address(address))
    with _BREAKERS_LOCK:
        breaker = _BREAKERS.get(key)
        if breaker is None:
            breaker = _BREAKERS[key] = CircuitBreaker()
        return breaker


def reset_breakers() -> None:
    """Forget all breaker state (tests; a long-lived client after a known
    fleet-wide restart)."""
    with _BREAKERS_LOCK:
        _BREAKERS.clear()


# -- server loop -------------------------------------------------------------------


def _answer(handler: Callable, message) -> dict:
    try:
        return {"ok": True, "value": handler(message)}
    except Exception as exc:  # surface, never kill the serving loop
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def serve_connection(sock: socket.socket, handler: Callable,
                     stopping: Optional[threading.Event] = None,
                     backlog: tuple = ()) -> bool:
    """Answer framed requests on ``sock`` until the peer goes away.

    Each message gets one reply, in order: ``{"ok": True, "value":
    handler(message)}`` or, when the handler raises, ``{"ok": False,
    "error": ...}``.  ``backlog`` holds requests that reached this end by
    other means than the socket (the ``eval_init`` a forked worker was
    handed at fork); they are answered first.  The loop ends on EOF, on
    any transport error and once ``stopping`` is set; it returns True
    only when the socket's own timeout ended it (an idle peer).  The plan
    daemon runs this per accepted connection, a forked ``process`` worker
    on its end of the socketpair."""
    backlog = list(backlog)
    while stopping is None or not stopping.is_set():
        try:
            message = backlog.pop(0) if backlog else recv_msg(sock)
        except socket.timeout:
            return True
        except (ConnectionError, OSError, EOFError, pickle.UnpicklingError):
            return False
        try:
            send_msg(sock, _answer(handler, message))
        except (ConnectionError, OSError):
            return False
    return False


class RpcServer:
    """A thread-per-connection frame server.

    ``handler_factory()`` is called once per accepted connection and must
    return a ``callable(message) -> value``; the return value is wrapped
    in an ``{"ok": True, "value": ...}`` reply, exceptions in an
    ``{"ok": False, "error": ...}`` reply.  Per-connection handlers may
    carry state (the plan server's evaluator sessions do) and may expose
    a ``close()`` hook, invoked when the connection ends.

    Hardening knobs: ``max_connections`` bounds concurrent connections
    (excess accepts are closed immediately and counted in
    ``connections_rejected``); ``idle_timeout_s`` reaps connections with
    no request for that long (``connections_reaped``).  A wedged handler
    is bounded by its client's own per-call deadline (``rpc_timeout_s``,
    ``PLAN_REQUEST_TIMEOUT_S``), past which the client heals or falls
    back to a local search.
    """

    def __init__(self, handler_factory: Callable[[], Callable],
                 host: str = "127.0.0.1", port: int = 0,
                 max_connections: int = 64,
                 idle_timeout_s: Optional[float] = 300.0):
        self._handler_factory = handler_factory
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(64)
        self.address: Tuple[str, int] = self._sock.getsockname()[:2]
        self.max_connections = max_connections
        self.idle_timeout_s = idle_timeout_s
        self.connections_rejected = 0
        self.connections_reaped = 0
        self._active = 0
        self._active_lock = threading.Lock()
        self._threads = []
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    def start(self) -> None:
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="partir-rpc-accept", daemon=True
        )
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread (daemon main)."""
        self._accept_loop()

    def stop(self) -> None:
        self._stopping.set()
        # close() alone does not wake a thread blocked in accept(): the
        # kernel keeps the listener alive for that call, and the "stopped"
        # server then accepts (and instantly drops) one more connection
        # on its old port.  shutdown() makes the accept return.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        # The accept loop registers a connection thread only once it has
        # started, under this lock: the snapshot never holds a thread that
        # join() would refuse.
        with self._active_lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=5.0)

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # socket closed by stop()
            with self._active_lock:
                if self._active >= self.max_connections:
                    self.connections_rejected += 1
                    try:
                        conn.close()
                    except OSError:
                        pass
                    continue
                self._active += 1
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="partir-rpc-conn", daemon=True,
            )
            thread.start()
            with self._active_lock:
                self._threads = [t for t in self._threads if t.is_alive()]
                self._threads.append(thread)

    def _serve_connection(self, conn: socket.socket) -> None:
        handler = self._handler_factory()
        if self.idle_timeout_s is not None:
            try:
                conn.settimeout(self.idle_timeout_s)
            except OSError:
                pass
        reaped = False
        try:
            reaped = serve_connection(conn, handler, self._stopping)
        finally:
            with self._active_lock:
                self._active -= 1
                if reaped:
                    self.connections_reaped += 1
            close = getattr(handler, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:
                    pass
            try:
                conn.close()
            except OSError:
                pass
