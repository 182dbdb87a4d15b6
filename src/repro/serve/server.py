"""The long-lived suggestion daemon (``repro serve --listen``).

One process, one (or several, name-addressed) warm
:class:`~repro.serve.pipeline.SuggestionService`, many concurrent
clients: the server binds a TCP port or unix socket, performs the
:mod:`~repro.serve.protocol` handshake per connection, and serves
suggest requests over the shared services — so every client benefits
from the same warm :class:`~repro.serve.store.SuggestionStore`, the
same loaded models, and the same encode caches, instead of each
invocation paying model load + parse + forward from scratch.

Concurrency model: a single asyncio event loop owns every socket
(accepts, frame reads, frame writes), so a thousand idle connections
cost a thousand coroutines, not a thousand threads.  Compute is
CPU-bound pure python and runs off-loop: each named bundle has an
*admission lane* — a bounded queue of accepted requests — and a
micro-batcher that drains the lane into coalesced *rounds*, executed
one at a time per bundle on a small thread pool.  A round joins the
workloads of every queued request through
:meth:`SuggestionService.iter_joint`, so concurrent requests from
*different* clients share one block-diagonal forward (identical file
content across clients is computed exactly once), and the replies fan
back out per (client, request, file) byte-identical to serving each
request alone.

Admission control and fairness:

- a lane holding ``queue_depth`` waiting requests refuses the next one
  with a ``busy`` error frame instead of buffering without bound;
- each round takes at most ``round_files`` files, drawn round-robin
  across the waiting requests — one bulk client streaming a large
  corpus is chunked across rounds while small interactive requests
  join (and finish within) every round, so bulk never starves
  interactive;
- ``batch_window_ms`` is the micro-batch window: a request arriving at
  an *idle* lane waits that long for concurrent arrivals to coalesce
  with.  The window is skipped when only one client is connected
  (flush-on-idle — single-client latency does not regress) and after a
  busy round (work that queued during the round has already
  coalesced).

Replies never block compute: frames are queued per connection and
written by a dedicated writer coroutine, so a slow or stalled reader
delays only itself — if it stops draining for ``_WRITE_TIMEOUT_S`` (or
falls a full outbox behind) it is dropped like a dead client while the
round keeps streaming to everyone else.

Lifecycle: :meth:`SuggestServer.start` binds and serves on a
background thread (tests, embedding); :meth:`serve_forever` serves on
the calling thread (the CLI).  :meth:`shutdown` drains — new requests
are refused with a ``shutting-down`` error frame, in-flight replies
run to completion, idle connections close immediately — then the
listener closes.  A client that vanishes mid-stream only loses its own
connection; its undelivered files are dropped and every other client
keeps streaming.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import hashlib
import os
import socket
import tempfile
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.serve import protocol
from repro.serve.job import Job
from repro.serve.pipeline import ServeConfig, SuggestionService
from repro.serve.store import open_store

#: seconds one reply frame may stall on client backpressure before the
#: client is considered gone
_WRITE_TIMEOUT_S = 30.0
#: frames a connection's outbox may buffer before a non-reading client
#: is dropped (bounds per-connection memory)
_OUTBOX_FRAMES = 512
#: seconds shutdown waits for in-flight replies before cancelling them
_DRAIN_GRACE_S = 30.0

#: waiting requests per bundle lane before admission refuses with
#: a ``busy`` error frame
DEFAULT_QUEUE_DEPTH = 64
#: micro-batch window (milliseconds) an idle lane waits for concurrent
#: requests to coalesce; skipped with a single connected client
DEFAULT_BATCH_WINDOW_MS = 2.0
#: files per coalesced compute round — the fairness quantum: a bulk
#: request is chunked at this grain so interactive requests join every
#: round
DEFAULT_ROUND_FILES = 256

_CLOSE = object()       # outbox sentinel: flush, then close the writer


class _Connection:
    """One accepted client connection; all state lives on the loop.

    Outgoing frames are *queued* (already encoded) and written by a
    dedicated writer task, so the compute path never blocks on a slow
    reader: :meth:`send` either enqueues and returns ``True``, or
    declares the client gone.
    """

    def __init__(self, reader, writer, max_frame_bytes: int) -> None:
        self.reader = reader
        self.writer = writer
        self.max_frame_bytes = max_frame_bytes
        self.dead = False
        self.closed = False
        self.outbox: asyncio.Queue = asyncio.Queue(maxsize=_OUTBOX_FRAMES)
        self.writer_task: asyncio.Task | None = None

    def send(self, message) -> bool:
        """Encode + queue one frame; ``False`` when the client is gone.

        Raises :class:`~repro.serve.protocol.ProtocolError` when the
        encoded frame exceeds the frame limit — nothing is queued, so
        the caller can still send a clean error frame instead.
        """
        if self.dead or self.closed:
            return False
        frame = protocol.encode_frame(message.to_wire(),
                                      self.max_frame_bytes)
        try:
            self.outbox.put_nowait(frame)
        except asyncio.QueueFull:
            # the client stopped reading a full outbox ago: drop it
            # rather than buffer its reply without bound
            self.abort()
            return False
        return True

    def abort(self) -> None:
        """Declare the client gone and tear the transport down."""
        self.dead = True
        if self.writer_task is not None and not self.writer_task.done():
            self.writer_task.cancel()

    def close(self) -> None:
        """Flush queued frames, then close (writer task finishes it)."""
        if self.closed:
            return
        self.closed = True
        try:
            self.outbox.put_nowait(_CLOSE)
        except asyncio.QueueFull:
            self.abort()


class _Pending:
    """One admitted request: files to schedule + reply bookkeeping.

    The admission lane schedules its files across compute rounds
    (``take``); deliveries arrive back on the event loop in completion
    order and are re-sequenced here for ``ordered`` streams and batch
    replies.  ``done`` resolves once the terminating frame (``done``
    or ``error``) is queued — the connection handler awaits it before
    reading the client's next request.
    """

    def __init__(self, conn: _Connection, request, named: list,
                 service: SuggestionService, future) -> None:
        self.conn = conn
        self.request = request
        self.job = Job.of(request)
        self.files = [(i, name, source)
                      for i, (name, source) in enumerate(named)]
        self.total = len(self.files)
        self.service = service
        self.done = future
        #: absolute monotonic deadline, converted from the request's
        #: relative ``deadline_s`` at admission; ``None`` = patient
        deadline_s = getattr(request, "deadline_s", None)
        self.deadline = (None if deadline_s is None
                         else time.monotonic() + deadline_s)
        self._cursor = 0        # next unscheduled file
        self._delivered = 0
        self._errors = 0
        self._next_emit = 0     # ordered-stream resume point
        self._buffer: dict = {}
        self._batch: list = []
        self.finished = False

    @property
    def fully_scheduled(self) -> bool:
        return self._cursor >= self.total

    @property
    def expired(self) -> bool:
        return (self.deadline is not None
                and time.monotonic() > self.deadline)

    def take(self):
        """The next unscheduled ``(index, name, source)``, or ``None``.

        An expired request schedules nothing further — the client has
        given up, so its remaining files must not occupy compute
        rounds other clients are waiting for.
        """
        if self._cursor >= self.total or self.expired:
            return None
        item = self.files[self._cursor]
        self._cursor += 1
        return item

    def result(self, index: int, fs):
        """The request's job applied to one file's finished suggestions.

        Runs on the compute thread — a rewrite request's interpreter
        verification must never touch the event loop.  Suggestion
        coalescing is unaffected: rewrites are a deterministic per-file
        function of the shared suggestion result.
        """
        _, name, source = self.files[index]
        return self.job.finish(self.service, name, source, fs)

    def _send_frame(self, frame) -> None:
        try:
            self.conn.send(frame)
        except protocol.ProtocolError as exc:
            self.fail("serve-error",
                      f"reply frame too large ({exc})")

    def deliver(self, index: int, fs) -> None:
        """One finished file (event loop only; completion order)."""
        if self.finished:
            return
        if self.expired:
            self.fail("deadline-exceeded",
                      f"request deadline of "
                      f"{self.request.deadline_s:.3f}s expired "
                      f"mid-reply; {self._delivered}/{self.total} "
                      f"files were delivered")
            return
        self._delivered += 1
        self._errors += fs.error is not None
        frame = protocol.FileResult(index=index, name=fs.name,
                                    payload=fs.to_payload())
        if not self.request.stream:
            self._batch.append(frame)
        elif self.request.ordered:
            self._buffer[index] = frame
            while self._next_emit in self._buffer:
                self._send_frame(self._buffer.pop(self._next_emit))
                self._next_emit += 1
        else:
            self._send_frame(frame)
        if self._delivered >= self.total:
            self.finish()

    def finish(self) -> None:
        """Queue the terminating reply frames and resolve ``done``."""
        if self.finished:
            return
        self.finished = True
        try:
            if not self.request.stream:
                files = tuple(sorted(self._batch, key=lambda f: f.index))
                self.conn.send(protocol.BatchResult(files=files))
            self.conn.send(protocol.Done(
                files=self._delivered, errors=self._errors,
                stats=self.service.cache_stats()))
        except protocol.ProtocolError as exc:
            # the whole reply exceeds one frame; nothing has hit the
            # wire, so a clean error frame can still follow
            self._send_error(
                "serve-error",
                f"batch reply too large for one frame ({exc}); "
                f"request stream=True instead")
        self._resolve()

    def fail(self, code: str, message: str) -> None:
        """Terminate the reply with an error frame (idempotent)."""
        if self.finished:
            return
        self.finished = True
        self._send_error(code, message)
        self._resolve()

    def cancel(self) -> None:
        """The client vanished: resolve without sending anything."""
        self.finished = True
        self._resolve()

    def _send_error(self, code: str, message: str) -> None:
        try:
            self.conn.send(protocol.Error(code=code, message=message))
        except protocol.ProtocolError:
            pass
        except Exception:
            pass

    def _resolve(self) -> None:
        if not self.done.done():
            self.done.set_result(None)


class _Lane:
    """Admission queue + micro-batcher state for one named bundle."""

    def __init__(self, name: str, service: SuggestionService) -> None:
        self.name = name
        self.service = service
        self.queue: deque[_Pending] = deque()
        self.wake = asyncio.Event()
        #: no round has run since the queue last emptied — the
        #: micro-batch window only applies to such cold arrivals
        self.idle = True
        #: a compute round is currently executing (health reporting)
        self.running = False


class SuggestServer:
    """A network front over warm, name-addressed suggestion services.

    ``services`` maps bundle names to built
    :class:`SuggestionService` instances; ``default`` names the one a
    request without a ``bundle`` field is served from (defaults to the
    first entry).  Exactly one of ``host``/``port`` (TCP; ``port=0``
    binds an ephemeral port) or ``unix_path`` selects the transport.

    ``queue_depth`` bounds each bundle's admission queue (excess
    requests are refused with a ``busy`` error frame),
    ``batch_window_ms`` is the micro-batch coalescing window, and
    ``round_files`` caps the files per coalesced compute round — the
    fairness quantum between bulk and interactive clients.
    """

    def __init__(self, services: dict[str, SuggestionService], *,
                 default: str | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 unix_path: str | Path | None = None,
                 local_roots: tuple | list | None = None,
                 max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
                 server_id: str = "repro.serve",
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS,
                 round_files: int = DEFAULT_ROUND_FILES,
                 degraded: dict[str, str] | None = None,
                 serve_config: ServeConfig | None = None,
                 cache_dir: str | Path | None = None,
                 bundle_cache_dir: str | Path | None = None) -> None:
        if not services and bundle_cache_dir is None:
            raise ValueError("a SuggestServer needs at least one service")
        self.services = dict(services)
        #: accepting ``bundle-push``: pushed archives are cached here
        #: under their content hash; ``None`` refuses pushes.  A server
        #: with pushes enabled may start with *no* services and acquire
        #: them all over the wire (self-provisioning peers).
        self.bundle_cache_dir = (None if bundle_cache_dir is None
                                 else Path(bundle_cache_dir))
        #: config + store root that services built from pushed bundles
        #: inherit, so a pushed advisor serves exactly like a local one
        self._serve_config = serve_config
        self._cache_dir = cache_dir
        #: archive sha256 → serving name, for ``bundle-have`` lookups
        #: and hash-prefix bundle refs in requests
        self._hashes: dict[str, str] = {}
        self._own_store = None      # lazily opened over _cache_dir
        #: bundles that failed to load at startup: name → reason.  The
        #: daemon serves what it has and advertises what it lost, so a
        #: fleet rollout with one corrupt artifact degrades instead of
        #: flapping; requests for a degraded bundle get a clean
        #: ``unknown-bundle`` refusal naming the load failure.
        self.degraded = dict(degraded or {})
        #: directories the server may read for ``paths``/``dir``
        #: requests; ``None`` (the default) disables server-side reads
        #: entirely — an open TCP daemon must not be a file-read
        #: oracle over its whole filesystem
        self.local_roots = (None if local_roots is None else
                            tuple(Path(r).resolve() for r in local_roots))
        self.default = default
        if self.default is None and self.services:
            self.default = next(iter(self.services))
        if self.default is not None and self.default not in self.services:
            raise ValueError(f"default bundle {self.default!r} is not "
                             f"among {sorted(self.services)}")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if round_files < 1:
            raise ValueError("round_files must be >= 1")
        self.max_frame_bytes = max_frame_bytes
        self.server_id = server_id
        self.queue_depth = queue_depth
        self.batch_window_ms = float(batch_window_ms)
        self.round_files = round_files
        self._shutdown_lock = threading.Lock()
        self._shutting_down = False
        self._draining = threading.Event()
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._drain_evt: asyncio.Event | None = None
        self._lanes: dict[str, _Lane] = {}
        self._lane_tasks: list[asyncio.Task] = []
        self._conns: set[_Connection] = set()
        self._handler_tasks: set[asyncio.Task] = set()
        self._executor: ThreadPoolExecutor | None = None
        self.unix_path = None if unix_path is None else str(unix_path)
        # Bind synchronously so ``address`` is valid (and bind errors
        # raise here) before any event loop exists.
        if self.unix_path is not None:
            if not hasattr(socket, "AF_UNIX"):
                raise ValueError(
                    "unix sockets are not supported on this platform; "
                    "use host/port")
            self._reclaim_stale_socket(self.unix_path)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.bind(self.unix_path)
                sock.listen(128)
            except BaseException:
                sock.close()
                raise
        else:
            sock = socket.create_server((host, port), backlog=128,
                                        reuse_port=False)
        sock.setblocking(False)
        self._sock = sock

    @staticmethod
    def _reclaim_stale_socket(path: str) -> None:
        """Unlink a leftover socket file from a crashed daemon.

        A SIGKILLed server leaves its socket file behind and the next
        bind fails with EADDRINUSE.  Probe it first: a live listener
        accepts the connection and keeps its socket; only a dead one
        (connection refused) is reclaimed.
        """
        if not Path(path).is_socket():
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            probe.connect(path)
        except (ConnectionRefusedError, socket.timeout, TimeoutError):
            try:
                Path(path).unlink()
            except OSError:
                pass
        except OSError:
            pass        # unreadable/odd socket: let bind report it
        else:
            raise OSError(
                f"a server is already listening on {path}")
        finally:
            probe.close()

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> str:
        """The bound address: ``host:port`` or the unix socket path."""
        if self.unix_path is not None:
            return self.unix_path
        host, port = self._sock.getsockname()[:2]
        return f"{host}:{port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        try:
            asyncio.run(self._main())
        finally:
            if self.unix_path is not None:
                try:
                    Path(self.unix_path).unlink()
                except OSError:
                    pass
            self._stopped.set()

    def start(self) -> "SuggestServer":
        """Serve on a background thread; returns once accepting."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="repro-serve-loop",
                                        daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("server failed to start accepting")
        return self

    def shutdown(self) -> None:
        """Drain and stop: refuse new requests, finish in-flight
        replies, close the listener.

        Safe to call from any thread (except the one running
        :meth:`serve_forever`) and from several at once: the first
        caller performs the drain, every other caller blocks until it
        has finished — so a signal handler's shutdown and a main
        loop's ``finally`` cannot race the process exit past a
        half-drained server.
        """
        with self._shutdown_lock:
            first = not self._shutting_down
            self._shutting_down = True
        if not first:
            self._stopped.wait(timeout=60.0)
            return
        self._draining.set()
        loop = self._loop
        if loop is not None and not self._stopped.is_set():
            try:
                loop.call_soon_threadsafe(self._begin_drain)
            except RuntimeError:
                pass        # loop already closed; serve_forever's
                            # finally sets _stopped
            self._stopped.wait(timeout=60.0)
        else:
            # never served (or already finished): just close the bind
            try:
                self._sock.close()
            except OSError:
                pass
            if self.unix_path is not None:
                try:
                    Path(self.unix_path).unlink()
                except OSError:
                    pass
            self._stopped.set()
        if (self._thread is not None
                and self._thread is not threading.current_thread()):
            self._thread.join(timeout=30.0)

    def _begin_drain(self) -> None:
        if self._drain_evt is not None:
            self._drain_evt.set()

    def __enter__(self) -> "SuggestServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- the event loop ------------------------------------------------------

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._drain_evt = asyncio.Event()
        if self._draining.is_set():     # shutdown raced serve start
            self._drain_evt.set()
        self._lanes = {name: _Lane(name, service)
                       for name, service in self.services.items()}
        workers = max(1, len(self._lanes))
        if self.bundle_cache_dir is not None:
            # headroom for lanes created by bundle pushes mid-serve
            workers = max(workers, 4)
        self._executor = ThreadPoolExecutor(
            max_workers=workers,
            thread_name_prefix="repro-serve-compute")
        self._lane_tasks = [loop.create_task(self._lane_loop(lane),
                                             name=f"repro-lane-{lane.name}")
                            for lane in self._lanes.values()]
        if self.unix_path is not None:
            server = await asyncio.start_unix_server(
                self._on_connect, sock=self._sock)
        else:
            server = await asyncio.start_server(
                self._on_connect, sock=self._sock)
        self._started.set()
        try:
            await self._drain_evt.wait()
            server.close()              # stop accepting
            await server.wait_closed()
            # idle handlers exit at the drain signal; in-flight
            # replies run to completion
            if self._handler_tasks:
                await asyncio.wait(set(self._handler_tasks),
                                   timeout=_DRAIN_GRACE_S)
        finally:
            for task in list(self._handler_tasks):
                task.cancel()
            for task in self._lane_tasks:
                task.cancel()
            await asyncio.gather(*self._lane_tasks,
                                 return_exceptions=True)
            for conn in list(self._conns):
                conn.abort()
            self._executor.shutdown(wait=True, cancel_futures=True)
            server.close()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_registry(cls, registry, config: ServeConfig | None = None,
                      cache_dir: str | Path | None = None,
                      **net) -> "SuggestServer":
        """One warm service per registered bundle, sharing one store.

        Registry content hashes are carried over, so clients can
        address these bundles by hash prefix and ``bundle-have``
        answers truthfully for archives the daemon loaded locally.
        """
        from repro.serve.pipeline import build_service

        services = {
            name: build_service(registry.get(name), config,
                                cache_dir=cache_dir)
            for name in registry.names()
        }
        server = cls(services, default=registry.default,
                     serve_config=config, cache_dir=cache_dir, **net)
        server._hashes.update({sha: name for name, sha
                               in registry.hashes().items()})
        return server

    # -- capabilities --------------------------------------------------------

    def capabilities(self) -> dict:
        return {
            "bundles": sorted(self.services),
            "default_bundle": self.default,
            "clauses": {
                name: sorted(service.suggester.clause_models)
                for name, service in self.services.items()
            },
            "model_keys": {
                name: service._model_key
                for name, service in self.services.items()
            },
            "max_frame_bytes": self.max_frame_bytes,
            "streaming": True,
            "rewrite": True,
            "server_side_paths": self.local_roots is not None,
            "coalescing": True,
            "queue_depth": self.queue_depth,
            "batch_window_ms": self.batch_window_ms,
            "ping": True,
            "deadlines": True,
            #: bundles that failed to load at startup: name → reason
            "degraded": dict(self.degraded),
            # -- fabric: this daemon can be a peer in a serving fleet
            "fabric": True,
            "bundle_push": self.bundle_cache_dir is not None,
            "network_store": self.shared_store() is not None,
        }

    def shared_store(self):
        """The store this daemon shares over the wire, or ``None``.

        A server built over an explicit ``cache_dir`` serves that
        store; otherwise the default service's (every
        :meth:`from_registry` service shares one root anyway).
        """
        if self._cache_dir is not None:
            if self._own_store is None:
                self._own_store = open_store(self._cache_dir)
            return self._own_store
        service = (self.services.get(self.default)
                   if self.default is not None else None)
        if service is None and self.services:
            service = next(iter(self.services.values()))
        return None if service is None else service.store

    # -- connection protocol -------------------------------------------------

    async def _writer_loop(self, conn: _Connection) -> None:
        """Drain one connection's outbox onto its socket.

        A frame that cannot be flushed within ``_WRITE_TIMEOUT_S``
        declares the client gone — backpressure from one slow reader
        must never reach the compute rounds or other clients.
        """
        try:
            while True:
                frame = await conn.outbox.get()
                if frame is _CLOSE:
                    return
                conn.writer.write(frame)
                await asyncio.wait_for(conn.writer.drain(),
                                       _WRITE_TIMEOUT_S)
        except (asyncio.TimeoutError, TimeoutError,
                ConnectionError, OSError):
            conn.dead = True
        finally:
            try:
                if conn.dead:
                    conn.writer.transport.abort()
                else:
                    conn.writer.close()
            except Exception:
                pass

    async def _read_message(self, conn: _Connection):
        """One decoded message; ``None`` on clean EOF at a frame
        boundary; :class:`~repro.serve.protocol.ProtocolError` on a
        violation.  Slow senders are simply awaited — partial frames
        survive any pause."""
        try:
            header = await conn.reader.readexactly(protocol.HEADER_SIZE)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise protocol.ProtocolError(
                "bad-frame", "connection closed mid-frame") from exc
        except ConnectionResetError:
            return None
        length = protocol.parse_frame_length(header, self.max_frame_bytes)
        try:
            body = await conn.reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise protocol.ProtocolError(
                "bad-frame",
                "connection closed between header and body") from exc
        except ConnectionResetError:
            return None
        return protocol.decode_message(protocol.decode_frame_body(body))

    async def _read_or_drain(self, conn: _Connection):
        """Read one message, or ``None`` once the server drains.

        Between requests a connection parks here; a drain wakes it
        immediately (no poll tick) and closes it cleanly.
        """
        if self._drain_evt.is_set():
            return None
        read = asyncio.ensure_future(self._read_message(conn))
        drain = asyncio.ensure_future(self._drain_evt.wait())
        try:
            done, _ = await asyncio.wait(
                {read, drain}, return_when=asyncio.FIRST_COMPLETED)
        finally:
            drain.cancel()
        if read in done:
            return read.result()
        read.cancel()
        try:
            await read
        except (asyncio.CancelledError, protocol.ProtocolError,
                ConnectionError, OSError):
            pass
        return None

    async def _on_connect(self, reader, writer) -> None:
        conn = _Connection(reader, writer, self.max_frame_bytes)
        task = asyncio.current_task()
        self._handler_tasks.add(task)
        self._conns.add(conn)
        sock = writer.get_extra_info("socket")
        if (sock is not None
                and sock.family != getattr(socket, "AF_UNIX", None)):
            # small request/reply frames + Nagle + delayed ACK would
            # add ~40ms to every warm round trip
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.writer_task = asyncio.get_running_loop().create_task(
            self._writer_loop(conn))
        try:
            await self._session(conn)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            self._handler_tasks.discard(task)
            self._conns.discard(conn)
            conn.close()

    async def _session(self, conn: _Connection) -> None:
        # handshake: Hello in, HelloOk (or a refusal) out
        try:
            hello = await self._read_or_drain(conn)
        except protocol.ProtocolError as exc:
            conn.send(protocol.Error(code=exc.code, message=str(exc)))
            return
        if hello is None:
            return
        if not isinstance(hello, protocol.Hello):
            conn.send(protocol.Error(
                code="bad-request",
                message=f"expected a hello frame first, "
                        f"got {hello.KIND!r}"))
            return
        if hello.protocol != protocol.PROTOCOL_VERSION:
            conn.send(protocol.Error(
                code="protocol-mismatch",
                message=f"server speaks protocol "
                        f"{protocol.PROTOCOL_VERSION}, client asked "
                        f"for {hello.protocol}"))
            return
        if not conn.send(protocol.HelloOk(
                server=self.server_id,
                capabilities=self.capabilities())):
            return

        while True:
            try:
                message = await self._read_or_drain(conn)
            except protocol.ProtocolError as exc:
                # framing/schema violations poison the byte stream:
                # report and close rather than guess at resync
                conn.send(protocol.Error(code=exc.code,
                                         message=str(exc)))
                return
            if message is None or isinstance(message, protocol.Goodbye):
                return
            if isinstance(message, protocol.Ping):
                # health probes answer straight off the session loop:
                # they must work exactly when the lanes are saturated
                if not conn.send(protocol.Pong(
                        token=message.token,
                        queued=sum(len(lane.queue)
                                   for lane in self._lanes.values()),
                        running=sum(lane.running
                                    for lane in self._lanes.values()),
                        capabilities=self.capabilities())):
                    return
                continue
            if isinstance(message, protocol.BundleHave):
                name = self._hashes.get(message.sha256)
                if not conn.send(protocol.BundleHaveOk(
                        sha256=message.sha256,
                        have=name is not None, name=name)):
                    return
                continue
            if isinstance(message, protocol.BundlePush):
                if not await self._handle_push(conn, message):
                    return
                continue
            if isinstance(message, protocol.StoreOp):
                if not await self._handle_store(conn, message):
                    return
                continue
            if not isinstance(message, protocol.SuggestRequest):
                conn.send(protocol.Error(
                    code="bad-request",
                    message=f"cannot handle {message.KIND!r} frames "
                            f"here"))
                return
            if not await self._serve_request(conn, message):
                return

    # -- fabric: bundle distribution + the shared store ----------------------

    async def _handle_push(self, conn: _Connection,
                           message: protocol.BundlePush) -> bool:
        """Accept one content-addressed bundle archive over the wire.

        The digest is recomputed from the received bytes and a mismatch
        with the client's claim is refused — a peer must never serve an
        advisor under a content address it cannot verify.  A hash the
        daemon already holds is a pure cache hit: no disk write, no
        service build, ``cached=True`` in the reply.
        """
        if self.bundle_cache_dir is None:
            return conn.send(protocol.Error(
                code="bad-request",
                message="this daemon does not accept bundle pushes; "
                        "start it with --accept-bundles"))
        if self._drain_evt.is_set():
            return conn.send(protocol.Error(
                code="shutting-down",
                message="server is draining; push elsewhere"))
        try:
            data = base64.b64decode(message.data, validate=True)
        except (binascii.Error, ValueError) as exc:
            return conn.send(protocol.Error(
                code="bad-request",
                message=f"bundle data is not valid base64: {exc}"))
        digest = hashlib.sha256(data).hexdigest()
        if digest != message.sha256:
            return conn.send(protocol.Error(
                code="hash-mismatch",
                message=f"pushed bytes hash to {digest[:12]}…, the "
                        f"push claimed {message.sha256[:12]}…; "
                        f"refusing the archive"))
        if digest in self._hashes:
            return conn.send(protocol.BundlePushOk(
                sha256=digest, name=self._hashes[digest], cached=True))
        loop = asyncio.get_running_loop()
        try:
            service = await loop.run_in_executor(
                None, self._install_bundle, digest, data)
        except Exception as exc:
            return conn.send(protocol.Error(
                code="bundle-error",
                message=f"pushed bundle failed to load: {exc}"))
        if digest in self._hashes:
            # a concurrent push of the same content won the race while
            # we were off-loop; theirs serves, ours was warm-up
            return conn.send(protocol.BundlePushOk(
                sha256=digest, name=self._hashes[digest], cached=True))
        name = message.name or f"sha-{digest[:12]}"
        if name in self.services or name in self.degraded:
            # same name, different content: serve both, disambiguated
            name = f"{name}@{digest[:8]}"
        self.services[name] = service
        self._hashes[digest] = name
        if self.default is None:
            self.default = name
        lane = _Lane(name, service)
        self._lanes[name] = lane
        self._lane_tasks.append(loop.create_task(
            self._lane_loop(lane), name=f"repro-lane-{name}"))
        return conn.send(protocol.BundlePushOk(
            sha256=digest, name=name, cached=False))

    def _install_bundle(self, digest: str, data: bytes):
        """Cache + load one pushed archive (compute thread).

        The archive lands in ``bundle_cache_dir`` under its content
        hash (atomically — a crashed push must not leave a torn
        archive a restart would trust), then loads into a service
        sharing the daemon's config and store root.
        """
        from repro.artifacts.bundle import SuggesterBundle
        from repro.serve.pipeline import build_service

        cache = self.bundle_cache_dir
        cache.mkdir(parents=True, exist_ok=True)
        archive = cache / f"{digest}.tar.gz"
        if not archive.exists():
            # a private temp file per push: concurrent pushes of one
            # archive each rename their own copy into place
            fd, tmp = tempfile.mkstemp(dir=cache, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, archive)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        bundle = SuggesterBundle.load(archive)
        return build_service(bundle, self._serve_config,
                             cache_dir=self._cache_dir)

    async def _handle_store(self, conn: _Connection,
                            op: protocol.StoreOp) -> bool:
        """Execute one remote store operation off-loop and reply."""
        store = self.shared_store()
        if store is None:
            return conn.send(protocol.Error(
                code="no-store",
                message="this daemon has no suggestion store to share "
                        "(started without --cache-dir)"))
        loop = asyncio.get_running_loop()
        try:
            reply = await loop.run_in_executor(
                None, self._store_execute, store, op)
        except Exception as exc:
            return conn.send(protocol.Error(
                code="serve-error",
                message=f"store {op.op} failed: {exc}"))
        return conn.send(reply)

    @staticmethod
    def _store_execute(store, op: protocol.StoreOp) -> protocol.StoreOk:
        """One store op against the daemon's store (compute thread)."""
        if op.op == "get":
            if op.layer == "parse":
                entry = store.get_parse(op.key)
            elif op.layer == "suggest":
                entry = store.get_suggestions(op.model_key, op.key)
            else:
                entry = store.get_verdict(op.key)
            return protocol.StoreOk(op="get", entry=entry)
        if op.op == "put":
            if op.layer == "parse":
                store.put_parse(op.key, op.entry)
            elif op.layer == "suggest":
                store.put_suggestions(op.model_key, op.key, op.entry)
            else:
                store.put_verdict(op.key, op.entry)
            return protocol.StoreOk(op="put")
        if op.op == "gc":
            kwargs = {key: op.args[key]
                      for key in ("max_bytes", "max_age_days", "now")
                      if op.args.get(key) is not None}
            return protocol.StoreOk(op="gc", report=store.gc(**kwargs))
        if op.op == "fsck":
            remove = bool(op.args.get("remove", True))
            return protocol.StoreOk(op="fsck",
                                    report=store.fsck(remove=remove))
        return protocol.StoreOk(op="describe", report=store.describe())

    def _resolve_ref(self, ref: str) -> str:
        """A request's bundle ref as a serving name.

        Exact names win; otherwise the ref matches as a prefix of the
        known archive hashes — ambiguity is refused, mirroring
        :meth:`~repro.artifacts.registry.BundleRegistry.resolve`.
        """
        if ref in self.services or ref in self.degraded:
            return ref
        matches = sorted({name for sha, name in self._hashes.items()
                          if sha.startswith(ref)})
        if len(matches) > 1:
            raise protocol.ProtocolError(
                "unknown-bundle",
                f"bundle ref {ref!r} is ambiguous: matches "
                f"{matches}; use a longer hash prefix")
        return matches[0] if matches else ref

    def _check_local(self, path: Path) -> None:
        """Refuse server-side reads outside the allowed roots."""
        if self.local_roots is None:
            raise protocol.ProtocolError(
                "bad-request",
                "server-side paths are disabled on this daemon; send "
                "sources inline, or start it with --allow-local-dir")
        resolved = path.resolve()
        if not any(resolved.is_relative_to(root)
                   for root in self.local_roots):
            raise protocol.ProtocolError(
                "bad-request",
                f"server-side path {path} is outside the allowed "
                f"corpus roots")

    def _resolve_workload(self, request: protocol.SuggestRequest,
                          ) -> list[tuple[str, str]]:
        """The request's ``(name, source)`` workload, reading
        server-side paths/dirs when the request names them (and the
        daemon opted in via ``local_roots``)."""
        if request.dir is not None:
            root = Path(request.dir)
            self._check_local(root)
            if not root.is_dir():
                raise protocol.ProtocolError(
                    "bad-request",
                    f"server has no directory {request.dir!r}")
            paths = sorted(root.rglob(request.pattern))
        elif request.paths:
            paths = [Path(p) for p in request.paths]
        else:
            return list(request.sources)
        named = []
        for path in paths:
            self._check_local(path)
            try:
                named.append((str(path),
                              path.read_text(encoding="utf-8")))
            except (OSError, UnicodeDecodeError) as exc:
                raise protocol.ProtocolError(
                    "bad-request",
                    f"server cannot read {path}: {exc}") from exc
        return named

    async def _serve_request(self, conn: _Connection,
                             request: protocol.SuggestRequest) -> bool:
        """Admit one suggest request; ``False`` closes the connection
        (client vanished), request-level errors keep it open.

        Admission queues the request on its bundle's lane (refusing
        with ``busy`` when the lane is full) and awaits the reply's
        terminating frame — one request in flight per connection, many
        per lane.
        """
        if self._drain_evt.is_set():
            return conn.send(protocol.Error(
                code="shutting-down",
                message="server is draining; retry elsewhere"))
        if request.bundle is not None:
            try:
                name = self._resolve_ref(request.bundle)
            except protocol.ProtocolError as exc:
                return conn.send(protocol.Error(code=exc.code,
                                                message=str(exc)))
        else:
            name = self.default
        if name is None:
            return conn.send(protocol.Error(
                code="unknown-bundle",
                message="this daemon serves no bundles yet; push one "
                        "with bundle-push or restart it with --bundle"))
        service = self.services.get(name)
        if service is None:
            if name in self.degraded:
                return conn.send(protocol.Error(
                    code="unknown-bundle",
                    message=f"bundle {name!r} failed to load at "
                            f"startup ({self.degraded[name]}); "
                            f"serving: {sorted(self.services)}"))
            return conn.send(protocol.Error(
                code="unknown-bundle",
                message=f"unknown bundle {name!r}; "
                        f"serving: {sorted(self.services)}"))
        loop = asyncio.get_running_loop()
        try:
            named = await loop.run_in_executor(
                None, self._resolve_workload, request)
        except protocol.ProtocolError as exc:
            return conn.send(protocol.Error(code=exc.code,
                                            message=str(exc)))
        pending = _Pending(conn, request, named, service,
                           loop.create_future())
        if pending.total == 0:
            pending.finish()
            return not conn.dead
        lane = self._lanes[name]
        if len(lane.queue) >= self.queue_depth:
            return conn.send(protocol.Error(
                code="busy",
                message=f"bundle {name!r} admission queue is full "
                        f"({self.queue_depth} waiting requests); "
                        f"retry shortly"))
        lane.queue.append(pending)
        lane.wake.set()
        await pending.done
        return not conn.dead

    # -- micro-batching ------------------------------------------------------

    async def _lane_loop(self, lane: _Lane) -> None:
        """One bundle's micro-batcher: drain the admission queue into
        coalesced rounds, one round in compute at a time."""
        loop = asyncio.get_running_loop()
        window_s = self.batch_window_ms / 1e3
        while True:
            if not lane.queue:
                lane.idle = True
                lane.wake.clear()
                await lane.wake.wait()
            self._prune_dead(lane)
            if not lane.queue:
                continue
            if (lane.idle and window_s > 0 and len(self._conns) > 1
                    and not self._drain_evt.is_set()):
                # micro-batch window: a cold arrival waits for
                # near-simultaneous requests from other clients to
                # join this round.  Skipped with a single connection
                # (flush-on-idle) and after a busy round (anything
                # that queued during it has already coalesced).
                deadline = loop.time() + window_s
                while len(lane.queue) < len(self._conns):
                    # early flush once every connected client has a
                    # request queued — nobody is left for the window
                    # to wait for
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    lane.wake.clear()
                    try:
                        await asyncio.wait_for(lane.wake.wait(),
                                               remaining)
                    except (asyncio.TimeoutError, TimeoutError):
                        break
                self._prune_dead(lane)
            lane.idle = False
            batch = self._take_round(lane)
            if not batch:
                continue
            lane.running = True
            try:
                await loop.run_in_executor(
                    self._executor, self._compute_round, lane, batch)
            except asyncio.CancelledError:
                raise
            except Exception:
                tb = traceback.format_exc()
                for pending, _ in batch:
                    pending.fail("serve-error", tb)
            finally:
                lane.running = False

    def _prune_dead(self, lane: _Lane) -> None:
        """Drop queued requests whose client vanished or whose
        deadline has already passed — neither may occupy a round."""
        for pending in [p for p in lane.queue if p.conn.dead]:
            lane.queue.remove(pending)
            pending.cancel()
        for pending in [p for p in lane.queue if p.expired]:
            lane.queue.remove(pending)
            pending.fail(
                "deadline-exceeded",
                f"request deadline of "
                f"{pending.request.deadline_s:.3f}s expired before "
                f"the request finished")

    def _take_round(self, lane: _Lane) -> list[tuple[_Pending, list]]:
        """Compose one compute round, round-robin across the queue.

        Files are drawn one at a time from each waiting request in
        turn, up to ``round_files`` total — so a bulk request is
        chunked across rounds while every small request fits whole
        into the next one.  Fully scheduled requests leave the queue
        (their replies are still in flight); partially scheduled ones
        keep their place at the front.
        """
        chunks: dict[_Pending, list] = {}
        taken = 0
        while taken < self.round_files:
            progressed = False
            for pending in list(lane.queue):
                if taken >= self.round_files:
                    break
                item = pending.take()
                if item is None:
                    continue
                chunks.setdefault(pending, []).append(item)
                taken += 1
                progressed = True
            if not progressed:
                break
        for pending in [p for p in lane.queue if p.fully_scheduled]:
            lane.queue.remove(pending)
        return list(chunks.items())

    def _compute_round(self, lane: _Lane,
                       batch: list[tuple[_Pending, list]]) -> None:
        """Run one coalesced round (compute thread; one per lane).

        A single-request round keeps the per-request shard fan-out
        (``request.shards`` / server config); a multi-request round is
        joined through :meth:`SuggestionService.iter_joint` — one
        in-process pipeline pass, one block-diagonal forward per
        model per round, content-level dedup across clients.  Results are
        handed back to the event loop per file as they complete.
        """
        loop = self._loop
        service = lane.service
        try:
            if len(batch) == 1:
                pending, files = batch[0]
                indices = [i for i, _, _ in files]
                named = [(name, source) for _, name, source in files]
                results = service.stream_tagged(
                    named, shards=pending.request.shards)
                service._coalesce["rounds"] += 1
                service._coalesce["requests"] += 1
                try:
                    for local_i, fs in results:
                        index = indices[local_i]
                        loop.call_soon_threadsafe(
                            pending.deliver, index,
                            pending.result(index, fs))
                finally:
                    close = getattr(results, "close", None)
                    if close is not None:   # reap shard workers
                        close()
            else:
                workloads = []
                for pending, files in batch:
                    tag = (pending, [i for i, _, _ in files])
                    workloads.append(
                        (tag, [(name, source)
                               for _, name, source in files]))
                for tag, local_i, fs in service.iter_joint(workloads):
                    pending, indices = tag
                    index = indices[local_i]
                    loop.call_soon_threadsafe(
                        pending.deliver, index,
                        pending.result(index, fs))
        except Exception:
            tb = traceback.format_exc()
            for pending, _ in batch:
                loop.call_soon_threadsafe(
                    pending.fail, "serve-error", tb)
