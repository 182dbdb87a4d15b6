"""Client library for the suggestion daemon (``repro serve``).

:func:`connect` opens one connection, performs the
:mod:`repro.serve.protocol` handshake, and returns a :class:`Client`
whose surface mirrors the in-process
:class:`~repro.serve.pipeline.SuggestionService`: ``stream_sources``
yields a :class:`~repro.serve.job.Job`'s results (suggestions by
default, verified rewrites for a rewrite job) as the server finishes
them, ``suggest_sources`` returns them as one batch reply, and
``submit`` sends a request the caller built — for example one naming
a directory on the server's own filesystem.  File contents travel
inline, so the server needs no access to the client's filesystem, and
replies revive through the exact payload shapes the in-process path
produces — the results are byte-identical to running the pipeline
locally.

Addresses: ``"host:port"`` (TCP) or ``"unix:/path/to.sock"``; a bare
path to an existing socket file also works.

One request is in flight per connection at a time (the protocol has
no request ids); open several clients for concurrency — the daemon
multiplexes them over one warm store.

Resilience: pass a :class:`RetryPolicy` to :func:`connect` and the
client absorbs transient failures by itself — ``busy`` and
``shutting-down`` refusals are retried with capped exponential backoff
and deterministic jitter, and a connection lost mid-request (daemon
restart, dropped socket) auto-reconnects, re-handshakes, and re-issues
the in-flight request.  Requests are idempotent (a pure function of
their sources), so re-issue is safe; streaming replies track which
file indices were already yielded and skip them on the re-served
stream, so the caller sees every file exactly once.  ``deadline_s``
rides on each request so the server abandons work whose client has
given up waiting.
"""

from __future__ import annotations

import base64
import hashlib
import socket
import time
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

from repro.serve import protocol
from repro.serve.job import SUGGEST, Job
from repro.serve.stream import ServeError

#: default seconds without a frame before a request is abandoned; the
#: pipeline streams store-cached files immediately, but a cold corpus
#: may train/load models before the first frame lands
DEFAULT_TIMEOUT_S = 600.0


class ClientError(ServeError):
    """The server refused or failed a request, or the link broke."""

    def __init__(self, message: str, code: str = "client-error") -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RetryPolicy:
    """How a client absorbs transient failures.

    ``retry_codes`` names the :class:`ClientError` codes considered
    transient: ``busy`` (admission queue full) and ``shutting-down``
    (a draining daemon — its replacement will accept) mean *ask
    again*; ``connection-lost`` additionally reconnects and
    re-handshakes first.  Anything else — ``bad-request``,
    ``unknown-bundle``, ``deadline-exceeded``, ``timeout`` — is not
    transient: retrying a malformed request or an already-blown
    deadline only hides the real failure.

    Backoff is capped exponential (``base_delay_s`` doubling per
    attempt up to ``max_delay_s``) with *deterministic* jitter: the
    sleep is scaled into ``[0.5, 1.0)`` of the cap by a hash of
    ``(seed, attempt)``, so a thundering herd of clients with distinct
    seeds spreads out, while any single configuration replays the
    exact same schedule — chaos tests stay reproducible.
    """

    max_attempts: int = 5
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    seed: int = 0
    retry_codes: tuple[str, ...] = ("busy", "shutting-down",
                                    "connection-lost")

    def should_retry(self, code: str, failures: int) -> bool:
        """Whether to try again after ``failures`` failed attempts."""
        return failures < self.max_attempts and code in self.retry_codes

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry ``attempt`` (1-based)."""
        cap = min(self.max_delay_s,
                  self.base_delay_s * (2 ** max(0, attempt - 1)))
        digest = hashlib.sha256(
            f"{self.seed}:{attempt}".encode("utf-8")).digest()
        jitter = int.from_bytes(digest[:8], "big") / 2**64
        return cap * (0.5 + 0.5 * jitter)


def _open_socket(address: str, timeout: float) -> socket.socket:
    if address.startswith("unix:"):
        path = address[len("unix:"):]
    elif ":" not in address and Path(address).exists():
        path = address
    else:
        path = None
    if path is not None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(path)
        return sock
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ClientError(
            f"cannot parse server address {address!r}; expected "
            f"HOST:PORT or unix:/path.sock", code="bad-address")
    sock = socket.create_connection((host or "127.0.0.1", int(port)),
                                    timeout=timeout)
    # small frames both ways: Nagle + delayed ACK would put ~40ms on
    # every warm round trip
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def connect(address: str, *, timeout: float = DEFAULT_TIMEOUT_S,
            client_id: str = "repro.client",
            retry: RetryPolicy | None = None,
            deadline_s: float | None = None) -> "Client":
    """Open a connection and perform the protocol handshake.

    With a :class:`RetryPolicy`, connection refusals are retried with
    backoff (a daemon mid-restart is a transient, not an error) and
    the returned client keeps absorbing transient failures on every
    request.  ``deadline_s`` becomes the default per-request deadline.
    """
    failures = 0
    while True:
        try:
            sock = _open_socket(address, timeout)
            break
        except (ClientError, OSError) as exc:
            code = getattr(exc, "code", "connection-lost")
            failures += 1
            if retry is None or not retry.should_retry(code, failures):
                raise
            time.sleep(retry.delay(failures))
    try:
        return Client(sock, address=address, timeout=timeout,
                      client_id=client_id, retry=retry,
                      deadline_s=deadline_s)
    except BaseException:
        sock.close()
        raise


class Client:
    """One handshaken connection to a suggestion daemon."""

    def __init__(self, sock: socket.socket, *, address: str = "",
                 timeout: float = DEFAULT_TIMEOUT_S,
                 client_id: str = "repro.client",
                 retry: RetryPolicy | None = None,
                 deadline_s: float | None = None) -> None:
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._wfile = sock.makefile("wb")
        self._closed = False
        #: a request was written whose reply has not been read to its
        #: terminating frame (an abandoned streaming generator)
        self._pending = False
        #: the byte stream is desynchronized (a timeout or connection
        #: loss mid-frame): the socket must be re-opened before the
        #: next request — draining would misparse partial frames
        self._broken = False
        self.address = address
        self.timeout = timeout
        self.retry = retry
        #: default relative deadline stamped onto requests that carry
        #: none of their own
        self.deadline_s = deadline_s
        self._client_id = client_id
        #: the server's Done frame of the most recent request — its
        #: serving-side ``cache_stats()`` snapshot for observability
        self.last_done: protocol.Done | None = None
        self.capabilities = self._handshake(client_id)

    # -- plumbing ------------------------------------------------------------

    def _write(self, message) -> None:
        try:
            protocol.write_message(self._wfile, message)
        except protocol.ProtocolError as exc:
            raise ClientError(str(exc), code=exc.code) from exc
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            self._broken = True
            raise ClientError(f"server connection lost: {exc}",
                              code="connection-lost") from exc

    def _read_raw(self):
        try:
            message = protocol.read_message(self._rfile)
        except protocol.ProtocolError as exc:
            self._broken = True      # mid-frame garbage: never resync
            raise ClientError(str(exc), code=exc.code) from exc
        except (socket.timeout, TimeoutError) as exc:
            # the reply may still be in flight and a partial frame may
            # already be consumed — this connection can no longer be
            # drained; the next request reconnects instead
            self._broken = True
            raise ClientError(
                f"no frame from {self.address or 'server'} within "
                f"{self.timeout}s", code="timeout") from exc
        except (ConnectionResetError, OSError) as exc:
            self._broken = True
            raise ClientError(f"server connection lost: {exc}",
                              code="connection-lost") from exc
        if message is None:
            self._broken = True
            raise ClientError("server closed the connection mid-reply",
                              code="connection-lost")
        return message

    def _read(self):
        message = self._read_raw()
        if isinstance(message, protocol.Error):
            # an error frame terminates the current reply: the
            # connection stays usable for the next request
            self._pending = False
            raise ClientError(message.message, code=message.code)
        return message

    def _handshake(self, client_id: str) -> dict:
        self._write(protocol.Hello(client=client_id))
        reply = self._read()
        if not isinstance(reply, protocol.HelloOk):
            raise ClientError(
                f"expected hello_ok, got {reply.KIND!r}",
                code="bad-handshake")
        if reply.protocol != protocol.PROTOCOL_VERSION:
            raise ClientError(
                f"server speaks protocol {reply.protocol}, this client "
                f"speaks {protocol.PROTOCOL_VERSION}",
                code="protocol-mismatch")
        return dict(reply.capabilities)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if not self._broken:
            try:
                protocol.write_message(self._wfile, protocol.Goodbye())
            except (BrokenPipeError, ConnectionResetError, OSError,
                    protocol.ProtocolError):
                pass
        for closer in (self._rfile, self._wfile, self._sock):
            try:
                closer.close()
            except OSError:
                pass

    def _reconnect(self) -> None:
        """Tear down the broken socket, reopen, re-handshake.

        Raises :class:`ClientError` (code ``connection-lost``) when
        the server is unreachable — under a :class:`RetryPolicy` that
        simply counts as the next failed attempt.
        """
        for closer in (self._rfile, self._wfile, self._sock):
            try:
                closer.close()
            except OSError:
                pass
        self._pending = False
        self._broken = False
        if not self.address:
            self._broken = True
            raise ClientError(
                "connection broke and this client has no address to "
                "reconnect to", code="connection-lost")
        try:
            sock = _open_socket(self.address, self.timeout)
        except OSError as exc:
            self._broken = True
            raise ClientError(
                f"cannot reconnect to {self.address}: {exc}",
                code="connection-lost") from exc
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._wfile = sock.makefile("wb")
        try:
            self.capabilities = self._handshake(self._client_id)
        except ClientError:
            self._broken = True
            raise

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the serving surface -------------------------------------------------

    def bundles(self) -> list[str]:
        """Bundle names the server advertises."""
        return list(self.capabilities.get("bundles", []))

    def _drain_pending(self) -> None:
        """Consume the rest of an abandoned reply.

        A caller that drops a streaming generator mid-iteration leaves
        the previous reply's frames on the wire; without draining them
        to the terminating ``done``/``error`` frame, the *next* request
        would silently read the old request's files as its own
        results.
        """
        while self._pending:
            message = self._read_raw()
            if isinstance(message, (protocol.Done, protocol.Error)):
                # a stale request-level error belongs to the
                # abandoned reply — note the boundary, don't raise
                self._pending = False
            elif not isinstance(message, protocol.FileResult):
                raise ClientError(
                    f"unexpected {message.KIND!r} frame while "
                    f"draining an abandoned reply", code="bad-reply")

    def _request(self, request: protocol.SuggestRequest) -> None:
        if self._broken:
            # a timed-out or torn reply poisoned the byte stream; a
            # fresh connection is the only safe resync point
            self._reconnect()
        self._drain_pending()
        self._write(request)
        self._pending = True

    def _with_deadline(self, request):
        """Stamp the client's default deadline onto a patient request."""
        if self.deadline_s is None or request.deadline_s is not None:
            return request
        return replace(request, deadline_s=self.deadline_s)

    def _absorb_failure(self, exc: ClientError, failures: int) -> None:
        """Back off after a transient failure, or re-raise it.

        Counts ``failures`` so far against the retry policy; on a lost
        connection also reconnects (re-handshaking) so the next attempt
        starts on a clean stream.  Reconnect failures raise — the loop
        above will catch them as the next attempt's failure.
        """
        if self.retry is None or not self.retry.should_retry(
                exc.code, failures):
            raise exc
        time.sleep(self.retry.delay(failures))
        if self._broken:
            self._reconnect()

    def stream_request(
        self, request: protocol.SuggestRequest,
    ) -> Iterator[protocol.FileResult]:
        """Stream one request's raw :class:`FileResult` frames.

        The index-tagged, payload-level form of :meth:`submit` — what
        a fabric relay forwards verbatim onto a supervisor queue.
        Retry, reconnect, and exactly-once index dedup apply the same.
        """
        request = self._with_deadline(request)
        seen: set[int] = set()
        failures = 0
        while True:
            try:
                self._request(request)
                while True:
                    message = self._read()
                    if isinstance(message, protocol.Done):
                        self.last_done = message
                        self._pending = False
                        return
                    if not isinstance(message, protocol.FileResult):
                        raise ClientError(
                            f"unexpected {message.KIND!r} frame inside "
                            f"a streaming reply", code="bad-reply")
                    if message.index in seen:
                        # re-served after a reconnect: already yielded
                        continue
                    seen.add(message.index)
                    yield message
            except ClientError as exc:
                failures += 1
                # on return (vs raise) the request is re-issued: it is
                # idempotent and `seen` dedups the re-served files
                self._absorb_failure(exc, failures)

    def _batch(self, request: protocol.SuggestRequest, revive) -> list:
        request = self._with_deadline(request)
        failures = 0
        while True:
            try:
                self._request(request)
                message = self._read()
                if not isinstance(message, protocol.BatchResult):
                    raise ClientError(
                        f"expected a batch frame, got {message.KIND!r}",
                        code="bad-reply")
                done = self._read()
                if not isinstance(done, protocol.Done):
                    raise ClientError(
                        f"expected done after the batch, "
                        f"got {done.KIND!r}", code="bad-reply")
                self.last_done = done
                self._pending = False
                ordered = sorted(message.files, key=lambda f: f.index)
                return [revive(f.name, f.payload) for f in ordered]
            except ClientError as exc:
                failures += 1
                self._absorb_failure(exc, failures)

    # -- health --------------------------------------------------------------

    def ping(self, token: str = "") -> protocol.Pong:
        """Round-trip a health probe; returns the server's
        :class:`~repro.serve.protocol.Pong` (echoed token + admission
        queue depth).  Answered off the session loop, so it works even
        when every compute lane is saturated."""
        if self._broken:
            self._reconnect()
        self._drain_pending()
        self._write(protocol.Ping(token=token))
        reply = self._read()
        if not isinstance(reply, protocol.Pong):
            raise ClientError(
                f"expected pong, got {reply.KIND!r}", code="bad-reply")
        return reply

    # -- fabric: bundle distribution + network store -------------------------

    def _require_fabric(self) -> None:
        if not self.capabilities.get("fabric"):
            raise ClientError(
                "server does not advertise the 'fabric' capability "
                "(older daemon?)", code="fabric-unsupported")

    def _roundtrip(self, request, reply_type):
        """One request frame → one typed reply frame, no retry."""
        if self._broken:
            self._reconnect()
        self._drain_pending()
        self._write(request)
        reply = self._read()
        if not isinstance(reply, reply_type):
            raise ClientError(
                f"expected {reply_type.KIND!r}, got {reply.KIND!r}",
                code="bad-reply")
        return reply

    def bundle_have(self, sha256: str) -> protocol.BundleHaveOk:
        """Ask whether the server holds the archive hashing to
        ``sha256`` — the cheap half of push-once distribution."""
        self._require_fabric()
        return self._roundtrip(protocol.BundleHave(sha256=sha256),
                               protocol.BundleHaveOk)

    def bundle_push(self, data: bytes, *, sha256: str | None = None,
                    name: str | None = None) -> protocol.BundlePushOk:
        """Push one ``pack_bundle`` archive; the server verifies the
        hash, caches the archive, and starts serving it."""
        self._require_fabric()
        if sha256 is None:
            sha256 = hashlib.sha256(data).hexdigest()
        encoded = base64.b64encode(data).decode("ascii")
        return self._roundtrip(
            protocol.BundlePush(sha256=sha256, data=encoded, name=name),
            protocol.BundlePushOk)

    def store_op(self, op: str, *, layer: str | None = None,
                 key: str | None = None, model_key: str | None = None,
                 entry: dict | None = None,
                 args: dict | None = None) -> protocol.StoreOk:
        """One operation against the server's suggestion store.

        The raw primitive under
        :class:`~repro.fabric.netstore.NetworkStore`; see
        :class:`~repro.serve.protocol.StoreOp` for the op shapes.
        """
        self._require_fabric()
        return self._roundtrip(
            protocol.StoreOp(op=op, layer=layer, key=key,
                             model_key=model_key, entry=entry,
                             args=dict(args or {})),
            protocol.StoreOk)

    def submit(self, request: protocol.SuggestRequest):
        """Send a request the caller built and revive its results.

        The request names its workload inline (``sources``) or on the
        *server's* filesystem — ``paths``, or ``dir`` + ``pattern``,
        for a daemon colocated with its corpus: no file contents
        travel client → server, and the daemon refuses with
        ``bad-request`` unless it opted in to reading there.  Its kind
        picks the job (:meth:`Job.of`).  ``stream=True`` returns an
        iterator over results as the server finishes them, which
        raises :class:`ClientError` if the stream ends without the
        server's ``done`` frame; ``stream=False`` returns the batch
        reply as a list in input order.
        """
        job = Job.of(request)
        if not job.served_by(self.capabilities):
            raise ClientError(
                f"server does not advertise the {job.mode!r} capability "
                f"(older daemon?)", code=f"{job.mode}-unsupported")
        if request.stream:
            return (job.revive(frame.name, frame.payload)
                    for frame in self.stream_request(request))
        return self._batch(request, job.revive)

    def stream_sources(
        self, named_sources: list[tuple[str, str]], *,
        job: Job = SUGGEST, bundle: str | None = None,
        ordered: bool = True, shards: int | str | None = None,
    ) -> Iterator:
        """Stream ``job``'s results for ``(name, source)`` pairs.

        Mirrors :meth:`SuggestionService.stream_sources`; the server
        does the work over its warm store and streams files back as
        they finish.
        """
        return self.submit(job.request(
            sources=tuple((str(name), source)
                          for name, source in named_sources),
            bundle=bundle, ordered=ordered, stream=True, shards=shards))

    def suggest_sources(
        self, named_sources: list[tuple[str, str]], *,
        job: Job = SUGGEST, bundle: str | None = None,
        shards: int | str | None = None,
    ) -> list:
        """``job``'s results as one batch reply in input order (one
        frame, then done)."""
        return self.submit(job.request(
            sources=tuple((str(name), source)
                          for name, source in named_sources),
            bundle=bundle, ordered=True, stream=False, shards=shards))
