"""Tests for the long-lived suggestion daemon and its client library.

Lifecycle edges the protocol must survive: version-mismatch handshake
refusal, malformed and over-long frames, a client vanishing
mid-stream, a drain racing idle connections, and concurrent clients
sharing one warm store without duplicating any work.
"""

import socket
import struct
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.client import ClientError, RetryPolicy, connect
from repro.serve import (
    SuggestionService,
    SuggestionStore,
    SuggestServer,
    protocol,
)

GOOD_SOURCE = """
double a[100], b[100]; double s;
void kernel(void) {
    int i;
    for (i = 0; i < 100; i++) a[i] = b[i];
    for (i = 0; i < 100; i++) s += a[i];
}
"""

OTHER_SOURCE = """
double c[50];
void scale(void) {
    int j;
    for (j = 0; j < 50; j++) c[j] = c[j] * 2.0;
}
"""

BAD_SOURCE = "void broken(void) { for (i = 0; i < ; }"


def _read_dir(directory):
    """Every ``*.c`` file under ``directory`` as sorted ``(name, source)``
    pairs — the corpus ``repro suggest-dir`` reads."""
    return [(str(p), p.read_text()) for p in sorted(Path(directory).rglob("*.c"))]


def _server_side(**where):
    """A batch request naming files on the daemon's own filesystem."""
    return protocol.SuggestRequest(stream=False, **where)


class _StubModel:
    """Picklable fingerprinted stub following the suggester contract."""

    def __init__(self, value: int, name: str = "stub") -> None:
        self.value = value
        self.name = name

    def predict_samples(self, samples):
        return np.full(len(samples), self.value, dtype=int)

    def fingerprint(self) -> str:
        return f"stub:{self.name}:{self.value}"


class _SlowModel(_StubModel):
    """Stub whose forward takes a fixed wall time — for timeout and
    deadline tests that need a reply slower than the client waits."""

    def __init__(self, value: int, name: str = "slow",
                 delay_s: float = 1.0) -> None:
        super().__init__(value, name)
        self.delay_s = delay_s

    def predict_samples(self, samples):
        time.sleep(self.delay_s)
        return super().predict_samples(samples)


def _slow_service(delay_s: float) -> SuggestionService:
    return SuggestionService(
        _SlowModel(1, delay_s=delay_s),
        {"reduction": _StubModel(0, "slow-red")},
    )


def _service(store=None, parallel=1, name="stub") -> SuggestionService:
    return SuggestionService(
        _StubModel(parallel, name),
        {"reduction": _StubModel(0, name + "-red")},
        store=store,
    )


@pytest.fixture
def server():
    srv = SuggestServer({"default": _service()}).start()
    yield srv
    srv.shutdown()


def _raw_connection(address: str):
    host, port = address.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=10)
    return sock, sock.makefile("rb"), sock.makefile("wb")


class TestHandshake:
    def test_capabilities_advertised(self, server):
        with connect(server.address) as client:
            caps = client.capabilities
        assert caps["bundles"] == ["default"]
        assert caps["default_bundle"] == "default"
        assert caps["clauses"]["default"] == ["reduction"]
        assert caps["max_frame_bytes"] == protocol.MAX_FRAME_BYTES

    def test_protocol_mismatch_refused(self, server):
        sock, rfile, wfile = _raw_connection(server.address)
        try:
            protocol.write_message(wfile, protocol.Hello(protocol=999))
            reply = protocol.read_message(rfile)
            assert isinstance(reply, protocol.Error)
            assert reply.code == "protocol-mismatch"
            # the refusal closes the connection
            assert protocol.read_frame(rfile) is None
        finally:
            sock.close()

    def test_non_hello_first_frame_refused(self, server):
        sock, rfile, wfile = _raw_connection(server.address)
        try:
            protocol.write_message(
                wfile, protocol.SuggestRequest(sources=()))
            reply = protocol.read_message(rfile)
            assert isinstance(reply, protocol.Error)
            assert reply.code == "bad-request"
        finally:
            sock.close()

    def test_client_rejects_version_skew(self, server, monkeypatch):
        import repro.client as client_mod

        monkeypatch.setattr(client_mod.protocol, "PROTOCOL_VERSION", 999)
        with pytest.raises(ClientError) as exc:
            connect(server.address)
        assert exc.value.code == "protocol-mismatch"


class TestFrameRejection:
    def test_malformed_frame_rejected(self, server):
        sock, rfile, wfile = _raw_connection(server.address)
        try:
            protocol.write_message(wfile, protocol.Hello())
            assert isinstance(protocol.read_message(rfile),
                              protocol.HelloOk)
            body = b"this is not json"
            wfile.write(struct.pack(">I", len(body)) + body)
            wfile.flush()
            reply = protocol.read_message(rfile)
            assert isinstance(reply, protocol.Error)
            assert reply.code == "bad-frame"
            assert protocol.read_frame(rfile) is None
        finally:
            sock.close()

    def test_overlong_frame_rejected(self):
        service = _service()
        with SuggestServer({"default": service},
                           max_frame_bytes=4096).start() as srv:
            sock, rfile, wfile = _raw_connection(srv.address)
            try:
                protocol.write_message(wfile, protocol.Hello())
                assert isinstance(protocol.read_message(rfile),
                                  protocol.HelloOk)
                # a declared length far past the limit, no body needed
                wfile.write(struct.pack(">I", 1 << 30))
                wfile.flush()
                reply = protocol.read_message(rfile)
                assert isinstance(reply, protocol.Error)
                assert reply.code == "bad-frame"
                assert protocol.read_frame(rfile) is None
            finally:
                sock.close()

    def test_slow_mid_frame_sender_is_not_corrupted(self, server):
        """A frame arriving in pieces slower than the idle poll tick
        must be reassembled, not misread as a framing error."""
        sock, rfile, wfile = _raw_connection(server.address)
        try:
            protocol.write_message(wfile, protocol.Hello())
            assert isinstance(protocol.read_message(rfile),
                              protocol.HelloOk)
            frame = protocol.encode_frame(protocol.SuggestRequest(
                sources=(("a.c", GOOD_SOURCE),)).to_wire())
            half = len(frame) // 2
            sock.sendall(frame[:half])
            time.sleep(1.2)           # > 2 idle-poll ticks, mid-frame
            sock.sendall(frame[half:])
            reply = protocol.read_message(rfile)
            assert isinstance(reply, protocol.FileResult)
            done = protocol.read_message(rfile)
            assert isinstance(done, protocol.Done)
        finally:
            sock.close()

    def test_schema_violation_rejected(self, server):
        sock, rfile, wfile = _raw_connection(server.address)
        try:
            protocol.write_message(wfile, protocol.Hello())
            assert isinstance(protocol.read_message(rfile),
                              protocol.HelloOk)
            protocol.write_frame(wfile, {"kind": "suggest",
                                         "sources": "not-a-list"})
            reply = protocol.read_message(rfile)
            assert isinstance(reply, protocol.Error)
            assert reply.code == "bad-request"
        finally:
            sock.close()


class TestServing:
    def test_round_trip_matches_in_process(self, server):
        named = [("a.c", GOOD_SOURCE), ("b.c", OTHER_SOURCE),
                 ("broken.c", BAD_SOURCE)]
        local = list(_service().stream_sources(named))
        with connect(server.address) as client:
            batch = client.suggest_sources(named)
            streamed = list(client.stream_sources(named))
        for remote in (batch, streamed):
            assert [r.to_payload() for r in remote] == \
                [r.to_payload() for r in local]
            assert [r.name for r in remote] == [r.name for r in local]

    def test_done_frame_reports_stats(self, server):
        with connect(server.address) as client:
            list(client.stream_sources([("a.c", GOOD_SOURCE)]))
            done = client.last_done
        assert done.files == 1
        assert done.errors == 0
        assert done.stats["forwards"]["graphs"] > 0

    def test_error_files_counted(self, server):
        with connect(server.address) as client:
            client.suggest_sources([("broken.c", BAD_SOURCE)])
            assert client.last_done.errors == 1

    def test_unknown_bundle_keeps_connection_alive(self, server):
        with connect(server.address) as client:
            with pytest.raises(ClientError) as exc:
                client.suggest_sources([("a.c", GOOD_SOURCE)],
                                       bundle="nope")
            assert exc.value.code == "unknown-bundle"
            # request-level refusal: the same connection still serves
            results = client.suggest_sources([("a.c", GOOD_SOURCE)])
        assert len(results[0].suggestions) == 2

    def test_bundle_selection_by_name(self):
        services = {
            "yes": _service(parallel=1, name="yes"),
            "no": _service(parallel=0, name="no"),
        }
        with SuggestServer(services, default="yes").start() as srv:
            with connect(srv.address) as client:
                assert client.bundles() == ["no", "yes"]
                by_default = client.suggest_sources(
                    [("a.c", GOOD_SOURCE)])
                by_no = client.suggest_sources(
                    [("a.c", GOOD_SOURCE)], bundle="no")
        assert all(s.parallel for s in by_default[0].suggestions)
        assert not any(s.parallel for s in by_no[0].suggestions)

    def test_unix_socket_transport(self, tmp_path):
        sock_path = tmp_path / "serve.sock"
        with SuggestServer({"default": _service()},
                           unix_path=sock_path).start() as srv:
            assert srv.address == str(sock_path)
            with connect(f"unix:{sock_path}") as client:
                results = client.suggest_sources([("a.c", GOOD_SOURCE)])
            assert len(results[0].suggestions) == 2
        assert not sock_path.exists()      # removed on shutdown

    def test_empty_request(self, server):
        with connect(server.address) as client:
            assert client.suggest_sources([]) == []
            assert client.last_done.files == 0

    def test_server_side_dir(self, tmp_path):
        """A colocated daemon reads the corpus itself: no contents
        travel client → server — but only under an opted-in root."""
        (tmp_path / "a.c").write_text(GOOD_SOURCE)
        (tmp_path / "b.c").write_text(OTHER_SOURCE)
        local = list(_service().stream_sources(_read_dir(tmp_path)))
        with SuggestServer({"default": _service()},
                           local_roots=(tmp_path,)).start() as srv:
            with connect(srv.address) as client:
                assert client.capabilities["server_side_paths"] is True
                batch = client.submit(_server_side(dir=str(tmp_path)))
                streamed = list(client.submit(
                    protocol.SuggestRequest(dir=str(tmp_path))))
        for remote in (batch, streamed):
            assert [r.to_payload() for r in remote] == \
                [r.to_payload() for r in local]

    def test_server_side_paths(self, tmp_path):
        path = tmp_path / "a.c"
        path.write_text(GOOD_SOURCE)
        with SuggestServer({"default": _service()},
                           local_roots=(tmp_path,)).start() as srv:
            with connect(srv.address) as client:
                results = client.submit(_server_side(paths=(str(path),)))
        assert results[0].name == str(path)
        assert len(results[0].suggestions) == 2

    def test_server_side_reads_disabled_by_default(self, server,
                                                   tmp_path):
        """Acceptance of the security model: without an explicit
        opt-in root, a daemon refuses to read its own filesystem."""
        (tmp_path / "a.c").write_text(GOOD_SOURCE)
        with connect(server.address) as client:
            assert client.capabilities["server_side_paths"] is False
            with pytest.raises(ClientError) as exc:
                client.submit(_server_side(dir=str(tmp_path)))
            assert exc.value.code == "bad-request"
            assert "disabled" in str(exc.value)

    def test_server_side_path_outside_root_refused(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        secret = tmp_path / "secret.c"
        secret.write_text(GOOD_SOURCE)
        with SuggestServer({"default": _service()},
                           local_roots=(corpus,)).start() as srv:
            with connect(srv.address) as client:
                with pytest.raises(ClientError) as exc:
                    client.submit(_server_side(paths=(str(secret),)))
                assert exc.value.code == "bad-request"
                assert "outside" in str(exc.value)
                # .. escapes are resolved before the check
                with pytest.raises(ClientError):
                    client.submit(_server_side(
                        paths=(str(corpus / ".." / "secret.c"),)))

    def test_server_side_missing_dir_refused(self, tmp_path):
        with SuggestServer({"default": _service()},
                           local_roots=(tmp_path,)).start() as srv:
            with connect(srv.address) as client:
                with pytest.raises(ClientError) as exc:
                    client.submit(_server_side(dir=str(tmp_path / "nope")))
                assert exc.value.code == "bad-request"
                # request-level refusal: connection still serves
                assert client.suggest_sources([]) == []

    def test_server_side_unreadable_path_refused(self, tmp_path):
        with SuggestServer({"default": _service()},
                           local_roots=(tmp_path,)).start() as srv:
            with connect(srv.address) as client:
                with pytest.raises(ClientError) as exc:
                    client.submit(_server_side(paths=(str(tmp_path / "ghost.c"),)))
                assert exc.value.code == "bad-request"

    def test_abandoned_stream_does_not_poison_the_connection(
            self, server):
        """Dropping a streaming generator mid-reply must not leak the
        old reply's frames into the next request's results."""
        named = [(f"f{i}.c", GOOD_SOURCE) for i in range(3)]
        with connect(server.address) as client:
            stream = client.stream_sources(named)
            first = next(stream)
            assert first.name == "f0.c"
            del stream              # abandon mid-reply, no close()
            results = client.suggest_sources([("fresh.c", OTHER_SOURCE)])
            assert [r.name for r in results] == ["fresh.c"]
            streamed = list(client.stream_sources(
                [("after.c", OTHER_SOURCE)]))
            assert [r.name for r in streamed] == ["after.c"]


class TestClientResilience:
    def test_read_timeout_does_not_poison_the_connection(self):
        """Regression: a reply slower than the client's read timeout
        leaves the old reply's frames in flight; the next request must
        not read them as its own results."""
        with SuggestServer({"default": _service(),
                            "slow": _slow_service(1.5)}).start() as srv:
            client = connect(srv.address, timeout=0.4)
            try:
                with pytest.raises(ClientError) as exc:
                    client.suggest_sources([("slow.c", GOOD_SOURCE)],
                                           bundle="slow")
                assert exc.value.code == "timeout"
                # without the reconnect, these results would be the
                # timed-out request's late frames
                results = client.suggest_sources(
                    [("fresh.c", OTHER_SOURCE)])
                assert [r.name for r in results] == ["fresh.c"]
                assert results[0].suggestions
            finally:
                client.close()

    def test_ping_answers_with_queue_depth(self, server):
        with connect(server.address) as client:
            assert client.capabilities["ping"] is True
            pong = client.ping(token="probe-1")
            assert pong.token == "probe-1"
            assert pong.queued == 0
            assert pong.running == 0

    def test_degraded_bundle_surfaces_in_capabilities(self):
        srv = SuggestServer(
            {"default": _service()},
            degraded={"broken": "manifest corrupt"},
        ).start()
        try:
            with connect(srv.address) as client:
                assert client.capabilities["degraded"] == {
                    "broken": "manifest corrupt"}
                with pytest.raises(ClientError) as exc:
                    client.suggest_sources([("a.c", GOOD_SOURCE)],
                                           bundle="broken")
                assert exc.value.code == "unknown-bundle"
                assert "manifest corrupt" in str(exc.value)
                # the refusal names the load failure but keeps both
                # the connection and the healthy bundle serving
                results = client.suggest_sources([("a.c", GOOD_SOURCE)])
                assert results[0].suggestions
        finally:
            srv.shutdown()

    def test_deadline_exceeded_is_an_error_not_a_hang(self):
        with SuggestServer({"default": _slow_service(1.0)}).start() \
                as srv:
            with connect(srv.address, deadline_s=0.2) as client:
                start = time.monotonic()
                with pytest.raises(ClientError) as exc:
                    client.suggest_sources([("a.c", GOOD_SOURCE)])
                assert exc.value.code == "deadline-exceeded"
                assert time.monotonic() - start < 10

    def test_retry_policy_reconnects_after_connection_loss(self, server):
        client = connect(server.address,
                         retry=RetryPolicy(base_delay_s=0.01))
        try:
            # sever the transport under the client's feet
            client._sock.close()
            client._broken = True
            results = client.suggest_sources([("a.c", GOOD_SOURCE)])
            assert [r.name for r in results] == ["a.c"]
            assert results[0].suggestions
        finally:
            client.close()


class TestLifecycle:
    def test_client_disconnect_mid_stream_leaves_server_up(self, server):
        named = [(f"f{i}.c", GOOD_SOURCE + f"\n// {i}\n" * i)
                 for i in range(40)]
        sock, rfile, wfile = _raw_connection(server.address)
        protocol.write_message(wfile, protocol.Hello())
        assert isinstance(protocol.read_message(rfile), protocol.HelloOk)
        protocol.write_message(
            wfile, protocol.SuggestRequest(
                sources=tuple(named), ordered=True, stream=True))
        first = protocol.read_message(rfile)
        assert isinstance(first, protocol.FileResult)
        # vanish abruptly: RST instead of FIN, mid-reply
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        sock.close()
        # the server must shrug that off and keep serving new clients
        deadline = time.time() + 10
        while True:
            try:
                with connect(server.address) as client:
                    results = client.suggest_sources(
                        [("a.c", GOOD_SOURCE)])
                break
            except ClientError:
                if time.time() > deadline:
                    raise
                time.sleep(0.1)
        assert len(results[0].suggestions) == 2

    def test_shutdown_refuses_new_connections(self):
        srv = SuggestServer({"default": _service()}).start()
        address = srv.address
        srv.shutdown()
        host, port = address.rsplit(":", 1)
        with pytest.raises((ClientError, OSError)):
            connect(address, timeout=2)

    def test_shutdown_closes_idle_connections(self):
        srv = SuggestServer({"default": _service()}).start()
        client = connect(srv.address)
        try:
            # shutdown drains: the idle connection closes at the next
            # poll tick instead of pinning the server forever
            srv.shutdown()
            with pytest.raises(ClientError):
                client.suggest_sources([("a.c", GOOD_SOURCE)])
        finally:
            client.close()

    def test_shutdown_is_idempotent(self):
        srv = SuggestServer({"default": _service()}).start()
        srv.shutdown()
        srv.shutdown()

    def test_concurrent_shutdown_callers_both_block_until_done(self):
        srv = SuggestServer({"default": _service()}).start()
        finished: list[float] = []

        def stop() -> None:
            srv.shutdown()
            finished.append(time.time())

        threads = [threading.Thread(target=stop) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(finished) == 2
        assert srv._stopped.is_set()

    def test_stale_unix_socket_is_reclaimed(self, tmp_path):
        sock_path = tmp_path / "serve.sock"
        # a crashed daemon's leftover: a bound-then-abandoned socket
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(str(sock_path))
        dead.close()
        assert sock_path.is_socket()
        with SuggestServer({"default": _service()},
                           unix_path=sock_path).start() as srv:
            with connect(f"unix:{sock_path}") as client:
                assert client.suggest_sources([]) == []

    def test_live_unix_socket_is_not_stolen(self, tmp_path):
        sock_path = tmp_path / "serve.sock"
        with SuggestServer({"default": _service()},
                           unix_path=sock_path).start():
            with pytest.raises(OSError, match="already listening"):
                SuggestServer({"default": _service()},
                              unix_path=sock_path)


class TestWarmStoreSharing:
    def test_concurrent_clients_zero_duplicate_forwards(self, tmp_path):
        """Acceptance: two concurrent streaming clients over one warm
        store — the overlapping files are computed exactly once."""
        store = SuggestionStore(tmp_path / "cache")
        service = _service(store=store)
        named = [("a.c", GOOD_SOURCE), ("b.c", OTHER_SOURCE)]
        with SuggestServer({"default": service}).start() as srv:
            results: dict[int, list] = {}
            errors: list = []

            def one_client(cid: int) -> None:
                try:
                    with connect(srv.address) as client:
                        results[cid] = [
                            fs.to_payload() for fs in
                            client.stream_sources(named)
                        ]
                except Exception as exc:   # surfaces in the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=one_client, args=(cid,))
                       for cid in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors
            assert results[0] == results[1]
            stats = service.cache_stats()
        # one pipeline pass total: the second client's files were
        # either coalesced into the first client's forward (both
        # requests landed in one micro-batch round) or served entirely
        # from the warm store — never computed twice
        assert stats["forwards"]["calls"] == 2      # 2 models, once each
        assert (stats["store"]["suggest_hits"]
                + stats["coalesce"]["deduped_files"]) == len(named)
        assert stats["store"]["parse_misses"] == len(named)
        assert stats["store"]["parse_hits"] == 0

    def test_sequential_clients_share_warmth(self, tmp_path):
        store = SuggestionStore(tmp_path / "cache")
        service = _service(store=store)
        with SuggestServer({"default": service}).start() as srv:
            with connect(srv.address) as client:
                client.suggest_sources([("a.c", GOOD_SOURCE)])
            forwards_after_first = \
                service.cache_stats()["forwards"]["graphs"]
            with connect(srv.address) as client:
                client.suggest_sources([("a.c", GOOD_SOURCE)])
            stats = service.cache_stats()
        assert stats["forwards"]["graphs"] == forwards_after_first
        assert stats["store"]["suggest_hits"] == 1
