"""End-to-end tests of the distributed serving fabric.

The invariant everything here defends: results streamed through
remote peers are byte-identical to the in-process pipeline — at one
peer, at two peers, and with one peer dead mid-fleet (the supervisor
requeues its shard onto a survivor instead of aborting).  Remote
shards are relay threads of the coordinator, so the relay tests also
check that worker faults end a relay, never the test process, and
that no relay thread outlives its stream.
"""

import multiprocessing
import socket
import threading
import time

import numpy as np
import pytest

import repro.client
from repro.client import ClientError, RetryPolicy, connect
from repro.fabric import NetworkStore, stream_fabric
from repro.serve import (
    REWRITE,
    Fault,
    FaultPlan,
    ServeConfig,
    ServeError,
    SuggestionService,
    SuggestServer,
    faults,
    protocol,
)

SOURCE_A = """
double a[100], b[100]; double s;
void kernel(void) {
    int i;
    for (i = 0; i < 100; i++) a[i] = b[i];
    for (i = 0; i < 100; i++) s += a[i];
}
"""

SOURCE_B = """
double c[50];
void scale(void) {
    int j;
    for (j = 0; j < 50; j++) c[j] = c[j] * 2.0;
}
"""

BAD_SOURCE = "void broken(void) { for (i = 0; i < ; }"

CORPUS = [("a.c", SOURCE_A), ("b.c", SOURCE_B), ("broken.c", BAD_SOURCE)]


def _corpus(n: int = 8):
    """``n`` distinct files: enough for a relay to die mid-shard."""
    return [(f"f{i}.c",
             (SOURCE_A if i % 2 else SOURCE_B)
             .replace("100", str(100 + i)).replace("50", str(50 + i)))
            for i in range(n)]


class _StubModel:
    """Picklable fingerprinted stub following the suggester contract."""

    def __init__(self, value: int, name: str = "stub") -> None:
        self.value = value
        self.name = name

    def predict_samples(self, samples):
        return np.full(len(samples), self.value, dtype=int)

    def fingerprint(self) -> str:
        return f"stub:{self.name}:{self.value}"


def _service() -> SuggestionService:
    return SuggestionService(_StubModel(1),
                             {"reduction": _StubModel(0, "red")})


def _golden(corpus=CORPUS):
    """The in-process results every fabric topology must reproduce."""
    return _snap(list(_service().stream_sources(corpus)))


def _snap(results):
    return [(r.name, r.to_payload()) for r in results]


def _dead_address() -> str:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return "127.0.0.1:%d" % probe.getsockname()[1]


@pytest.fixture
def fleet():
    """Two identical peer daemons, as a list of addresses."""
    servers = [SuggestServer({"default": _service()}).start()
               for _ in range(2)]
    yield [srv.address for srv in servers]
    for srv in servers:
        srv.shutdown()


class TestStreamFabric:
    def test_one_peer_byte_identical(self, fleet):
        results = list(stream_fabric(fleet[:1], CORPUS, ordered=True))
        assert _snap(results) == _golden()

    def test_two_peers_byte_identical(self, fleet):
        results = list(stream_fabric(fleet, CORPUS, ordered=True))
        assert _snap(results) == _golden()

    def test_unordered_is_the_same_set(self, fleet):
        results = list(stream_fabric(fleet, CORPUS, ordered=False))
        assert sorted(_snap(results)) == sorted(_golden())

    def test_dead_peer_requeues_onto_survivor(self, fleet):
        """Losing a peer re-routes its shard, it never aborts the run.

        The relay for the dead peer ends like a SIGKILLed worker, the
        supervisor requeues, and sid rotation lands the respawn on the
        survivor — so the result is still byte-identical.
        """
        peers = [_dead_address(), fleet[0]]
        results = list(stream_fabric(peers, CORPUS, ordered=True,
                                     config=ServeConfig(max_retries=3)))
        assert _snap(results) == _golden()

    def test_all_peers_dead_is_an_error(self):
        with pytest.raises(ServeError, match="no reachable peer"):
            list(stream_fabric([_dead_address()], CORPUS, ordered=True,
                               config=ServeConfig(max_retries=1)))

    def test_rewrite_mode_byte_identical(self, fleet):
        golden = [(r.name, r.to_payload())
                  for r in _service().stream_sources(CORPUS, job=REWRITE)]
        results = list(stream_fabric(fleet, CORPUS, job=REWRITE,
                                     ordered=True))
        assert [(r.name, r.to_payload()) for r in results] == golden

    def test_no_peers_refused(self):
        with pytest.raises(ValueError, match="at least one peer"):
            stream_fabric([], CORPUS)

    def test_misaligned_peer_bundles_refused(self, fleet):
        with pytest.raises(ValueError, match="align"):
            stream_fabric(fleet, CORPUS, peer_bundles=("only-one",))


@pytest.fixture
def arm():
    """Arm worker faults in this process: relays are its threads."""

    def _arm(*plan_faults):
        faults.activate(FaultPlan(tuple(plan_faults)))

    yield _arm
    faults.reset()


def _relays():
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-relay") and t.is_alive()]


class _DyingPeer:
    """A proxy to a live peer that passes on one file, then drops the
    connection and refuses new ones: a peer that dies mid-stream."""

    def __init__(self, target: str) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._target = target
        self.died = threading.Event()
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self) -> None:
        downstream, _ = self._listener.accept()
        self._listener.close()
        host, port = self._target.rsplit(":", 1)
        upstream = socket.create_connection((host, int(port)))
        threading.Thread(target=self._pump, args=(downstream, upstream),
                         daemon=True).start()
        with upstream.makefile("rb") as reader, \
                downstream.makefile("wb") as writer:
            while (message := protocol.read_message(reader)) is not None:
                protocol.write_message(writer, message)
                if isinstance(message, protocol.FileResult):
                    break
        for sock in (downstream, upstream):
            sock.shutdown(socket.SHUT_RDWR)
            sock.close()
        self.died.set()

    @staticmethod
    def _pump(src, dst) -> None:
        try:
            while data := src.recv(65536):
                dst.sendall(data)
        except OSError:
            pass


class TestRelays:
    def test_two_peers_fork_nothing(self, fleet, monkeypatch):
        def refuse(self):
            raise OSError("this host cannot start processes")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)
        results = list(stream_fabric(fleet, CORPUS, ordered=True))
        assert _snap(results) == _golden()

    def test_peer_lost_mid_stream_is_requeued(self, fleet):
        dying = _DyingPeer(fleet[0])
        corpus = _corpus()
        results = list(stream_fabric(
            [dying.address, fleet[1]], corpus, ordered=True,
            config=ServeConfig(retry_backoff_s=0.01)))
        assert dying.died.is_set()
        assert _snap(results) == _golden(corpus)

    def test_killed_relay_is_requeued(self, fleet, arm):
        corpus = _corpus()
        arm(Fault("kill-worker", sid=0, after_files=1))
        results = list(stream_fabric(
            fleet, corpus, ordered=True,
            config=ServeConfig(retry_backoff_s=0.01)))
        assert _snap(results) == _golden(corpus)

    def test_hung_relay_is_killed_by_the_heartbeat(self, fleet, arm):
        corpus = _corpus()
        arm(Fault("hang-worker", sid=0, after_files=1))
        start = time.monotonic()
        results = list(stream_fabric(
            fleet, corpus, ordered=True,
            config=ServeConfig(heartbeat_s=1.0, retry_backoff_s=0.01)))
        assert _snap(results) == _golden(corpus)
        # detected by silence, not by waiting out the hang
        assert time.monotonic() - start < faults.HANG_S / 10
        assert not _relays()

    def test_poison_file_is_quarantined(self, fleet, arm):
        corpus = _corpus()
        golden = dict(_golden(corpus))
        # relays share the coordinator's firing counters: allow one
        # firing per relay the file should end
        arm(Fault("poison-file", match="f3.c", times=8))
        results = list(stream_fabric(
            fleet, corpus, ordered=True,
            config=ServeConfig(retry_backoff_s=0.01)))
        assert [r.name for r in results] == [name for name, _ in corpus]
        for r in results:
            if r.name == "f3.c":
                assert r.error.startswith("quarantined:")
            else:
                assert r.to_payload() == golden[r.name]

    def test_closed_stream_leaves_no_relay_thread(self, fleet):
        results = stream_fabric(fleet, _corpus(), ordered=False)
        first = next(results)
        results.close()
        assert first.error is None
        assert not _relays()

    def test_aborted_client_never_reconnects(self, fleet, monkeypatch):
        """A killed relay aborts its client: the stream in progress
        fails at once, whatever the retry policy, and no socket opens."""
        client = connect(fleet[0], retry=RetryPolicy(base_delay_s=0.0))
        client.abort()
        opened = []
        monkeypatch.setattr(repro.client, "_open_socket",
                            lambda *args: opened.append(args))
        request = REWRITE.request(sources=tuple(CORPUS), bundle=None,
                                  ordered=False, stream=True)
        with pytest.raises(ClientError):
            list(client.stream_request(request))
        client.close()
        assert opened == []


class TestNetworkStoreEdges:
    def test_dead_daemon_degrades_to_misses(self):
        store = NetworkStore(_dead_address(), timeout=2.0)
        assert store.get_parse("k" * 64) is None
        store.put_parse("k" * 64, {"requests": []})
        stats = store.stats()
        assert stats["parse_misses"] == 1
        assert stats["write_errors"] == 1

    def test_dead_daemon_maintenance_raises(self):
        store = NetworkStore(_dead_address(), timeout=2.0)
        with pytest.raises((ClientError, OSError)):
            store.gc(max_bytes=0)

    def test_storeless_daemon_is_fatal_not_retried(self, fleet):
        # peers built without a cache share no store
        store = NetworkStore(fleet[0], timeout=5.0)
        with pytest.raises(ClientError) as exc:
            store.describe()
        assert exc.value.code == "no-store"
        # the refusal is terminal: reads degrade without re-dialing
        assert store._dead is True
        assert store.get_parse("k" * 64) is None


class TestPingCLI:
    def test_human_output(self, fleet, capsys):
        from repro.cli import ping_main

        assert ping_main([fleet[0]]) == 0
        out = capsys.readouterr().out
        assert f"pong from {fleet[0]}" in out
        assert "bundles: default" in out
        assert "fabric: peer only" in out

    def test_json_output(self, fleet, capsys):
        import json

        from repro.cli import ping_main

        assert ping_main([fleet[0], "--json"]) == 0
        probe = json.loads(capsys.readouterr().out)
        assert probe["address"] == fleet[0]
        assert probe["rtt_ms"] > 0
        assert probe["capabilities"]["fabric"] is True
        assert probe["capabilities"]["bundles"] == ["default"]

    def test_dead_daemon_exits_nonzero(self, capsys):
        from repro.cli import ping_main

        dead = _dead_address()
        assert ping_main([dead, "--timeout", "2"]) == 1
        assert f"no pong from {dead}" in capsys.readouterr().err
