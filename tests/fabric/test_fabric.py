"""End-to-end tests of the distributed serving fabric.

The invariant everything here defends: results streamed through
remote peers are byte-identical to the in-process pipeline — at one
peer, at two peers, and with one peer dead mid-fleet (the supervisor
requeues its shard onto a survivor instead of aborting).
"""

import socket

import numpy as np
import pytest

from repro.client import ClientError
from repro.fabric import NetworkStore, iter_inline, stream_fabric
from repro.serve import REWRITE, ServeConfig, SuggestionService, SuggestServer
from repro.serve.worker import WorkerSpec

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


def _golden():
    """The in-process results every fabric topology must reproduce."""
    return _snap(list(_service().stream_sources(CORPUS)))


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

        The relay for the dead peer exits like a SIGKILLed worker, the
        supervisor requeues, and sid rotation lands the respawn on the
        survivor — so the result is still byte-identical.
        """
        peers = [_dead_address(), fleet[0]]
        results = list(stream_fabric(peers, CORPUS, ordered=True,
                                     config=ServeConfig(max_retries=3)))
        assert _snap(results) == _golden()

    def test_all_peers_dead_is_an_error(self):
        with pytest.raises(Exception):
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


class TestIterInline:
    def test_matches_golden_without_processes(self, fleet):
        spec = WorkerSpec(config=ServeConfig(), peers=(fleet[0],),
                          peer_timeout_s=60.0)
        got = sorted(iter_inline(spec, CORPUS), key=lambda pair: pair[0])
        assert [(i, r.name, r.to_payload()) for i, r in got] == [
            (i, name, payload)
            for i, (name, payload) in enumerate(_golden())
        ]


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
