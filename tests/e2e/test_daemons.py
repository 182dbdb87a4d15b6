"""Daemon lifecycle: shared forwards, draining, cleaning up."""

import json
import signal
import threading
from pathlib import Path

from repro.artifacts import SuggesterBundle
from repro.cli import _read_corpus, _SuggestDir
from repro.client import connect
from repro.fabric import archive_for
from repro.serve import ServeConfig, build_service


def test_concurrent_clients_share_one_set_of_forwards(bundle, corpus, golden,
                                                      serve, tmp_path):
    named = _read_corpus(corpus, "*.c")
    service = build_service(SuggesterBundle.load(bundle), ServeConfig())
    list(service.stream_sources(named))
    (daemon,) = serve(["--bundle", bundle, "--cache-dir", tmp_path / "cache"])
    meet, replies = threading.Barrier(8, timeout=60), {}

    def client(cid: int) -> None:
        try:
            with connect(daemon.address) as c:
                meet.wait()
                records = [_SuggestDir.record(r) for r in c.suggest_sources(named)]
                # each done frame carries the daemon's running totals
                replies[cid] = records, c.last_done.stats["forwards"]["graphs"]
        except Exception as exc:         # noqa: BLE001
            replies[cid] = exc

    threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    want = json.loads(golden["suggest-dir"])
    assert [replies.get(cid, (None,))[0] == want for cid in range(8)] == \
        [True] * 8, replies
    assert max(graphs for _, graphs in replies.values()) == \
        service.cache_stats()["forwards"]["graphs"]


def test_salted_copies_through_a_warm_daemon_cost_no_forward(
        bundle, corpus, repro, serve, tmp_path):
    # a comment is the only edit: every file misses the daemon's store,
    # and every loop hits the answer memo its first pass filled
    named = _read_corpus(corpus, "*.c")
    (daemon,) = serve(["--bundle", bundle, "--cache-dir", tmp_path / "cache"])
    with connect(daemon.address) as client:
        client.suggest_sources(named)
        warm = client.last_done.stats
    salted = tmp_path / "salted"
    salted.mkdir()
    for name, source in named:
        (salted / Path(name).name).write_text(f"/* salted */\n{source}")
    repro("suggest-dir", salted, "--bundle", bundle, "--quiet",
          "--out", tmp_path / "golden.json")
    repro("suggest-dir", salted, "--server", daemon.address, "--quiet",
          "--out", tmp_path / "served.json")
    assert (tmp_path / "served.json").read_bytes() == \
        (tmp_path / "golden.json").read_bytes()
    with connect(daemon.address) as client:
        client.suggest_sources(named[:1])     # a store hit reads the totals
        done = client.last_done.stats
    assert done["forwards"]["graphs"] == warm["forwards"]["graphs"]
    assert done["answers"]["misses"] == warm["answers"]["misses"]
    assert done["store"]["suggest_misses"] == \
        warm["store"]["suggest_misses"] + len(named)


def test_sigterm_drains_a_streaming_reply(bundle, corpus, serve):
    # rounds of two files: the reply is still streaming at the signal
    (daemon,) = serve(["--bundle", bundle, "--round-files", "2"])
    named, received = _read_corpus(corpus, "*.c"), []
    with connect(daemon.address) as client:
        for result in client.stream_sources(named, ordered=True):
            if not received:
                daemon.send_signal(signal.SIGTERM)
            received.append(result.name)
    assert received == [name for name, _ in named]
    assert daemon.wait(timeout=60) == 0
    assert "drained and stopped" in daemon.log.read_text()


def test_bundle_acceptor_on_a_net_store_leaves_no_temp_dir(bundle, pair,
                                                           serve, tmp_path):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    (daemon,) = serve(["--accept-bundles", "--cache-dir", f"net:{pair[0]}"],
                      env={"TMPDIR": str(tmp)})
    archive = archive_for(bundle, tmp_path / "pack")
    with connect(daemon.address) as client:
        assert client.bundle_push(archive.read_bytes()).cached is False
    assert list(tmp.iterdir())          # the pushed archive is cached here
    daemon.send_signal(signal.SIGTERM)
    assert daemon.wait(timeout=60) == 0
    assert not list(tmp.iterdir())
