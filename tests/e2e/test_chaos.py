"""Fault cells: ``--faults`` worker faults fire in forked workers under
``--shards 2`` and in relay threads under ``--peers``; peers and daemons
die by SIGKILL.  Every byte the fault does not own stays golden."""

import json
import shutil
from pathlib import Path

import pytest

from repro import cli
from repro.client import RetryPolicy, connect

from .conftest import COMMANDS

KILL = '{"faults": [{"kind": "kill-worker", "sid": 0, "after_files": 1}]}'
POISON = '{"faults": [{"kind": "poison-file", "match": "poison", "times": 8}]}'


def fanout(mode, pair):
    return ["--shards", "2"] if mode == "shards" else ["--peers", ",".join(pair)]


def by_name(records):
    return {Path(r["file"]).name: {**r, "file": Path(r["file"]).name}
            for r in records}


@pytest.mark.parametrize("mode", ["shards", "peers"])
@pytest.mark.parametrize("command", COMMANDS)
def test_killed_worker_leaves_output_identical(command, mode, armed, bundle,
                                               corpus, golden, pair, repro,
                                               tmp_path):
    repro(command, corpus, "--bundle", bundle, *fanout(mode, pair),
          "--faults", KILL, "--quiet", "--out", tmp_path / "out.json")
    assert (tmp_path / "out.json").read_bytes() == golden[command]


@pytest.mark.parametrize("mode", ["shards", "peers"])
def test_lethal_input_is_quarantined(mode, armed, bundle, corpus, golden,
                                     pair, repro, tmp_path):
    # the fault matches the served path: only one file name says poison
    shutil.copytree(corpus, tmp_path / "lethal")
    shutil.copy(corpus / "reduce.c", tmp_path / "lethal" / "poison_me.c")
    stdout, _ = repro("suggest-dir", tmp_path / "lethal", "--bundle", bundle,
                      *fanout(mode, pair), "--faults", POISON, "--stream")
    records = by_name(map(json.loads, stdout.splitlines()[:-1]))
    assert records.pop("poison_me.c")["code"] == "quarantined"
    assert records == by_name(json.loads(golden["suggest-dir"]))


def test_peer_killed_mid_run_is_requeued(bundle, corpus, golden, repro,
                                         serve, tmp_path, monkeypatch):
    # cold peers serving a file per round: the victim dies owing files
    peers = serve(*(["--accept-bundles", "--round-files", "1",
                     "--cache-dir", tmp_path / tag] for tag in "ab"))
    emitted, at_kill, emit = [], [], cli._ndjson_record

    def record(rec):
        emit(rec)
        emitted.append(rec)
        if not at_kill:
            peers[1].kill()
            peers[1].wait(timeout=30)
            at_kill.append(len(emitted))

    monkeypatch.setattr(cli, "_ndjson_record", record)
    repro("suggest-dir", corpus, "--bundle", bundle, "--stream", "--peers",
          ",".join(p.address for p in peers), "--out", tmp_path / "out.json")
    *records, done = emitted
    assert at_kill[0] < len(records) and done["errors"] == 0
    assert all(r.get("event") != "error" for r in records)
    assert (tmp_path / "out.json").read_bytes() == golden["suggest-dir"]


def test_unix_daemon_restart_mid_stream(bundle, corpus, golden, serve,
                                        tmp_path):
    sock, named = tmp_path / "serve.sock", cli._read_corpus(corpus, "*.c")

    def start(tag):
        # a file per round: the reply streams, so the kill lands mid-reply
        return serve(["--unix", sock, "--bundle", bundle, "--round-files",
                      "1", "--cache-dir", tmp_path / tag])[0]

    first = start("a")
    retry = RetryPolicy(max_attempts=30, base_delay_s=0.1)
    with connect(f"unix:{sock}", timeout=60.0, retry=retry) as client:
        stream = client.stream_sources(named, ordered=True)
        got = [next(stream)]
        first.kill()
        first.wait(timeout=30)
        start("b")
        got.extend(stream)
    # every file once, in order, without an error: the golden records
    assert [cli._SuggestDir.record(r) for r in got] == \
        json.loads(golden["suggest-dir"])
