"""The mode grid: each cell runs ``suggest-dir`` or ``rewrite-dir``
through ``repro.cli.main`` in process, and its ``--out`` must be the
in-process golden byte for byte.  A mode with a store runs each command
cold, then warm (``--stream``), on a store no other test touches;
suggest goes first, so the cold rewrite verifies stored suggestions.
"""

import json
import re
from pathlib import Path

import pytest

from .conftest import COMMANDS, EXAMPLES

#: what an in-process store run prints on stderr, cold and warm
SUMMARY = {"cold": r"cache: 0 files warm, [1-9]\d* computed",
           "warm": r"warm, 0 computed \(0 graph forwards\)"}


def check_cells(repro, tmp_path, corpus, golden, flags, store,
                local=True):
    """Both commands, cold then warm with a store: each run writes the
    golden; in process, the cold run computes and the warm one replays."""
    for command in COMMANDS:
        for run in ("cold", "warm") if store else ("cold",):
            out = tmp_path / f"{command}-{run}.json"
            stdout, stderr = repro(command, corpus, *flags, "--out", out,
                                   "--stream" if store else "--quiet")
            assert out.read_bytes() == golden[command], f"{command} {run}"
            if not store:
                continue
            done = json.loads(stdout.splitlines()[-1])
            assert done["event"] == "done", f"{command} {run}"
            if not local:
                continue
            if command == "suggest-dir":
                assert re.search(SUMMARY[run], stderr), stderr
            elif run == "cold":
                assert done["simulations"] > 0, done
            else:
                assert done["simulations"] == 0, done
                assert done["verifier"]["cached_verdicts"] > 0, done


@pytest.mark.parametrize("store", [None, "disk", "net"])
@pytest.mark.parametrize("shards", [1, 2])
def test_local(shards, store, bundle, corpus, golden, repro, serve,
               tmp_path):
    flags = ["--bundle", bundle, "--shards", shards]
    if store == "disk":
        flags += ["--cache-dir", tmp_path / "cache"]
    elif store == "net":
        (daemon,) = serve(["--accept-bundles", "--cache-dir",
                           tmp_path / "cache"])
        flags += ["--cache-dir", f"net:{daemon.address}"]
    check_cells(repro, tmp_path, corpus, golden, flags, store)


@pytest.mark.parametrize("shards", [1, 2])
def test_server(shards, bundle, corpus, golden, repro, serve, tmp_path):
    (daemon,) = serve(["--bundle", bundle, "--cache-dir",
                       tmp_path / "cache"])
    flags = ["--server", daemon.address, "--shards", shards]
    check_cells(repro, tmp_path, corpus, golden, flags, "daemon",
                local=False)


def test_peers_push_the_bundle_once(bundle, corpus, golden, repro, serve,
                                    tmp_path):
    peers = serve(*(["--accept-bundles", "--cache-dir", tmp_path / tag]
                    for tag in "ab"))
    flags = ["--peers", ",".join(peer.address for peer in peers),
             "--bundle", bundle, "--quiet"]
    # the first run pushes the bundle to each peer, the second finds it
    for command, verb in zip(COMMANDS, (": pushed ", ": cache hit ")):
        _, err = repro(command, corpus, *flags, "--out", tmp_path / command)
        assert (tmp_path / command).read_bytes() == golden[command]
        assert err.count(verb) == err.count("fabric: peer") == 2, err


def test_golden_rewrite_lands_a_reduction(golden):
    records = {Path(r["file"]).name: r
               for r in json.loads(golden["rewrite-dir"])}
    assert any("reduction(+:" in records[path.name]["rewritten_source"]
               for path in EXAMPLES.glob("*.c"))
