"""Bench: distributed fabric scaling + warm network-store serving.

Two claims about the serving fleet are measured against real
``repro serve`` daemon subprocesses on localhost:

- *peer scaling* (``peer_speedup``): the wall of relaying a corpus
  through 1 peer over the wall of fanning it out across 2 peers
  (``stream_fabric``) — the compute happens in the daemons, so with
  ≥2 cores two peers overlap where one serializes;
- *warm network store*: a service mounting a daemon's store over the
  wire (``cache_dir="net:ADDR"``) must replay a warm corpus with
  **zero** model forwards, and the warm run's wall clock bounds the
  per-file network-hit latency (``warm_hit_ms``).

Results must be byte-identical to the in-process pipeline at every
peer count, always.  ``peer_speedup`` depends on the host's cores, so
it is not asserted here: ``check_regression.py`` gates it, with
``warm_net_speedup``, against the ``BENCH_fabric.json`` baseline
recorded on ≥2 CPUs.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import run_once, write_bench_artifact

from repro.artifacts import SuggesterBundle
from repro.dataset.corpus import CorpusGenerator
from repro.fabric import stream_fabric
from repro.serve import ServeConfig, SuggestServer, build_service

MIN_WARM_SPEEDUP = 1.5
MIN_FILES = 8

REPO_ROOT = Path(__file__).resolve().parent.parent


def _named_corpus() -> list[tuple[str, str]]:
    # big enough that per-peer compute dwarfs the relay's wire and
    # process overhead: the 2-peer ratio must reflect the pipeline
    _, files = CorpusGenerator(seed=37).generate(scale=0.008)
    return [(f"file_{f.file_id}.c", f.source) for f in files]


def _renders(results):
    return [(fs.name, fs.error, [s.render() for s in fs.suggestions])
            for fs in results]


def _spawn_peer(archive: Path, work: Path, tag: str) -> subprocess.Popen:
    """One `repro serve` daemon subprocess on an ephemeral port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    ready = work / f"ready-{tag}.txt"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--listen", "127.0.0.1:0", "--bundle", str(archive),
         "--cache-dir", str(work / f"cache-{tag}"),
         "--ready-file", str(ready)],
        env=env, cwd=REPO_ROOT)
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if ready.exists() and ready.read_text().strip():
            proc.address = ready.read_text().strip()
            return proc
        if proc.poll() is not None:
            raise RuntimeError(f"peer {tag} exited {proc.returncode}")
        time.sleep(0.1)
    proc.kill()
    raise RuntimeError(f"peer {tag} never became ready")


def _timed_fabric(peers, named) -> tuple[float, list]:
    """One *cold* pass: every peer must be freshly spawned.

    A second pass over the same daemons would replay warm from their
    suggestion stores and measure relay overhead instead of compute —
    so each topology gets its own peers and a single measurement.
    """
    start = time.perf_counter()
    results = list(stream_fabric(peers, named, ordered=True))
    return time.perf_counter() - start, results


def _fabric_vs_local(context, tmp_path) -> dict:
    named = _named_corpus()
    bundle = SuggesterBundle.from_context(context)
    archive = tmp_path / "advisor.tar.gz"
    bundle.export_archive(archive)

    golden = _renders(
        build_service(SuggesterBundle.load(archive),
                      ServeConfig()).stream_sources(named))

    # three daemons so each topology serves the corpus cold: one for
    # the single-peer run, a disjoint pair for the two-peer run
    peers = []
    try:
        peers = [_spawn_peer(archive, tmp_path, tag)
                 for tag in ("solo", "pair-a", "pair-b")]
        addrs = [p.address for p in peers]
        single_s, single_results = _timed_fabric(addrs[:1], named)
        two_s, two_results = _timed_fabric(addrs[1:], named)
    finally:
        for proc in peers:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    # warm network store: one daemon's store mounted over the wire by
    # two fresh services — the second must replay without a forward
    store_peer = SuggestServer(
        {}, cache_dir=str(tmp_path / "net-store"),
        bundle_cache_dir=tmp_path / "net-bundles").start()
    try:
        net = f"net:{store_peer.address}"
        cold_service = build_service(SuggesterBundle.load(archive),
                                     ServeConfig(), cache_dir=net)
        start = time.perf_counter()
        cold_results = list(cold_service.stream_sources(named))
        cold_s = time.perf_counter() - start
        warm_service = build_service(SuggesterBundle.load(archive),
                                     ServeConfig(), cache_dir=net)
        start = time.perf_counter()
        warm_results = list(warm_service.stream_sources(named))
        warm_s = time.perf_counter() - start
        warm_forwards = sum(
            warm_service.cache_stats()["forwards"].values())
    finally:
        store_peer.shutdown()

    return {
        "files": len(named),
        "cpus": os.cpu_count(),
        "peers": 2,
        "single_peer_s": round(single_s, 4),
        "two_peer_s": round(two_s, 4),
        "peer_speedup": round(single_s / two_s, 3) if two_s else 0.0,
        "cold_net_s": round(cold_s, 4),
        "warm_net_s": round(warm_s, 4),
        "warm_net_speedup": round(cold_s / warm_s, 3)
        if warm_s else 0.0,
        "warm_hit_ms": round(warm_s / len(named) * 1e3, 3),
        "warm_forwards": warm_forwards,
        "identical": (
            _renders(single_results) == golden
            and _renders(two_results) == golden
            and _renders(cold_results) == golden
            and _renders(warm_results) == golden
        ),
    }


def test_fabric_scaling(benchmark, context, tmp_path):
    build_service(context)      # train once, outside the measured body
    result = run_once(benchmark, _fabric_vs_local, context, tmp_path)
    path = write_bench_artifact("fabric", result)
    print(f"\nfabric scaling: {result['files']} files, 1 peer "
          f"{result['single_peer_s']}s vs 2 peers {result['two_peer_s']}s "
          f"({result['peer_speedup']}x), net store cold "
          f"{result['cold_net_s']}s vs warm {result['warm_net_s']}s "
          f"({result['warm_net_speedup']}x, {result['warm_hit_ms']}ms/file, "
          f"{result['cpus']} cpus) -> {path}")

    assert result["files"] >= MIN_FILES
    # grounding: remote serving must not change a single byte
    assert result["identical"]
    # the warm contract: every file replays from the fleet store
    assert result["warm_forwards"] == 0
    assert result["warm_net_speedup"] >= MIN_WARM_SPEEDUP
