"""Bench: warm per-file latency through the long-lived daemon.

The whole argument for ``repro serve --listen`` is amortisation: a
per-invocation CLI pays service construction + parse + encode + model
forwards for every file it is asked about, while a warm daemon answers
the same question with one store lookup over a loopback socket.  This
bench measures per-file p50 latency through a warm server against a
cold per-invocation baseline (a fresh uncached service per file — the
in-process lower bound of what a one-shot CLI run must pay, before
interpreter startup and model loading make it worse) and requires the
daemon to win by ``REQUIRED_SPEEDUP``×.

Results land in ``BENCH_listen.json`` for the CI perf trajectory.
"""

import statistics
import time

from conftest import run_once, write_bench_artifact

from repro.client import connect
from repro.dataset.corpus import CorpusGenerator
from repro.serve import ServeConfig, SuggestServer, build_service

REQUIRED_SPEEDUP = 3.0
#: warm measurement rounds over the whole corpus
ROUNDS = 3


def _write_corpus(directory) -> list:
    _, files = CorpusGenerator(seed=23).generate(scale=0.002)
    for f in files:
        (directory / f"file_{f.file_id}.c").write_text(f.source)
    return sorted(directory.glob("*.c"))


def _listen_latency(context, tmp_path) -> dict:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    paths = _write_corpus(corpus)
    serve_config = ServeConfig(workers=1, batch_size=512)

    # cold baseline: every file pays a fresh, uncached service — the
    # per-invocation story the daemon replaces
    cold_samples_s = []
    for path in paths:
        service = build_service(context, serve_config)
        start = time.perf_counter()
        cold = list(service.stream_sources([(str(path),
                                             path.read_text())]))
        cold_samples_s.append(time.perf_counter() - start)
    cold_payloads = [fs.to_payload() for fs in cold]

    service = build_service(context, serve_config,
                            cache_dir=tmp_path / "cache")
    with SuggestServer({"default": service}).start() as server:
        with connect(server.address) as client:
            # first pass warms the store through the daemon
            client.suggest_sources([(str(p), p.read_text()) for p in paths])
            forwards_before = service.cache_stats()["forwards"]["graphs"]

            warm_samples_s = []
            for _ in range(ROUNDS):
                for path in paths:
                    start = time.perf_counter()
                    warm = client.suggest_sources(
                        [(str(path), path.read_text())])
                    warm_samples_s.append(time.perf_counter() - start)
            forwards_after = service.cache_stats()["forwards"]["graphs"]
    warm_payloads = [fs.to_payload() for fs in warm]

    warm_p50_s = statistics.median(warm_samples_s)
    cold_p50_s = statistics.median(cold_samples_s)
    return {
        "files": len(paths),
        "rounds": ROUNDS,
        "transport": "tcp-loopback",
        "cold_per_file_p50_ms": round(cold_p50_s * 1e3, 3),
        "warm_per_file_p50_ms": round(warm_p50_s * 1e3, 3),
        "warm_per_file_p90_ms": round(
            statistics.quantiles(warm_samples_s, n=10)[-1] * 1e3, 3),
        "speedup": round(cold_p50_s / warm_p50_s, 2) if warm_p50_s
        else 0.0,
        "warm_extra_forwards": forwards_after - forwards_before,
        "identical_last_file": warm_payloads == cold_payloads,
    }


def test_listen_latency(benchmark, context, tmp_path):
    build_service(context)      # train once, outside the measured body
    result = run_once(benchmark, _listen_latency, context, tmp_path)
    path = write_bench_artifact("listen", result)
    print(f"\nlisten latency: {result['files']} files, warm p50 "
          f"{result['warm_per_file_p50_ms']}ms vs cold per-invocation "
          f"{result['cold_per_file_p50_ms']}ms "
          f"({result['speedup']}x) -> {path}")

    assert result["files"] >= 10
    # a warm daemon answers from the store: zero model forwards
    assert result["warm_extra_forwards"] == 0
    assert result["identical_last_file"]
    assert result["speedup"] >= REQUIRED_SPEEDUP
