"""Bench: cross-client micro-batching vs lock-serialized serving.

PR 5's daemon serialized compute behind a per-bundle lock: N
concurrent interactive requests paid N full pipeline passes, one after
another.  The async core coalesces requests that arrive together into
one round — one block-diagonal forward per model answers all of them —
so the per-pass fixed cost (store transaction, encode-cache setup,
model-call overhead) is paid once per *round* instead of once per
*request*.

This bench drives both shapes through the real daemon over loopback
TCP:

- **serialized baseline**: the same N one-file requests issued
  back-to-back over a single connection — exactly the floor the PR 5
  lock imposed on concurrent clients (one request in compute at a
  time, zero overlap);
- **coalesced**: N clients on N connections firing simultaneously
  into the micro-batch window.

It also covers the two promises that make coalescing safe to ship:
per-request replies are byte-identical to a fresh in-process pipeline
run (asserted), and a *single* client skips the batch window entirely
(flush-on-idle), so solo latency does not regress.  That second one is
a wall-clock ratio, ``solo_window_speedup`` (no-window p50 ÷ window
p50), so it is gated by ``check_regression.py``, not asserted here.

Results land in ``BENCH_concurrency.json`` for the CI perf trajectory.
"""

import os
import statistics
import threading
import time

from conftest import run_once, write_bench_artifact

from repro.client import connect
from repro.serve import ServeConfig, SuggestServer, build_service

#: coalesced throughput must beat the lock-serialized floor by this
REQUIRED_SPEEDUP = 1.5

N_CLIENTS = 8
#: measurement repetitions (fresh sources each, medians reported)
TRIALS = 3
#: per-request latency samples for the solo-latency comparison
SOLO_REQUESTS = 30

#: the interactive request shape: one small file per client — the
#: traffic where per-pass fixed cost dominates and a compute lock
#: hurts the most; ``{n}`` is the loop's trip count
TINY_SOURCE = """\
double x[{n}], y[{n}];
void axpy(double a) {{
    int i;
    for (i = 0; i < {n}; i++) y[i] += a * x[i];
}}
"""


def _workload(client_id: int, salt: str) -> list:
    """One distinct single-file request: the salt defeats the store, and
    a trip count of the client's own defeats the service's answer memo,
    so every request needs its own forward."""
    return [(f"client{client_id}.c",
             TINY_SOURCE.format(n=64 + client_id)
             + f"/* {salt} client {client_id} */\n")]


def _serialized_total(context, serve_config, cache_dir, salt) -> tuple:
    """N requests back-to-back over one connection: the PR 5 floor."""
    service = build_service(context, serve_config, cache_dir=cache_dir)
    with SuggestServer({"default": service}).start() as server:
        with connect(server.address) as client:
            client.suggest_sources(_workload(99, salt + "-warm"))
            latencies = []
            start = time.perf_counter()
            for c in range(N_CLIENTS):
                s = time.perf_counter()
                client.suggest_sources(_workload(c, salt))
                latencies.append(time.perf_counter() - s)
            total = time.perf_counter() - start
    return total, latencies


def _coalesced_total(context, serve_config, cache_dir, salt) -> tuple:
    """N clients firing together into the micro-batch window."""
    service = build_service(context, serve_config, cache_dir=cache_dir)
    with SuggestServer({"default": service},
                       batch_window_ms=25.0).start() as server:
        clients = [connect(server.address) for _ in range(N_CLIENTS)]
        try:
            clients[0].suggest_sources(_workload(98, salt + "-warm"))
            latencies = [None] * N_CLIENTS
            results = [None] * N_CLIENTS
            barrier = threading.Barrier(N_CLIENTS + 1)

            def run(c):
                barrier.wait()
                s = time.perf_counter()
                results[c] = [fs.to_payload() for fs in
                              clients[c].suggest_sources(_workload(c, salt))]
                latencies[c] = time.perf_counter() - s

            threads = [threading.Thread(target=run, args=(c,))
                       for c in range(N_CLIENTS)]
            for t in threads:
                t.start()
            barrier.wait()
            start = time.perf_counter()
            for t in threads:
                t.join(timeout=120)
            total = time.perf_counter() - start
            coalesce = service.cache_stats()["coalesce"]
        finally:
            for c in clients:
                c.close()
    return total, latencies, results, coalesce


def _solo_p50_ms(context, serve_config, cache_dir, window_ms,
                 salt) -> float:
    """Warm per-request p50 of a lone client on a given window."""
    service = build_service(context, serve_config, cache_dir=cache_dir)
    with SuggestServer({"default": service},
                       batch_window_ms=window_ms).start() as server:
        with connect(server.address) as client:
            client.suggest_sources(_workload(97, salt + "-warm"))
            samples = []
            for i in range(SOLO_REQUESTS):
                s = time.perf_counter()
                client.suggest_sources(_workload(i, salt))
                samples.append(time.perf_counter() - s)
    return statistics.median(samples) * 1e3


def _concurrency(context, tmp_path) -> dict:
    serve_config = ServeConfig(batch_size=512)

    serial_totals, serial_lats = [], []
    conc_totals, conc_lats = [], []
    identical = True
    coalesce = {}
    for trial in range(TRIALS):
        total, lats = _serialized_total(
            context, serve_config, tmp_path / f"ser{trial}",
            f"serial-{trial}")
        serial_totals.append(total)
        serial_lats.extend(lats)

        total, lats, results, coalesce = _coalesced_total(
            context, serve_config, tmp_path / f"conc{trial}",
            f"conc-{trial}")
        conc_totals.append(total)
        conc_lats.extend(lats)

        # byte-identity: every client's reply matches a fresh,
        # cold in-process pipeline run of its own workload
        for c in range(N_CLIENTS):
            golden = build_service(context, serve_config)
            expected = [fs.to_payload() for _, fs in golden.iter_sources(
                _workload(c, f"conc-{trial}"))]
            identical = identical and results[c] == expected

    solo_window_ms = _solo_p50_ms(
        context, serve_config, tmp_path / "solo-win", 25.0, "solo-win")
    solo_nowindow_ms = _solo_p50_ms(
        context, serve_config, tmp_path / "solo-off", 0.0, "solo-off")

    serial_total_s = statistics.median(serial_totals)
    conc_total_s = statistics.median(conc_totals)
    return {
        "cpus": os.cpu_count(),
        "clients": N_CLIENTS,
        "files_per_client": 1,
        "trials": TRIALS,
        "transport": "tcp-loopback",
        "serialized_total_ms": round(serial_total_s * 1e3, 2),
        "coalesced_total_ms": round(conc_total_s * 1e3, 2),
        "serialized_request_p50_ms": round(
            statistics.median(serial_lats) * 1e3, 2),
        "coalesced_request_p50_ms": round(
            statistics.median(conc_lats) * 1e3, 2),
        "coalesced_request_p99_ms": round(
            max(conc_lats) * 1e3, 2),
        "throughput_speedup": round(serial_total_s / conc_total_s, 2)
        if conc_total_s else 0.0,
        "solo_p50_window_ms": round(solo_window_ms, 3),
        "solo_p50_nowindow_ms": round(solo_nowindow_ms, 3),
        # flush-on-idle: the batch window must not tax a lone client
        # (≈1.0; higher is better)
        "solo_window_speedup": round(
            solo_nowindow_ms / solo_window_ms, 3)
        if solo_window_ms else 0.0,
        "byte_identical": identical,
        "last_round_coalesce": coalesce,
    }


def test_concurrency(benchmark, context, tmp_path):
    build_service(context)      # train once, outside the measured body
    result = run_once(benchmark, _concurrency, context, tmp_path)
    path = write_bench_artifact("concurrency", result)
    print(f"\nconcurrency: {result['clients']} clients, coalesced "
          f"{result['coalesced_total_ms']}ms vs serialized "
          f"{result['serialized_total_ms']}ms "
          f"({result['throughput_speedup']}x), solo window speedup "
          f"{result['solo_window_speedup']}x -> {path}")

    assert result["clients"] >= 8
    assert result["byte_identical"]
    # the coalesced round actually coalesced (one round, many requests)
    assert result["last_round_coalesce"]["requests"] > \
        result["last_round_coalesce"]["rounds"]
    assert result["throughput_speedup"] >= REQUIRED_SPEEDUP
