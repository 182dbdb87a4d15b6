"""The ``serve-mixed`` workload: a warm daemon under mixed traffic.

Two closed-loop clients (each waits for its reply before sending the
next request, as ``suggest-dir --server`` and editor plugins do) send
one-file requests drawn by a seeded RNG.  Four in five are corpus files
the daemon's store already holds (the hit path: protocol, server loop,
one store read); one in five is a corpus file with a fresh salt comment,
which misses the store (single-file parse, five forwards over a few
graphs, one store write).

The untraced run drives a real ``repro serve`` subprocess.  Spans
cannot reach into it, so the traced run hosts ``SuggestServer`` in this
process with the same service config and store, and measures the same
traffic once untraced and once traced.
"""

from __future__ import annotations

import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import hostspeed

CLIENTS = 2
MISS_EVERY = 5            # one request in MISS_EVERY misses the store
#: at least ten latency samples lie beyond p99
MIN_REQUESTS = 1000
#: daemon starts per run; set-up time is their median
SETUP_STARTS = 3
#: every PING_EVERY-th request of a client is followed by a ping
PING_EVERY = 10
#: traffic segments per phase, each bracketed by host speed probes
SEGMENTS = 8


class Traffic:
    """Records of one traffic phase, ``(name, source, miss, latency_s,
    payload, error_code)`` per request, measured in segments; each
    segment is bracketed by host speed probes (:mod:`hostspeed`)."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        #: ``(first record index, wall seconds, host slowdown)``
        self.segments: list[tuple[int, float, float]] = []
        self._lock = threading.Lock()

    def add(self, record: tuple) -> None:
        with self._lock:
            self.records.append(record)

    @property
    def wall_s(self) -> float:
        return sum(wall for _, wall, _ in self.segments)

    def metrics(self, loops: int, normalize: bool = True) -> dict:
        """End-to-end traffic metrics, times at nominal host speed
        unless ``normalize`` is false."""
        ok: list[float] = []
        wall = 0.0
        bounds = [first for first, _, _ in self.segments[1:]]
        for (first, seg_wall, slowdown), end in zip(
                self.segments, bounds + [len(self.records)]):
            scale = slowdown if normalize else 1.0
            wall += seg_wall / scale
            ok += [r[3] / scale for r in self.records[first:end]
                   if r[5] is None and not check.is_failure(r[4])]
        ok.sort()
        return {
            "loops_per_s": loops / wall,
            "first_result_s": check.percentile(ok, 50),
            "req_per_s": len(ok) / wall,
            "req_p50_ms": check.percentile(ok, 50) * 1e3,
            "req_p99_ms": check.percentile(ok, 99) * 1e3,
        }


def _segment(clients, corpus, seed: int, tag: str, traffic: Traffic, *,
             seconds: float, quota: int, exact: bool) -> float:
    """One closed-loop segment: every client in its own thread sends
    ``quota`` requests, and keeps going until ``seconds`` have passed
    unless ``exact``.  Returns the segment's wall time."""
    from repro.client import ClientError

    def client_loop(k: int, client) -> None:
        rng = random.Random(f"{seed}:{tag}:{k}")
        deadline = time.perf_counter() + seconds
        sent = 0
        while sent < quota or (not exact
                               and time.perf_counter() < deadline):
            name, source = corpus[rng.randrange(len(corpus))]
            miss = rng.randrange(MISS_EVERY) == 0
            if miss:
                name = f"salt-{tag}{k}-{sent}-{name}"
                source = f"/* salt {seed} {tag}{k} {sent} */\n{source}"
            t0 = time.perf_counter()
            try:
                payload = client.suggest_sources([(name, source)])[0].to_payload()
                error = None
            except ClientError as exc:
                payload, error = None, exc.code
            traffic.add((name, source, miss, time.perf_counter() - t0,
                         payload, error))
            sent += 1
            if sent % PING_EVERY == 0:
                try:
                    client.ping()
                except ClientError:
                    pass        # the next request reconnects

    crashes: list[BaseException] = []

    def guarded(k: int, client) -> None:
        try:
            client_loop(k, client)
        except BaseException as exc:       # re-raised below
            crashes.append(exc)

    threads = [threading.Thread(target=guarded, args=(k, c))
               for k, c in enumerate(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if crashes:
        raise crashes[0]
    return wall


def drive(clients, corpus, seed: int, tag: str, *, seconds: float = 0.0,
          quotas: list[int] | None = None) -> Traffic:
    """Closed-loop traffic in :data:`SEGMENTS` segments.

    Each segment lasts ``seconds / SEGMENTS`` and every client sends at
    least its share of :data:`MIN_REQUESTS` in it; with ``quotas``,
    each client sends exactly ``quotas[i]`` requests in segment ``i``.
    """
    traffic = Traffic()
    probes = [hostspeed.probe()]
    share = -(-MIN_REQUESTS // (SEGMENTS * len(clients)))
    for i in range(SEGMENTS):
        first = len(traffic.records)
        wall = _segment(clients, corpus, seed, f"{tag}{i}-", traffic,
                        seconds=seconds / SEGMENTS,
                        quota=quotas[i] if quotas else share,
                        exact=quotas is not None)
        probes.append(hostspeed.probe())
        traffic.segments.append((first, wall, hostspeed.slowdown(probes[-2:])))
    return traffic


def quotas_of(traffic: Traffic, clients: int) -> list[int]:
    """Per-client request counts that replay ``traffic``'s segments."""
    ends = [first for first, _, _ in traffic.segments[1:]]
    ends.append(len(traffic.records))
    return [-(-(end - first) // clients)
            for (first, _, _), end in zip(traffic.segments, ends)]


def check_traffic(service, traffic: Traffic, corpus_ref: dict) -> dict:
    """Compare every reply with in-process ``iter_sources`` of the same
    (salted) file; client errors count as failed operations."""
    salted = [(name, source) for name, source, miss, *_ in traffic.records
              if miss]
    ref = dict(corpus_ref)
    ref.update(check.reference(service, salted, "suggest"))
    answered = [(r[0], r[4]) for r in traffic.records if r[5] is None]
    report = check.compare(answered, ref, "suggest", expect_all=False)
    report["failed"] += len(traffic.records) - len(answered)
    return report


def _vm_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class Daemon:
    """A ``repro serve`` subprocess this run owns."""

    def __init__(self, root: Path, run_dir: Path, bundle: Path,
                 name: str, env: dict) -> None:
        from repro.client import connect

        self.ready_file = run_dir / f"{name}.addr"
        self.log = open(run_dir / f"{name}.log", "wb")
        self.store = run_dir / f"{name}-store"
        probes = [hostspeed.probe()]
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--listen", "127.0.0.1:0", "--bundle", str(bundle),
             "--cache-dir", str(self.store), "--batch-size",
             str(check.BATCH_SIZE), "--ready-file", str(self.ready_file)],
            cwd=root, env=env, stdout=self.log, stderr=subprocess.STDOUT)
        self.clients = []
        try:
            address = self._wait_ready()
            self.clients = [connect(address, client_id=f"perfbench-{k}")
                            for k in range(CLIENTS)]
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - self.spawned
        probes.append(hostspeed.probe())
        self.slowdown = hostspeed.slowdown(probes)

    def _wait_ready(self, timeout: float = 120.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with "
                                   f"{self.proc.returncode}; see {self.log.name}")
            if self.ready_file.exists():
                address = self.ready_file.read_text().strip()
                if address:
                    return address
            time.sleep(0.002)
        raise RuntimeError("repro serve did not become ready")

    def peak_rss_mb(self) -> float:
        return _vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        for client in self.clients:
            client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def run(ctx) -> dict:
    """Untraced: a real daemon subprocess."""
    corpus = ctx.corpus
    setups: list[tuple[float, float]] = []
    daemon = None
    try:
        for attempt in range(SETUP_STARTS):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(ctx.root, ctx.run_dir, ctx.bundle_dir,
                            f"daemon{attempt}", ctx.env)
            setups.append((daemon.setup_s, daemon.slowdown))
        warm = daemon.clients[0].suggest_sources(corpus)
        traffic = drive(daemon.clients, corpus, ctx.seed, "t",
                        seconds=ctx.seconds)
        rss = (daemon.peak_rss_mb()
               + resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        if daemon is not None:
            daemon.stop()
    warm_report = check.compare([(fs.name, fs.to_payload()) for fs in warm],
                                ctx.reference, "suggest")
    report = check_traffic(ctx.service, traffic, ctx.reference)
    metrics = traffic.metrics(report["loops"])
    raw = traffic.metrics(report["loops"], normalize=False)
    metrics["setup_s"] = statistics.median(s / f for s, f in setups)
    raw["setup_s"] = statistics.median(s for s, _ in setups)
    metrics["peak_rss_mb"] = rss
    return {"metrics": metrics, "raw": raw,
            "reports": [warm_report, report],
            "attempted": 1 + len(traffic.records),
            "failed": bool(warm_report["failed"]) + report["failed"],
            "samples": len(traffic.records),
            "setup_samples": [s for s, _ in setups],
            "slowdown_samples": [f for *_, f in traffic.segments],
            "spans_ok": True}


def run_traced(ctx) -> dict:
    """Traced: the server in this process, the same traffic measured
    untraced and then traced."""
    import layers
    import spans
    from repro.artifacts import SuggesterBundle
    from repro.client import connect
    from repro.serve import ServeConfig, SuggestServer

    store = ctx.run_dir / "inproc-store"
    service = check.build(SuggesterBundle.load(ctx.bundle_dir),
                          cache_dir=store)
    server = SuggestServer(
        {"default": service}, host="127.0.0.1", port=0,
        serve_config=ServeConfig(workers=1, batch_size=check.BATCH_SIZE),
        cache_dir=store).start()
    clients = []
    try:
        clients = [connect(server.address, client_id=f"perfbench-{k}")
                   for k in range(CLIENTS)]
        warm = clients[0].suggest_sources(ctx.corpus)
        plain = drive(clients, ctx.corpus, ctx.seed, "u",
                      seconds=ctx.seconds / 2)
        tracer = spans.Tracer()
        before = layers.counters(service)
        patches = spans.install(tracer)
        try:
            traced = drive(clients, ctx.corpus, ctx.seed, "v",
                           quotas=quotas_of(plain, CLIENTS))
        finally:
            patches.undo()
        count = layers.delta(layers.counters(service), before)
    finally:
        for client in clients:
            client.close()
        server.shutdown()
    reports = [check.compare([(fs.name, fs.to_payload()) for fs in warm],
                             ctx.reference, "suggest")]
    reports += [check_traffic(ctx.service, t, ctx.reference)
                for t in (plain, traced)]
    metrics = layers.layer_metrics(tracer, count)
    nominal = [sum(w / f for _, w, f in t.segments) for t in (plain, traced)]
    metrics["trace.overhead_frac"] = nominal[1] / nominal[0] - 1.0
    return {"metrics": metrics, "reports": reports,
            "attempted": 1 + len(plain.records) + len(traced.records),
            "failed": (bool(reports[0]["failed"]) + reports[1]["failed"]
                       + reports[2]["failed"]),
            "samples": len(traced.records),
            "spans_ok": tracer.self_sum() <= traced.wall_s}
