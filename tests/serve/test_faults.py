"""Chaos suite: deterministic fault injection against the full stack.

Every scenario arms a seeded :class:`FaultPlan` through the
environment (so forked shard workers inherit it), injects a specific
failure — a SIGKILLed worker, a hung worker, a reproducibly lethal
input, a daemon killed mid-batch, an admission-queue storm — and
asserts the stack *recovers*: results stay byte-identical to the
fault-free run, lethal inputs end as quarantine records instead of
aborted runs, and clients complete their batches exactly once.
"""

import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.client import RetryPolicy, connect
from repro.serve import (
    REWRITE,
    Fault,
    FaultPlan,
    ServeConfig,
    SuggestionService,
    faults,
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


class _StubModel:
    """Picklable fingerprinted stub (crosses the worker fork)."""

    def __init__(self, value: int, name: str = "stub") -> None:
        self.value = value
        self.name = name

    def predict_samples(self, samples):
        return np.full(len(samples), self.value, dtype=int)

    def fingerprint(self) -> str:
        return f"stub:{self.name}:{self.value}"


def _service(**config) -> SuggestionService:
    return SuggestionService(
        _StubModel(1, "par"),
        {"reduction": _StubModel(1, "red"),
         "private": _StubModel(0, "priv")},
        ServeConfig(**config),
    )


def _corpus(n: int = 6, poison: str | None = None):
    named = [(f"f{i}.c",
              (GOOD_SOURCE if i % 2 else OTHER_SOURCE)
              .replace("100", str(100 + i)).replace("50", str(50 + i)))
             for i in range(n)]
    if poison:
        named.insert(n // 2, (poison, GOOD_SOURCE))
    return named


def _renders(results):
    return [(r.name, r.error, [s.render() for s in r.suggestions])
            for r in results]


@pytest.fixture
def arm(monkeypatch):
    """Arm a plan via the environment so worker processes inherit it
    regardless of the multiprocessing start method."""

    def _arm(*plan_faults, seed=0):
        plan = FaultPlan(tuple(plan_faults), seed=seed)
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        faults.reset()

    yield _arm
    faults.reset()          # monkeypatch restores the env var


class TestWorkerChaos:
    def test_sigkilled_worker_run_is_byte_identical(self, arm):
        named = _corpus(6)
        clean = _renders(list(_service().stream_sources(named)))
        # shard 0's worker dies the hard way after its first result
        arm(Fault("kill-worker", sid=0, after_files=1))
        survived = list(_service(
            heartbeat_s=5.0, retry_backoff_s=0.01,
        ).stream_sources(named, shards=2, ordered=True))
        assert _renders(survived) == clean

    def test_hung_worker_is_detected_by_heartbeat_timeout(self, arm):
        named = _corpus(6)
        clean = _renders(list(_service().stream_sources(named)))
        # the worker stops heartbeating and sleeps: only the
        # supervisor's heartbeat timeout can notice this one
        arm(Fault("hang-worker", sid=0, after_files=1))
        start = time.monotonic()
        survived = list(_service(
            heartbeat_s=1.0, retry_backoff_s=0.01,
        ).stream_sources(named, shards=2, ordered=True))
        elapsed = time.monotonic() - start
        assert _renders(survived) == clean
        # detected by silence, not by waiting out the hang
        assert elapsed < faults.HANG_S / 10

    def test_poison_file_is_quarantined_after_two_deaths(self, arm):
        named = _corpus(6, poison="poison.c")
        clean = {name: render for name, _, render in
                 _renders(list(_service().stream_sources(
                     [nv for nv in named if nv[0] != "poison.c"])))}
        # every worker that touches poison.c dies — batch first, then
        # its careful retry; two deaths pin the blame
        arm(Fault("poison-file", match="poison", times=8))
        results = list(_service(
            heartbeat_s=5.0, retry_backoff_s=0.01,
        ).stream_sources(named, shards=2, ordered=True))
        by_name = {r.name: r for r in results}
        assert len(results) == len(named)
        assert by_name["poison.c"].error is not None
        assert by_name["poison.c"].error.startswith("quarantined:")
        # every innocent file still gets its fault-free suggestions
        for name, render in clean.items():
            assert by_name[name].error is None
            assert [s.render() for s in by_name[name].suggestions] \
                == render

    def test_rewrites_survive_a_worker_kill_byte_identically(self, arm):
        named = _corpus(4)
        clean = [(r.name, r.error, r.rewritten_source)
                 for r in _service().stream_sources(named, job=REWRITE)]
        arm(Fault("kill-worker", sid=0, after_files=1))
        survived = list(_service(
            heartbeat_s=5.0, retry_backoff_s=0.01,
        ).stream_sources(named, shards=2, ordered=True, job=REWRITE))
        assert [(r.name, r.error, r.rewritten_source)
                for r in survived] == clean


_DAEMON_SCRIPT = textwrap.dedent("""
    import sys, time
    import numpy as np
    from repro.serve import SuggestServer, SuggestionService

    class Stub:
        def __init__(self, value, name, delay=0.0):
            self.value, self.name, self.delay = value, name, delay
        def predict_samples(self, samples):
            if self.delay:
                time.sleep(self.delay)
            return np.full(len(samples), self.value, dtype=int)
        def fingerprint(self):
            return f"stub:{self.name}:{self.value}"

    sock, ready, delay = sys.argv[1], sys.argv[2], float(sys.argv[3])
    service = SuggestionService(
        Stub(1, "par", delay),
        {"reduction": Stub(1, "red"), "private": Stub(0, "priv")})
    # round_files=1: each file computes in its own round, so replies
    # stream incrementally and a kill lands mid-batch
    srv = SuggestServer({"default": service}, unix_path=sock,
                        round_files=1).start()
    with open(ready, "w") as fh:
        fh.write(srv.address)
    while True:
        time.sleep(1)
""")


def _spawn_daemon(tmp_path: Path, sock: Path, delay_s: float,
                  timeout_s: float = 60.0) -> subprocess.Popen:
    script = tmp_path / "daemon.py"
    script.write_text(_DAEMON_SCRIPT)
    ready = tmp_path / f"ready-{os.urandom(4).hex()}"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, str(script), str(sock), str(ready),
         str(delay_s)], env=env)
    deadline = time.monotonic() + timeout_s
    while not ready.exists() or not ready.read_text():
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon died during startup (rc={proc.returncode})")
        if time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError("daemon did not become ready")
        time.sleep(0.05)
    return proc


class TestDaemonChaos:
    def test_daemon_sigkilled_mid_batch_client_completes(self, tmp_path):
        """A rolling restart from the client's chair: the daemon is
        SIGKILLed mid-stream, a replacement binds the same socket, and
        the retrying client finishes the batch exactly once."""
        sock = tmp_path / "serve.sock"
        named = [(f"f{i}.c", GOOD_SOURCE.replace("100", str(100 + i)))
                 for i in range(6)]
        first_daemon = _spawn_daemon(tmp_path, sock, delay_s=0.3)
        replacement = None
        client = None
        try:
            client = connect(
                f"unix:{sock}", timeout=30.0,
                retry=RetryPolicy(max_attempts=12, base_delay_s=0.05))
            stream = client.stream_sources(named, ordered=True)
            first = next(stream)
            assert first.name == "f0.c"
            # kill -9 the daemon mid-reply, then stand up its
            # replacement on the same socket before the client's
            # retries give up
            first_daemon.kill()
            first_daemon.wait(timeout=30)
            replacement = _spawn_daemon(tmp_path, sock, delay_s=0.0)
            rest = list(stream)
            names = [first.name] + [r.name for r in rest]
            # exactly once per file, in order, across the restart
            assert names == [name for name, _ in named]
            assert all(r.error is None for r in [first] + rest)
            assert all(r.suggestions for r in [first] + rest)
        finally:
            if client is not None:
                client.close()
            for proc in (first_daemon, replacement):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)

    def test_busy_storm_drains_without_duplicates(self):
        """Clients hammering a depth-1 admission queue: every 'busy'
        refusal is absorbed by the RetryPolicy and every client ends
        with exactly its own files."""
        from repro.serve import SuggestServer

        slow = SuggestionService(
            _StubModel(1, "par"),
            {"reduction": _StubModel(1, "red")},
        )
        with SuggestServer({"default": slow},
                           queue_depth=1).start() as srv:
            outcomes: dict[int, list | Exception] = {}

            def one_client(cid: int) -> None:
                named = [(f"c{cid}-f{i}.c",
                          GOOD_SOURCE.replace("100", str(100 + cid)))
                         for i in range(3)]
                try:
                    with connect(srv.address,
                                 retry=RetryPolicy(
                                     max_attempts=40,
                                     base_delay_s=0.01,
                                     seed=cid)) as client:
                        outcomes[cid] = client.suggest_sources(named)
                except Exception as exc:      # noqa: BLE001
                    outcomes[cid] = exc

            threads = [threading.Thread(target=one_client, args=(cid,))
                       for cid in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        for cid in range(6):
            result = outcomes.get(cid)
            assert isinstance(result, list), f"client {cid}: {result!r}"
            assert [r.name for r in result] == \
                [f"c{cid}-f{i}.c" for i in range(3)]


class TestPlanMechanics:
    def test_plan_round_trips_through_env(self):
        plan = FaultPlan((Fault("kill-worker", sid=2, after_files=3),
                          Fault("tear-entry", match="suggest")),
                         seed=11)
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert faults.ENV_VAR in plan.env()

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("explode-in-a-new-way")

    def test_times_bounds_firings(self):
        faults.activate(FaultPlan((
            Fault("poison-file", match="x.c", times=2),)))
        try:
            fired = [faults.on_worker_file(0, i, "x.c") is not None
                     for i in range(4)]
        finally:
            faults.reset()
        assert fired == [True, True, False, False]

    def test_times_bounds_firings_across_threads(self):
        """Fabric relays are threads sharing one plan's counters: no
        race may let a fault fire more than ``times``."""
        # every fault's last firing is a check-then-act race to lose
        faults.activate(FaultPlan(tuple(
            Fault("poison-file", match="x.c") for _ in range(400))))
        fired = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: fired.extend(
                faults.on_worker_file(0, i, "x.c") for i in range(100)))
                for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
            faults.reset()
        assert len(fired) == 800
        assert sum(action is not None for action in fired) == 400

    def test_inactive_hooks_are_inert(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        faults.reset()
        assert faults.on_worker_file(0, 0, "a.c") is None
        assert faults.on_store_write("/any/path.json") is None
        faults.on_bundle_load("/any/bundle")     # no raise
        assert faults.active() is False

    def test_jitter_is_deterministic_and_bounded(self):
        plan = FaultPlan(seed=3)
        values = [plan.jitter(f"k{i}") for i in range(8)]
        assert values == [plan.jitter(f"k{i}") for i in range(8)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) == len(values)
