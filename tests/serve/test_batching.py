"""Tests for cross-client micro-batching and admission control.

The async server coalesces concurrent requests from different clients
into one block-diagonal forward; these tests pin down the admission
edges: a full queue answers ``busy``, a lone client never waits out
the batch window (flush-on-idle), a slow client can't hold up a
coalesced round for others, and one bulk request can't starve
interactive ones (round-robin fairness quantum).
"""

import threading
import time

import numpy as np
import pytest

from repro.client import ClientError, connect
from repro.serve import SuggestionService, SuggestServer, protocol
from repro.serve.pipeline import FileSuggestions

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


def _variant(i: int) -> str:
    """A distinct source per index (defeats content-level dedup)."""
    return GOOD_SOURCE + f"/* variant {i} */\n"


class _StubModel:
    """Picklable fingerprinted stub following the suggester contract."""

    def __init__(self, value: int, name: str = "stub") -> None:
        self.value = value
        self.name = name

    def predict_samples(self, samples):
        return np.full(len(samples), self.value, dtype=int)

    def fingerprint(self) -> str:
        return f"stub:{self.name}:{self.value}"


class _GatedModel(_StubModel):
    """Stub whose first forward blocks until the test opens the gate.

    Lets a test hold one compute round in flight deterministically:
    ``started`` is set when the round reaches the model, ``gate``
    releases it.  Later forwards pass straight through.
    """

    def __init__(self) -> None:
        super().__init__(1, "gated")
        self.started = threading.Event()
        self.gate = threading.Event()
        self._first = True

    def predict_samples(self, samples):
        if self._first:
            self._first = False
            self.started.set()
            assert self.gate.wait(timeout=30), "test never opened the gate"
        return super().predict_samples(samples)


def _service(model=None, store=None) -> SuggestionService:
    return SuggestionService(
        model if model is not None else _StubModel(1),
        {"reduction": _StubModel(0, "red")},
        store=store,
    )


class TestIterJoint:
    """The pipeline-level coalescing primitive, no sockets involved."""

    def test_matches_per_workload_results(self):
        workloads = [
            ("req-a", [("a.c", GOOD_SOURCE), ("b.c", OTHER_SOURCE)]),
            ("req-b", [("c.c", OTHER_SOURCE), ("d.c", _variant(1))]),
            # 80 loops: the joint pass spans several rounds
            ("req-c", [(f"v{i}.c", _variant(i)) for i in range(2, 42)]),
        ]
        joint: dict = {}
        for tag, i, fs in _service().iter_joint(workloads):
            joint.setdefault(tag, {})[i] = fs.to_payload()
        for tag, named in workloads:
            solo = _service()      # fresh service: no shared warmth
            expected = {i: fs.to_payload()
                        for i, fs in solo.iter_sources(named)}
            assert joint[tag] == expected

    def test_shared_content_forwards_once(self):
        service = _service()
        workloads = [
            ("req-a", [("a.c", GOOD_SOURCE)]),
            ("req-b", [("the-same-file.c", GOOD_SOURCE)]),
        ]
        results = {tag: fs for tag, _, fs in service.iter_joint(workloads)}
        stats = service.cache_stats()
        # one distinct source: one forward per model, not per client
        assert stats["forwards"]["calls"] == 2      # 2 models, once each
        assert stats["coalesce"] == {
            "rounds": 1, "requests": 2, "deduped_files": 1}
        # each subscriber sees its own name on identical suggestions
        assert results["req-a"].name == "a.c"
        assert results["req-b"].name == "the-same-file.c"
        assert (results["req-a"].suggestions
                == results["req-b"].suggestions)

    def test_single_workload_matches_iter_sources(self):
        named = [("a.c", GOOD_SOURCE), ("b.c", OTHER_SOURCE)]
        joint = {i: fs.to_payload() for _, i, fs
                 in _service().iter_joint([("only", named)])}
        solo = {i: fs.to_payload()
                for i, fs in _service().iter_sources(named)}
        assert joint == solo

    def test_renamed_result_preserves_error_field(self):
        bad = "void broken(void) { for (i = 0; i < ; }"
        service = _service()
        out = {tag: fs for tag, _, fs in service.iter_joint([
            ("req-a", [("x.c", bad)]),
            ("req-b", [("y.c", bad)]),
        ])}
        assert isinstance(out["req-b"], FileSuggestions)
        assert out["req-a"].error == out["req-b"].error
        assert out["req-a"].error is not None


class TestAdmissionControl:
    def test_queue_full_answers_busy(self):
        """queue_depth=1 + one round held in compute: the first extra
        request queues, the next is refused with ``busy`` — and the
        refused client can retry on the same connection."""
        model = _GatedModel()
        srv = SuggestServer({"default": _service(model)},
                            queue_depth=1, batch_window_ms=0.0).start()
        results: dict = {}
        try:
            with srv, connect(srv.address) as blocked, \
                    connect(srv.address) as queued, \
                    connect(srv.address) as refused:
                def run(name, client, source):
                    results[name] = client.suggest_sources(
                        [(name + ".c", source)])

                t_blocked = threading.Thread(
                    target=run, args=("blocked", blocked, GOOD_SOURCE))
                t_blocked.start()
                assert model.started.wait(timeout=30)
                # compute is now held; this one occupies the queue
                t_queued = threading.Thread(
                    target=run, args=("queued", queued, _variant(1)))
                t_queued.start()
                # wait until the queued request actually occupies the
                # admission queue, then the next arrival must bounce
                deadline = time.monotonic() + 30
                lane = srv._lanes["default"]
                while (not lane.queue
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                assert lane.queue, "queued request never admitted"
                with pytest.raises(ClientError) as excinfo:
                    run("refused", refused, _variant(2))
                assert excinfo.value.code == "busy"
                model.gate.set()
                t_blocked.join(timeout=30)
                t_queued.join(timeout=30)
                # same connection, after backoff: served normally
                run("retried", refused, _variant(2))
        finally:
            model.gate.set()
        assert results["blocked"][0].error is None
        assert results["queued"][0].error is None
        assert results["retried"][0].error is None

    def test_single_client_flushes_immediately(self):
        """Flush-on-idle: with one connected client a huge batch
        window is skipped entirely — single-client latency must not
        regress behind coalescing."""
        srv = SuggestServer({"default": _service()},
                            batch_window_ms=30_000.0).start()
        with srv, connect(srv.address) as client:
            t0 = time.monotonic()
            out = client.suggest_sources([("a.c", GOOD_SOURCE)])
            elapsed = time.monotonic() - t0
        assert out[0].error is None
        assert elapsed < 5.0        # nowhere near the 30s window

    def test_window_coalesces_concurrent_clients(self):
        """Two clients firing inside the batch window share one
        compute round (one coalesced pipeline pass)."""
        service = _service()
        srv = SuggestServer({"default": service},
                            batch_window_ms=500.0).start()
        with srv, connect(srv.address) as one, \
                connect(srv.address) as two:
            results: dict = {}

            def run(name, client, source):
                results[name] = client.suggest_sources(
                    [(name + ".c", source)])

            threads = [
                threading.Thread(target=run,
                                 args=("one", one, GOOD_SOURCE)),
                threading.Thread(target=run,
                                 args=("two", two, OTHER_SOURCE)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            stats = service.cache_stats()
        assert results["one"][0].error is None
        assert results["two"][0].error is None
        assert stats["coalesce"]["rounds"] == 1
        assert stats["coalesce"]["requests"] == 2

    def test_slow_client_does_not_block_the_round(self):
        """A client that joins a coalesced round and then never reads
        its replies delays only itself: replies are queued per
        connection, so the other participants finish promptly."""
        srv = SuggestServer({"default": _service()},
                            batch_window_ms=200.0).start()
        with srv, connect(srv.address) as slow, \
                connect(srv.address) as fast:
            # the slow client fires a streaming request and walks away
            # from the socket — no reads while others work
            slow._request(protocol.SuggestRequest(
                sources=tuple((f"s{i}.c", _variant(10 + i))
                              for i in range(3))))
            t0 = time.monotonic()
            for i in range(5):
                out = fast.suggest_sources([(f"f{i}.c", _variant(i))])
                assert out[0].error is None
            assert time.monotonic() - t0 < 10.0
            # the abandoned reply is still queued, intact: the next
            # request on the slow connection drains it and works
            out = slow.suggest_sources([("later.c", OTHER_SOURCE)])
            assert [fs.name for fs in out] == ["later.c"]
            assert out[0].error is None

    def test_bulk_client_does_not_starve_interactive(self):
        """Round-robin fairness: an interactive one-file request
        admitted while a 40-file bulk request is mid-flight joins the
        very next round and finishes long before the bulk does."""
        model = _GatedModel()
        srv = SuggestServer({"default": _service(model)},
                            batch_window_ms=0.0, round_files=4).start()
        done_at: dict = {}
        try:
            with srv, connect(srv.address) as bulk_client, \
                    connect(srv.address) as interactive:
                bulk = [(f"bulk{i}.c", _variant(i)) for i in range(40)]

                def run_bulk():
                    out = bulk_client.suggest_sources(bulk)
                    done_at["bulk"] = time.monotonic()
                    done_at["bulk_ok"] = all(fs.error is None
                                             for fs in out)

                t = threading.Thread(target=run_bulk)
                t.start()
                # first round (4 bulk files) is now held at the gate;
                # the interactive request queues behind it
                assert model.started.wait(timeout=30)

                def run_interactive():
                    out = interactive.suggest_sources(
                        [("tiny.c", GOOD_SOURCE)])
                    done_at["interactive"] = time.monotonic()
                    done_at["interactive_ok"] = out[0].error is None

                t2 = threading.Thread(target=run_interactive)
                t2.start()
                time.sleep(0.1)     # let the request reach the lane
                model.gate.set()
                t2.join(timeout=30)
                t.join(timeout=30)
        finally:
            model.gate.set()
        assert done_at["bulk_ok"] and done_at["interactive_ok"]
        assert done_at["interactive"] < done_at["bulk"]

    def test_ordered_stream_across_chunked_rounds(self):
        """round_files smaller than the request: results span several
        compute rounds but still stream back in input order."""
        srv = SuggestServer({"default": _service()},
                            batch_window_ms=0.0, round_files=2).start()
        named = [(f"f{i}.c", _variant(i)) for i in range(7)]
        with srv, connect(srv.address) as client:
            out = list(client.stream_sources(named))
        assert [fs.name for fs in out] == [name for name, _ in named]
        assert all(fs.error is None for fs in out)

    def test_coalesced_results_byte_identical_to_solo(self):
        """Four clients coalescing through one window receive exactly
        what a fresh in-process pipeline computes for their request."""
        service = _service()
        srv = SuggestServer({"default": service},
                            batch_window_ms=300.0).start()
        workloads = {
            f"client{c}": [(f"c{c}f{i}.c", _variant((c * 3 + i) % 5))
                           for i in range(3)]
            for c in range(4)
        }
        results: dict = {}
        with srv:
            def run(name):
                with connect(srv.address) as client:
                    results[name] = [
                        fs.to_payload() for fs in
                        client.suggest_sources(workloads[name])]

            threads = [threading.Thread(target=run, args=(name,))
                       for name in workloads]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        for name, named in workloads.items():
            golden = _service()     # cold: no store, no coalescing
            expected = [fs.to_payload() for _, fs
                        in sorted(golden.iter_sources(named))]
            got = results[name]
            assert got == expected, f"{name} diverged from solo run"
