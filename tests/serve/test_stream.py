"""Tests for end-to-end sharded, streaming serving.

The contract of the new serving spine: any shard count and either
ordering produce byte-identical suggestions to the single-process
batch path; results stream as files complete; shard workers share the
persistent store; and a worker death is *survived* — the supervisor
respawns, retries in careful mode, and quarantines reproducibly
lethal inputs as per-file error records — while a worker *exception*
still surfaces as a clean :class:`ServeError` with its traceback.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve import (
    FileSuggestions,
    ServeConfig,
    ServeError,
    SuggestionService,
    SuggestionStore,
    WorkerSpec,
    _blas,
    merge_results,
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

BAD_SOURCE = "void broken(void) { for (i = 0; i < ; }"


def _read_dir(directory):
    """Every ``*.c`` file under ``directory`` as sorted ``(name, source)``
    pairs — the corpus ``repro suggest-dir`` reads."""
    return [(str(p), p.read_text()) for p in sorted(Path(directory).rglob("*.c"))]


class _StubModel:
    """Picklable predict_samples stub (workers rebuild the service
    from it, so it must cross the process boundary)."""

    def __init__(self, value: int, name: str = "stub") -> None:
        self.value = value
        self.name = name

    def predict_samples(self, samples):
        return np.full(len(samples), self.value, dtype=int)

    def fingerprint(self) -> str:
        return f"stub:{self.name}:{self.value}"


class _CrashingModel(_StubModel):
    """Kills its process mid-forward: the hard-death case (segfault,
    OOM-kill) that must not hang the stream."""

    def predict_samples(self, samples):
        os._exit(3)


class _RaisingModel(_StubModel):
    """Raises mid-forward: the soft-failure case whose traceback must
    travel back to the consumer."""

    def predict_samples(self, samples):
        raise RuntimeError("clause model exploded")


def _service(parallel=None, store=None, **config):
    parallel = parallel or _StubModel(1, "par")
    clauses = {"reduction": _StubModel(1, "red"),
               "private": _StubModel(0, "priv")}
    return SuggestionService(parallel, clauses, ServeConfig(**config),
                             store=store)


def _corpus(n: int = 6):
    sources = [GOOD_SOURCE, OTHER_SOURCE, BAD_SOURCE]
    return [(f"f{i}.c", sources[i % len(sources)].replace("100", str(100 + i)))
            for i in range(n)]


def _renders(results):
    return [(r.name, r.error, [s.render() for s in r.suggestions])
            for r in results]


class TestStreamingEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_ordered_matches_batch(self, shards):
        named = _corpus(7)
        batch = list(_service().stream_sources(named))
        streamed = list(_service().stream_sources(named, ordered=True,
                                                  shards=shards))
        assert _renders(streamed) == _renders(batch)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_as_completed_is_a_permutation_of_ordered(self, shards):
        named = _corpus(6)
        ordered = list(_service().stream_sources(named, ordered=True,
                                                 shards=shards))
        completed = list(_service().stream_sources(named, ordered=False,
                                                   shards=shards))
        assert sorted(_renders(completed)) == sorted(_renders(ordered))
        assert [r.name for r in ordered] == [name for name, _ in named]

    def test_suggest_dir_is_collected_stream(self, tmp_path):
        for name, source in _corpus(4):
            (tmp_path / name).write_text(source)
        service = _service(shards=2)
        collected = list(service.stream_sources(_read_dir(tmp_path)))
        streamed = list(_service(shards=2).stream_sources(_read_dir(tmp_path)))
        assert _renders(streamed) == _renders(collected)

    def test_config_shards_used_by_default(self):
        named = _corpus(4)
        batch = list(_service().stream_sources(named))
        via_config = list(_service(shards=2).stream_sources(named))
        assert _renders(via_config) == _renders(batch)

    def test_shards_compose_with_parse_workers(self):
        # daemonic shard workers cannot host a nested parse pool; the
        # spec must strip config.workers instead of crashing the shard
        named = _corpus(6)
        batch = list(_service().stream_sources(named))
        combined = list(_service(workers=2).stream_sources(
            named, ordered=True, shards=2,
        ))
        assert _renders(combined) == _renders(batch)


class TestSharedStore:
    def test_shard_workers_commit_to_shared_store(self, tmp_path):
        named = _corpus(6)
        cold = _service(store=SuggestionStore(tmp_path / "cache"))
        cold_results = list(cold.stream_sources(named, shards=3))
        stats = cold.cache_stats()
        # parent absorbed the workers' counters: every lookup reached
        # it.  _corpus repeats content across workers, so whichever
        # worker commits a shared file first can turn the other's
        # lookup into a hit — count lookups, not misses.
        assert (stats["store"]["suggest_misses"]
                + stats["store"]["suggest_hits"]) == len(named)
        assert stats["forwards"]["graphs"] > 0

        warm = _service(store=SuggestionStore(tmp_path / "cache"))
        warm_results = list(warm.stream_sources(named, shards=3))
        warm_stats = warm.cache_stats()
        assert warm_stats["forwards"] == {"calls": 0, "graphs": 0}
        assert warm_stats["store"]["suggest_hits"] == len(named)
        assert _renders(warm_results) == _renders(cold_results)

    def test_single_shard_warm_after_sharded_cold(self, tmp_path):
        named = _corpus(5)
        cold = _service(store=SuggestionStore(tmp_path / "cache"))
        cold_results = list(cold.stream_sources(named, shards=2))
        warm = _service(store=SuggestionStore(tmp_path / "cache"))
        warm_results = list(warm.stream_sources(named))
        assert warm.cache_stats()["forwards"] == {"calls": 0, "graphs": 0}
        assert _renders(warm_results) == _renders(cold_results)


class TestWorkerFailure:
    def test_crashed_workers_quarantine_instead_of_aborting(self):
        # a model that kills every process it runs in is the worst
        # case: every retry dies too.  The supervisor must converge —
        # blame the inputs, quarantine them as per-file error records,
        # and complete the run with every file accounted for.
        named = _corpus(6)
        service = _service(parallel=_CrashingModel(1, "crash"),
                           retry_backoff_s=0.01)
        start = time.monotonic()
        results = list(service.stream_sources(named, shards=2,
                                              ordered=True))
        # bounded: retries are capped, not a queue.get() that never
        # returns nor an unbounded respawn loop
        assert time.monotonic() - start < 60
        assert [r.name for r in results] == [name for name, _ in named]
        assert all(r.error is not None for r in results)
        structured = [r for r in results
                      if r.error.startswith(("quarantined:",
                                             "worker-retry:"))]
        # files with loops to forward crash their workers and end
        # quarantined (or retry-exhausted); pure parse errors may
        # surface as-is from a careful worker that never forwards
        assert structured

    def test_retry_budget_zero_fails_fast_with_error_records(self):
        named = _corpus(4)
        service = _service(parallel=_CrashingModel(1, "crash"),
                           max_retries=0, retry_backoff_s=0.0)
        results = list(service.stream_sources(named, shards=2))
        assert len(results) == len(named)
        assert all(r.error is not None
                   and r.error.startswith("worker-retry:")
                   for r in results)

    def test_worker_exception_travels_back(self):
        named = _corpus(4)
        service = _service(parallel=_RaisingModel(1, "boom"))
        with pytest.raises(ServeError, match="clause model exploded"):
            list(service.stream_sources(named, shards=2))

    def test_spec_without_source_is_an_error(self):
        with pytest.raises(ValueError, match="no models"):
            WorkerSpec(config=ServeConfig()).build_service()


class _BlasProbeModel(_StubModel):
    """Records, per process it predicts in, the OpenBLAS thread count."""

    def __init__(self, value: int, name: str, out_dir) -> None:
        super().__init__(value, name)
        self.out_dir = str(out_dir)

    def predict_samples(self, samples):
        Path(self.out_dir, str(os.getpid())).write_text(str(_blas.threads()))
        return super().predict_samples(samples)


class TestWorkerBlas:
    def test_shard_workers_run_one_blas_thread(self, tmp_path):
        before = _blas.threads()
        if before is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS the helper finds")
        service = _service(parallel=_BlasProbeModel(1, "probe", tmp_path))
        list(service.stream_sources(_corpus(4), shards=2))
        seen = {int(p.name): p.read_text() for p in tmp_path.iterdir()}
        assert seen and os.getpid() not in seen
        assert set(seen.values()) == {"1"}
        # the pin is the worker's own: the parent's pool is untouched
        assert _blas.threads() == before


class TestMergeResults:
    def _tagged(self, order):
        return [(i, FileSuggestions(name=f"f{i}.c")) for i in order]

    def test_ordered_buffers_out_of_order_arrivals(self):
        merged = list(merge_results(iter(self._tagged([2, 0, 3, 1])),
                                    ordered=True))
        assert [fs.name for fs in merged] == \
            ["f0.c", "f1.c", "f2.c", "f3.c"]

    def test_as_completed_passes_through(self):
        merged = list(merge_results(iter(self._tagged([2, 0, 1])),
                                    ordered=False))
        assert [fs.name for fs in merged] == ["f2.c", "f0.c", "f1.c"]

    def test_ordered_flushes_trailing_gap(self):
        # index 0 never arrives (upstream bug): remaining results still
        # come out, in index order
        merged = list(merge_results(iter(self._tagged([2, 1])),
                                    ordered=True))
        assert [fs.name for fs in merged] == ["f1.c", "f2.c"]
