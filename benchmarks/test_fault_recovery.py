"""Bench: cost of surviving a SIGKILLed shard worker mid-corpus.

A 2-shard streaming run is measured twice over the same synthetic
corpus: fault-free, and with a deterministic
:class:`~repro.serve.faults.FaultPlan` that SIGKILLs shard 0's worker
after its first file.  The supervisor detects the death, respawns the
shard in careful mode, and re-serves only the unfinished files — so
the faulted run must stay byte-identical (recovery re-forks one worker
and replays the killed shard's remainder; it never redoes completed
work or aborts the run).

Headline metric: ``recovery_efficiency = clean_s / faulted_s`` — the
fraction of fault-free throughput retained under a worker kill
(higher is better, 1.0 would mean a free recovery), emitted to
``BENCH_faults.json``.  It is a wall-clock ratio, so
``check_regression.py`` gates it rather than an assert here.
"""

import os
import time

from conftest import read_dir, run_once, write_bench_artifact

from repro.dataset.corpus import CorpusGenerator
from repro.serve import Fault, FaultPlan, ServeConfig, build_service, faults

MIN_FILES = 8
SHARDS = 2


def _write_corpus(directory) -> int:
    # big enough that recovery cost (one respawn + replaying the killed
    # shard's remainder) is measured against real pipeline work, not
    # against fork overhead alone
    _, files = CorpusGenerator(seed=31).generate(scale=0.008)
    for f in files:
        (directory / f"file_{f.file_id}.c").write_text(f.source)
    return len(files)


def _renders(results):
    return [(fs.name, fs.error, [s.render() for s in fs.suggestions])
            for fs in results]


def _timed_stream(context, corpus) -> tuple[float, list]:
    config = ServeConfig(batch_size=512,
                         heartbeat_s=5.0, retry_backoff_s=0.01)
    best_s, best_results = float("inf"), None
    for _ in range(2):
        service = build_service(context, config)
        start = time.perf_counter()
        results = list(service.stream_sources(read_dir(corpus),
                                              ordered=True, shards=SHARDS))
        elapsed = time.perf_counter() - start
        if elapsed < best_s:
            best_s, best_results = elapsed, results
    return best_s, best_results


def _clean_vs_faulted(context, tmp_path) -> dict:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    n_files = _write_corpus(corpus)

    clean_s, clean_results = _timed_stream(context, corpus)

    # armed through the environment so forked shard workers inherit it;
    # the respawned careful shard gets a fresh sid, so the kill fires
    # exactly once per run
    plan = FaultPlan((Fault("kill-worker", sid=0, after_files=1),))
    os.environ[faults.ENV_VAR] = plan.to_json()
    faults.reset()
    try:
        faulted_s, faulted_results = _timed_stream(context, corpus)
    finally:
        del os.environ[faults.ENV_VAR]
        faults.reset()

    return {
        "files": n_files,
        "cpus": os.cpu_count(),
        "shards": SHARDS,
        "clean_s": round(clean_s, 4),
        "faulted_s": round(faulted_s, 4),
        "recovery_overhead": round(faulted_s / clean_s, 3)
        if clean_s else 0.0,
        "recovery_efficiency": round(clean_s / faulted_s, 3)
        if faulted_s else 0.0,
        "identical": _renders(faulted_results) == _renders(clean_results),
    }


def test_fault_recovery(benchmark, context, tmp_path):
    build_service(context)      # train once, outside the measured body
    result = run_once(benchmark, _clean_vs_faulted, context, tmp_path)
    path = write_bench_artifact("faults", result)
    print(f"\nfault recovery: {result['files']} files, clean "
          f"{result['clean_s']}s vs killed-worker {result['faulted_s']}s "
          f"({result['recovery_overhead']}x overhead, efficiency "
          f"{result['recovery_efficiency']}, {result['cpus']} cpus) "
          f"-> {path}")

    assert result["files"] >= MIN_FILES
    # grounding: a worker kill must not change a single byte
    assert result["identical"]
