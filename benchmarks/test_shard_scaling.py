"""Bench: end-to-end corpus sharding + streaming vs the batch path.

``stream_sources(shards=N)`` runs the whole parse → encode → forward →
fan-out pipeline inside N worker processes and streams per-file results
back as they complete.  Two claims are measured on a synthetic corpus:

- *scaling*: with ≥2 cores, 2 shards must finish the corpus at least
  ``REQUIRED_SPEEDUP``× faster than the single-process batch path
  (the pipeline is CPU-bound pure python, so wall clock tracks the
  slowest shard);
- *latency*: the first streamed file must arrive before the full batch
  path would have delivered anything at all — streaming consumers
  start reading suggestions while later shards are still parsing.

Suggestions must be byte-identical across both paths, always.  On a
single-core runner the two timing assertions are skipped (forking
workers cannot beat the batch path without a second core), but the
``BENCH_shard_scaling.json`` trajectory artifact is emitted either way.
"""

import os
import time

from conftest import read_dir, run_once, write_bench_artifact

from repro.dataset.corpus import CorpusGenerator
from repro.serve import ServeConfig, build_service

REQUIRED_SPEEDUP = 1.5
MIN_FILES = 12
SHARDS = 2


def _write_corpus(directory) -> int:
    # large enough that per-shard compute dwarfs worker startup: the
    # 2-shard ratio on CI runners must reflect the pipeline, not fork
    # overhead and scheduler noise
    _, files = CorpusGenerator(seed=29).generate(scale=0.012)
    for f in files:
        (directory / f"file_{f.file_id}.c").write_text(f.source)
    return len(files)


def _renders(results):
    return [(fs.name, fs.error, [s.render() for s in fs.suggestions])
            for fs in results]


def _shard_vs_batch(context, tmp_path) -> dict:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    n_files = _write_corpus(corpus)
    serve_config = ServeConfig(workers=1, batch_size=512)

    # models come pre-trained from the shared context; workers inherit
    # them through the process spawn, so both sides measure only the
    # serving pipeline — best-of-2 per side for a stable CI ratio
    batch_s, batch_results = float("inf"), None
    for _ in range(2):
        service = build_service(context, serve_config)
        start = time.perf_counter()
        results = list(service.stream_sources(read_dir(corpus)))
        elapsed = time.perf_counter() - start
        if elapsed < batch_s:
            batch_s, batch_results = elapsed, results

    shard_s, first_s, shard_results = float("inf"), float("inf"), None
    for _ in range(2):
        service = build_service(context, serve_config)
        start = time.perf_counter()
        results, first = [], None
        for fs in service.stream_sources(read_dir(corpus), ordered=False,
                                         shards=SHARDS):
            if first is None:
                first = time.perf_counter() - start
            results.append(fs)
        elapsed = time.perf_counter() - start
        if elapsed < shard_s:
            shard_s, first_s, shard_results = elapsed, first, results

    identical = sorted(_renders(shard_results)) == \
        sorted(_renders(batch_results))
    n_loops = sum(len(fs.suggestions) for fs in batch_results)
    return {
        "files": n_files,
        "loops": n_loops,
        "cpus": os.cpu_count(),
        "shards": SHARDS,
        "batch_s": round(batch_s, 4),
        "sharded_s": round(shard_s, 4),
        "speedup": round(batch_s / shard_s, 2) if shard_s else 0.0,
        "first_result_s": round(first_s, 4),
        "first_vs_batch": round(first_s / batch_s, 3) if batch_s else 0.0,
        "identical": identical,
    }


def test_shard_scaling(benchmark, context, tmp_path):
    build_service(context)      # train once, outside the measured body
    result = run_once(benchmark, _shard_vs_batch, context, tmp_path)
    path = write_bench_artifact("shard_scaling", result)
    print(f"\nshard scaling: {result['files']} files / {result['loops']} "
          f"loops, batch {result['batch_s']}s vs {result['shards']} shards "
          f"{result['sharded_s']}s ({result['speedup']}x, first result at "
          f"{result['first_result_s']}s, {result['cpus']} cpus) -> {path}")

    assert result["files"] >= MIN_FILES
    # grounding: sharding must not change a single byte
    assert result["identical"]
    if (os.cpu_count() or 1) >= 2:
        # the whole point: two shards beat one process...
        assert result["speedup"] >= REQUIRED_SPEEDUP
        # ...and the first streamed file lands before the batch path
        # would have returned at all
        assert result["first_result_s"] < result["batch_s"]
