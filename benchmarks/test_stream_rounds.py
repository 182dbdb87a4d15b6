"""Bench: how soon a cold in-process pass streams its first file.

``SuggestionService.iter_sources`` serves a corpus in rounds: the first
holds ``FIRST_ROUND_LOOPS`` loops and each later one twice as many, up
to ``batch_size``, and a round's files are yielded before the next
round is parsed.  So the first file costs one small round while the
whole pass grows with the corpus.  ``CorpusGenerator(seed=29)`` at
scales 0.012 and 0.06 (about 100 and 500 files) is served through
``stream_sources(ordered=False)`` in three cold passes per scale, each
with a fresh service and an empty dependence-analysis memo, and the
medians land in ``BENCH_rounds.json``:

- ``first_result_s``: when the first file arrives;
- ``wall_s``: when the last one does.

The headline ``stream_ratio`` is ``wall_s / first_result_s`` at scale
0.06: about 1 when nothing streams before the pass ends.  It is a
wall-clock ratio, so ``check_regression.py`` gates it against a
baseline; here only the pass's contract is asserted (every file is
answered exactly once, and both scales serve the same loops on every
pass).
"""

import os
import statistics
import time

from conftest import run_once, write_bench_artifact

from repro.dataset.corpus import CorpusGenerator
from repro.serve import ServeConfig, build_service
from repro.serve.pipeline import FIRST_ROUND_LOOPS
from repro.tools import deps

SCALES = (0.012, 0.06)
PASSES = 3
BATCH_SIZE = 512


def _corpus(scale: float) -> list[tuple[str, str]]:
    _, files = CorpusGenerator(seed=29).generate(scale=scale)
    return [(f"file_{f.file_id}.c", f.source) for f in files]


def _cold_pass(context, named) -> dict:
    deps.clear_cache()
    service = build_service(context, ServeConfig(batch_size=BATCH_SIZE))
    start = time.perf_counter()
    first, names, loops = None, [], 0
    for fs in service.stream_sources(named, ordered=False):
        if first is None:
            first = time.perf_counter() - start
        names.append(fs.name)
        loops += len(fs.suggestions)
    return {"first_result_s": first,
            "wall_s": time.perf_counter() - start,
            "names": names, "loops": loops}


def _measure(context) -> dict:
    by_scale = {}
    for scale in SCALES:
        named = _corpus(scale)
        passes = [_cold_pass(context, named) for _ in range(PASSES)]
        by_scale[str(scale)] = {
            "files": len(named),
            "loops": passes[0]["loops"],
            "first_result_s": round(statistics.median(
                p["first_result_s"] for p in passes), 4),
            "wall_s": round(statistics.median(
                p["wall_s"] for p in passes), 4),
            "every_file_once": all(
                sorted(p["names"]) == sorted(n for n, _ in named)
                for p in passes),
            "same_loops": len({p["loops"] for p in passes}) == 1,
        }
    largest = by_scale[str(SCALES[-1])]
    return {
        "cpus": os.cpu_count(),
        "batch_size": BATCH_SIZE,
        "first_round_loops": FIRST_ROUND_LOOPS,
        "scales": by_scale,
        "stream_ratio": round(
            largest["wall_s"] / largest["first_result_s"], 2),
    }


def test_stream_rounds(benchmark, context):
    build_service(context)      # train once, outside the measured body
    result = run_once(benchmark, _measure, context)
    path = write_bench_artifact("rounds", result)
    summary = ", ".join(
        f"{s['files']} files: first {s['first_result_s']}s of "
        f"{s['wall_s']}s" for s in result["scales"].values())
    print(f"\nstream rounds: {summary} (stream_ratio "
          f"{result['stream_ratio']}, {result['cpus']} cpus) -> {path}")

    for stats in result["scales"].values():
        assert stats["every_file_once"]
        assert stats["same_loops"]
    files = [s["files"] for s in result["scales"].values()]
    assert files == sorted(files) and files[0] < files[-1]
