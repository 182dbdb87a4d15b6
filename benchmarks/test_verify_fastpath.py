"""Bench: the verifier fast path — compiled execution + verdict cache.

Two independent claims, one artifact:

- **Compiled speedup.**  Every plannable outermost loop of the bench
  corpus is verified twice — through the compiled executor
  (``VerifyConfig(compiled=True)``, the default) and through the
  tree-walking interpreter (``compiled=False``) — with byte-identical
  verdicts asserted.  ``compiled_speedup`` headlines the ratio; the
  compiled path must stay ≥ ``MIN_SPEEDUP``× faster, or lowering loops
  to closures has stopped paying for itself.
- **Warm verdict cache.**  A second ``rewrite-dir``-equivalent run over
  an unchanged corpus against the same persistent store must execute
  *zero* loop simulations: every verdict replays from the store's
  ``verdict/`` layer (the same contract that makes warm suggestions
  ~88× in ``BENCH_warm_cache.json``).

``BENCH_verify.json`` records both for the perf trajectory.
"""

import time

from conftest import run_once, write_bench_artifact

from repro.cfront import parse_source
from repro.dataset.corpus import CorpusGenerator
from repro.rewrite import PlanError, VerifyConfig, plan_clauses, verify_loop
from repro.serve import REWRITE, ServeConfig, build_service
from repro.suggest import file_requests

#: compiled execution must beat the tree-walker by at least this factor
MIN_SPEEDUP = 3.0
MIN_CASES = 30


def _corpus() -> list[tuple[str, str]]:
    _, files = CorpusGenerator(seed=13).generate(scale=0.002)
    return [(f"file_{f.file_id}.c", f.source) for f in files]


def _plannable_loops(named) -> list:
    """Every (loop, plan) the clause planner accepts — the loops that
    actually reach the verifier."""
    cases = []
    for _, source in named:
        for request in file_requests(parse_source(source)):
            try:
                plan = plan_clauses(request.ast, request.live_out)
            except PlanError:
                continue
            cases.append((request.ast, plan))
    return cases


def _measure(context, cache_dir) -> dict:
    named = _corpus()
    cases = _plannable_loops(named)

    # -- compiled vs interpreted, identical verdicts ------------------
    timings = {}
    verdicts = {}
    for label, config in (("compiled", VerifyConfig(compiled=True)),
                          ("interpreted", VerifyConfig(compiled=False))):
        best = float("inf")
        for _ in range(2):       # best-of-2: ratios need stable sides
            start = time.perf_counter()
            verdicts[label] = [verify_loop(loop, plan, config)
                               for loop, plan in cases]
            best = min(best, time.perf_counter() - start)
        timings[label] = best
    verdicts_identical = verdicts["compiled"] == verdicts["interpreted"]
    speedup = (timings["interpreted"] / timings["compiled"]
               if timings["compiled"] else float("inf"))

    # -- cold vs warm verdict cache -----------------------------------
    # fresh services against one persistent store: the second run must
    # replay every verdict instead of simulating
    cold = build_service(context, ServeConfig(batch_size=512),
                         cache_dir=cache_dir)
    list(cold.stream_sources(named, job=REWRITE))
    cold_stats = cold.cache_stats()["verify"]
    warm = build_service(context, ServeConfig(batch_size=512),
                         cache_dir=cache_dir)
    list(warm.stream_sources(named, job=REWRITE))
    warm_stats = warm.cache_stats()["verify"]

    return {
        "cases": len(cases),
        "verified": sum(v.ok for v in verdicts["compiled"]),
        "compiled_s": round(timings["compiled"], 4),
        "interpreted_s": round(timings["interpreted"], 4),
        "compiled_speedup": round(speedup, 2),
        "verdicts_identical": verdicts_identical,
        "cold_simulations": cold_stats["simulations"],
        "warm_simulations": warm_stats["simulations"],
        "warm_cached_verdicts": warm_stats["cached_verdicts"],
    }


def test_verify_fastpath(benchmark, context, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("verify-store")
    result = run_once(benchmark, _measure, context, cache_dir)
    path = write_bench_artifact("verify", result)
    print(f"\nverify fast path: {result['cases']} loops, compiled "
          f"{result['compiled_s']}s vs interpreted "
          f"{result['interpreted_s']}s "
          f"({result['compiled_speedup']}x); warm run "
          f"{result['warm_simulations']} simulations -> {path}")

    assert result["cases"] >= MIN_CASES
    assert result["verdicts_identical"]
    assert result["compiled_speedup"] >= MIN_SPEEDUP
    assert result["cold_simulations"] > 0
    assert result["warm_simulations"] == 0
    assert result["warm_cached_verdicts"] > 0
