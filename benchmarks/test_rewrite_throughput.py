"""Bench: the interpreter-verified rewrite pass over a warm corpus.

The rewrite stage rides on the suggestion pipeline (store hits skip
parse + inference), so this bench isolates what the *rewriter* adds:
clause planning, AST transform + unparse, and — the expensive part —
differential verification across simulated-parallel schedules.

Two passes over the same warm corpus:

- ``verify=False``: plan + transform + unparse only (the floor);
- ``verify=True``: the same plus the sequential-vs-simulated-parallel
  interpreter gate on every candidate loop.

``BENCH_rewrite.json`` records verified rewrites/s for the trajectory
and headlines ``verify_efficiency`` — the fraction of rewrite-pass
throughput retained with the gate on (a machine-normalized ratio, so
the regression gate stays meaningful on shared runners).  A corpus
where verification costs more than ``MAX_OVERHEAD``× the unverified
floor fails outright: the gate must stay cheap enough to be the
default.
"""

import time

from conftest import run_once, write_bench_artifact

from repro.cfront import parse_source, unparse
from repro.dataset.corpus import CorpusGenerator
from repro.serve import REWRITE, Job, ServeConfig, build_service

#: verified pass may cost at most this many × the unverified floor
#: (tight on purpose: the compiled executor + trace elision + shared
#: per-seed snapshots must keep the gate near-free — note this service
#: has no store, so no verdict cache is helping here)
MAX_OVERHEAD = 2.5
MIN_ACCEPTED = 10


def _corpus() -> list[tuple[str, str]]:
    _, files = CorpusGenerator(seed=13).generate(scale=0.002)
    return [(f"file_{f.file_id}.c", f.source) for f in files]


def _measure(context) -> dict:
    named = _corpus()
    service = build_service(context, ServeConfig(workers=1,
                                                 batch_size=512))
    list(service.stream_sources(named))          # warm the suggestion store

    # best-of-2 per side: single samples are too noisy for a ratio
    unverified_s = verified_s = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        list(service.stream_sources(named, job=Job("rewrite", verify=False)))
        unverified_s = min(unverified_s, time.perf_counter() - start)
    results = None
    for _ in range(2):
        start = time.perf_counter()
        results = list(service.stream_sources(named, job=REWRITE))
        verified_s = min(verified_s, time.perf_counter() - start)

    rewrites = [r for fr in results for r in fr.rewrites]
    accepted = [r for r in rewrites if r.accepted]
    # grounding: every accepted rewrite is round-trippable C
    reparseable = all(
        unparse(parse_source(fr.rewritten_source)) == fr.rewritten_source
        for fr in results if fr.rewritten_source is not None
    )
    overhead = verified_s / unverified_s if unverified_s else float("inf")
    return {
        "files": len(named),
        "loops": len(rewrites),
        "accepted": len(accepted),
        "refused": sum(1 for r in rewrites
                       if not r.accepted and r.code != "not-parallel"),
        "unverified_s": round(unverified_s, 4),
        "verified_s": round(verified_s, 4),
        "verified_rewrites_per_s": round(len(accepted) / verified_s, 1)
        if verified_s else 0.0,
        "verifier_overhead": round(overhead, 2),
        "verify_efficiency": round(unverified_s / verified_s, 4)
        if verified_s else 0.0,
        "reparseable": reparseable,
    }


def test_rewrite_throughput(benchmark, context):
    result = run_once(benchmark, _measure, context)
    path = write_bench_artifact("rewrite", result)
    print(f"\nrewrite throughput: {result['accepted']}/{result['loops']} "
          f"loops verified-rewritten in {result['verified_s']}s "
          f"({result['verified_rewrites_per_s']}/s; verifier overhead "
          f"{result['verifier_overhead']}x) -> {path}")

    assert result["accepted"] >= MIN_ACCEPTED
    assert result["reparseable"]
    assert result["verifier_overhead"] <= MAX_OVERHEAD
