"""One fresh interpreter of the benchmark.

``child.py pass ...`` runs one cold pass of a batch workload, the way a
one-shot ``repro suggest-dir`` / ``rewrite-dir`` runs: the process-wide
memos (dependence analysis, loop compilation, encode caches) start
empty.  It times its own set-up from ``--spawned-at`` (the parent's
``time.monotonic()`` just before the spawn; the clock is system-wide)
and writes results, timings and counters as JSON to ``--out``.

``child.py train ...`` trains the suggester bundle every workload
serves, outside every timed region.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: training profiles: the fast experiment profile, and a tiny one for
#: the benchmark's own smoke tests
PROFILES = {"fast": dict(scale=0.02, epochs=4, dim=32),
            "tiny": dict(scale=0.005, epochs=1, dim=16)}


def train(out: str, profile: str) -> None:
    from repro.artifacts import SuggesterBundle
    from repro.eval.config import ExperimentConfig
    from repro.eval.context import get_context

    context = get_context(ExperimentConfig(**PROFILES[profile]))
    SuggesterBundle.from_context(context).save(out)


def run_pass(args) -> dict:
    from repro.artifacts import SuggesterBundle

    import check
    import hostspeed

    bundle = SuggesterBundle.load(args.bundle)
    service = check.build(bundle)
    ready = time.monotonic()

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    named = [tuple(item) for item in
             json.loads(Path(args.corpus).read_text(encoding="utf-8"))]

    probes = [hostspeed.probe()]
    start = time.perf_counter()
    if args.workload == "rewrite-cold":
        stream = service.stream_rewrite_sources(named, ordered=False,
                                                verify=True)
    else:
        shards = 2 if args.workload == "suggest-shards2" else 1
        stream = service.stream_sources(named, ordered=False, shards=shards)
    times: list[float] = []
    results: list[tuple[str, dict]] = []
    for result in stream:
        times.append(time.perf_counter() - start)
        results.append((result.name, result.to_payload()))
    wall = time.perf_counter() - start
    probes.append(hostspeed.probe())

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    shards_used = args.workload == "suggest-shards2"
    if shards_used:
        # each shard worker's peak is at most the largest one's
        rss_kb += 2 * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ordered_times = sorted(times)
    out = {
        "setup_s": ready - args.spawned_at,
        "wall_s": wall,
        "first_result_s": times[0],
        "p50_s": check.percentile(ordered_times, 50),
        "p99_s": check.percentile(ordered_times, 99),
        "peak_rss_mb": rss_kb / 1024.0,
        "slowdown": hostspeed.slowdown(probes),
        "results": results,
    }
    if tracer is not None:
        import layers
        from repro.serve.plan import plan_shards

        rewrites = [r for _, p in results for r in p.get("rewrites", ())]
        accepted = sum(r["accepted"] for r in rewrites)
        refused = sum(not r["accepted"] and r["code"] != "not-parallel"
                      for r in rewrites)
        shard_stats = None
        if shards_used:
            sizes = [s.total_bytes for s in plan_shards(named, 2)]
            gaps = [b - a for a, b in zip(times, times[1:])] or [0.0]
            shard_stats = {
                "plan_imbalance": max(sizes) / (sum(sizes) / len(sizes)),
                "result_gap_max_s": max(gaps),
                "error_records": sum(check.is_failure(p) for _, p in results),
            }
        out["layers"] = layers.layer_metrics(
            tracer, layers.counters(service), accepted=accepted,
            refused=refused, shards=shard_stats)
        out["self_sum_s"] = tracer.self_sum()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    tr = sub.add_parser("train")
    tr.add_argument("--out", required=True)
    tr.add_argument("--profile", choices=sorted(PROFILES), required=True)
    ps = sub.add_parser("pass")
    ps.add_argument("--workload", required=True,
                    choices=("suggest-cold", "rewrite-cold",
                             "suggest-shards2"))
    ps.add_argument("--corpus", required=True)
    ps.add_argument("--bundle", required=True)
    ps.add_argument("--out", required=True)
    ps.add_argument("--spawned-at", type=float, required=True)
    ps.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "train":
        train(args.out, args.profile)
        return 0
    Path(args.out).write_text(json.dumps(run_pass(args)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
