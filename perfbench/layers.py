"""Per-layer metrics of one traced measurement.

Self times come from the :class:`spans.Tracer`; counts come from the
program's public stats (``SuggestionService.cache_stats()``, which
holds ``EncodeCache.stats()`` and ``SuggestionStore.stats()``,
``repro.tools.deps.cache_stats()`` and
``repro.tools.compile.compile_cache_stats()``).  Every metric is always
emitted; a layer the workload does not run reads 0.
"""

from __future__ import annotations

import statistics

#: model tasks of a suggester bundle, one forward span each
TASKS = ("parallel", "reduction", "private", "simd", "target")


def counters(service) -> dict[str, float]:
    """Flat snapshot of every public counter, for before/after deltas."""
    from repro.tools.compile import compile_cache_stats
    from repro.tools.deps import cache_stats as deps_cache_stats

    flat: dict[str, float] = {}
    stats = service.cache_stats()
    for key, value in stats.items():
        if "#" in key:                      # one encode cache per vocab
            for name in ("hits", "misses"):
                flat[f"encode.{name}"] = flat.get(f"encode.{name}", 0) + value[name]
    for group in ("forwards", "verify", "coalesce", "store"):
        for name, value in (stats.get(group) or {}).items():
            flat[f"{group}.{name}"] = value
    for name, value in deps_cache_stats().items():
        flat[f"deps.{name}"] = value
    for name, value in compile_cache_stats().items():
        flat[f"compile.{name}"] = value
    return flat


def delta(after: dict, before: dict | None) -> dict:
    if not before:
        return dict(after)
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, count: dict, *, accepted: int = 0,
                  refused: int = 0, shards: dict | None = None) -> dict:
    """Every per-layer metric from spans plus counter deltas ``count``.

    ``accepted``/``refused`` are rewrite outcomes; ``shards`` carries
    the parent-side shard measurements (``plan_imbalance``,
    ``result_gap_max_s``, ``error_records``).
    """
    s, calls = tracer.self_s, tracer.calls
    c = lambda key: count.get(key, 0)  # noqa: E731
    rounds = c("coalesce.rounds")
    pings = tracer.durations.get("ping") or []
    hits, misses = c("store.suggest_hits"), c("store.suggest_misses")
    shards = shards or {}
    metrics = {
        "parse.self_s": s["parse"], "parse.files": calls["parse"],
        "reparse.self_s": s["reparse"], "reparse.calls": calls["reparse"],
        "augast.self_s": s["augast"], "augast.calls": calls["augast"],
        "encode.self_s": s["encode"], "encode.hits": c("encode.hits"),
        "encode.misses": c("encode.misses"),
        "collate.self_s": s["collate"],
        "forward.self_s": sum(s[f"forward.{t}"] for t in TASKS),
        "forward.calls": c("forwards.calls"),
        "forward.graphs": c("forwards.graphs"),
    }
    metrics.update({f"forward.{t}_s": s[f"forward.{t}"] for t in TASKS})
    metrics.update({
        "compose.self_s": s["compose"], "deps.self_s": s["deps"],
        "deps.hits": c("deps.hits"), "deps.misses": c("deps.misses"),
        "plan.self_s": s["plan"], "plan.calls": calls["plan"],
        "verify.self_s": s["verify"], "verify.calls": calls["verify"],
        "verify.simulations": c("verify.simulations"),
        "verify.compiled_runs": c("verify.compiled_runs"),
        "verify.interpreted_runs": c("verify.interpreted_runs"),
        "compile.self_s": s["compile"], "compile.misses": c("compile.misses"),
        "compile.fallbacks": c("compile.fallbacks"),
        "rewrite.file_self_s": s["rewrite"], "rewrite.accepted": accepted,
        "rewrite.refused": refused,
        "rewrite.accept_ratio": _ratio(accepted, accepted + refused),
        "store.get_s": s["store.get"], "store.put_s": s["store.put"],
        "store.suggest_hits": hits, "store.suggest_misses": misses,
        "store.hit_ratio": _ratio(hits, hits + misses),
        "store.write_errors": c("store.write_errors"),
        "ping.rtt_ms": statistics.median(pings) * 1e3 if pings else 0.0,
        "server.pipeline_s": _ratio(tracer.total_s["server"], rounds),
        "coalesce.rounds": rounds,
        "coalesce.requests_per_round": _ratio(c("coalesce.requests"), rounds),
        "shards.plan_imbalance": shards.get("plan_imbalance", 0.0),
        "shards.result_gap_max_s": shards.get("result_gap_max_s", 0.0),
        "shards.forward_graphs": c("forwards.graphs") if shards else 0,
        "shards.error_records": shards.get("error_records", 0),
    })
    return metrics
