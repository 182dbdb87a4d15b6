"""CI gate: compare fresh ``BENCH_*.json`` against committed baselines.

Every bench run emits its artifact (``write_bench_artifact``) into a
directory; ``benchmarks/baselines/`` holds the committed baselines —
the perf trajectory the project has already banked (freshly emitted
``BENCH_*.json`` at the repo root are gitignored working copies; use
``--update`` to promote a run into the baselines).  This script
compares the
*headline metric* of each artifact (an internally-normalized ratio
like ``speedup``, so numbers stay comparable across machines of
different absolute speed) and fails when any fresh value falls more
than ``--threshold`` (default 30%) below its baseline.

Usage::

    python benchmarks/check_regression.py FRESH_DIR
        [--baseline-dir DIR] [--threshold 0.30]
        [--summary FILE]        # append the markdown trend table
        [--update]              # rewrite baselines from FRESH_DIR

Exit status: 0 when nothing regressed, 1 on any regression or any
baselined bench that emitted no fresh artifact (a bench silently
dropping out of CI must not pass the gate).

``--update`` refuses, naming the file and promoting nothing, any
artifact that records ``shards`` or ``peers`` ≥ 2 without ``cpus`` ≥ 2:
workers or peers cannot overlap on one CPU, so such a "speedup" would
baseline the scheduler instead of the scaling.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: artifact name -> headline metrics (higher is better, ratio-scaled)
HEADLINES: dict[str, tuple[str, ...]] = {
    "BENCH_concurrency.json": ("throughput_speedup", "solo_window_speedup"),
    "BENCH_fabric.json": ("peer_speedup", "warm_net_speedup"),
    "BENCH_faults.json": ("recovery_efficiency",),
    "BENCH_listen.json": ("speedup", "resubmit_speedup"),
    "BENCH_rewrite.json": ("verify_efficiency",),
    "BENCH_rounds.json": ("stream_ratio",),
    "BENCH_serve.json": ("speedup", "end_to_end_speedup"),
    "BENCH_shard_scaling.json": ("speedup",),
    "BENCH_startup.json": ("startup_ratio",),
    "BENCH_train.json": ("speedup",),
    "BENCH_verify.json": ("compiled_speedup",),
    "BENCH_warm_cache.json": ("speedup",),
}


def _load(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _single_cpu_scaling(artifact: dict | None) -> bool:
    """Whether ``artifact`` measured shards or peers on fewer than 2 CPUs."""
    if artifact is None:
        return False
    parallel = max(int(artifact.get("shards") or 0),
                   int(artifact.get("peers") or 0))
    return parallel >= 2 and int(artifact.get("cpus") or 0) < 2


def compare(fresh_dir: Path, baseline_dir: Path,
            threshold: float) -> tuple[list[dict], bool]:
    """One row per headline metric; second value is overall pass."""
    rows: list[dict] = []
    ok = True
    names = sorted(
        {p.name for p in baseline_dir.glob("BENCH_*.json")}
        | {p.name for p in fresh_dir.glob("BENCH_*.json")})
    for name in names:
        baseline = _load(baseline_dir / name)
        fresh = _load(fresh_dir / name)
        metrics = HEADLINES.get(name)
        if metrics is None:
            # unmapped artifact: show it, never gate on it
            rows.append({"artifact": name, "metric": "(no headline)",
                         "baseline": None, "fresh": None,
                         "status": "unmapped"})
            continue
        for metric in metrics:
            row = {"artifact": name, "metric": metric,
                   "baseline": (baseline or {}).get(metric),
                   "fresh": (fresh or {}).get(metric)}
            if baseline is None or row["baseline"] is None:
                row["status"] = "new"
            elif fresh is None or row["fresh"] is None:
                row["status"] = "missing"
                ok = False
            elif row["fresh"] < row["baseline"] * (1.0 - threshold):
                row["status"] = "regressed"
                ok = False
            else:
                row["status"] = "ok"
            rows.append(row)
    return rows, ok


_MARKS = {"ok": "✅", "regressed": "❌", "missing": "❌ missing",
          "new": "🆕", "unmapped": "·"}


def trend_table(rows: list[dict], threshold: float) -> str:
    lines = [
        f"### Bench trend (gate: >{threshold:.0%} slowdown fails)",
        "",
        "| artifact | metric | baseline | current | Δ | status |",
        "|---|---|---:|---:|---:|---|",
    ]
    for row in rows:
        base, fresh = row["baseline"], row["fresh"]
        if isinstance(base, (int, float)) and isinstance(
                fresh, (int, float)) and base:
            delta = f"{(fresh / base - 1.0):+.1%}"
        else:
            delta = "—"
        fmt = (lambda v: f"{v:g}"
               if isinstance(v, (int, float)) else "—")
        lines.append(
            f"| {row['artifact']} | {row['metric']} | {fmt(base)} "
            f"| {fmt(fresh)} | {delta} "
            f"| {_MARKS.get(row['status'], row['status'])} |")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("fresh_dir", type=Path,
                        help="directory holding freshly emitted "
                             "BENCH_*.json artifacts")
    parser.add_argument("--baseline-dir", type=Path,
                        default=Path(__file__).resolve().parent
                        / "baselines",
                        help="committed baselines (default: "
                             "benchmarks/baselines/)")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="max tolerated fractional slowdown of a "
                             "headline metric (default: 0.30)")
    parser.add_argument("--summary", type=Path, default=None,
                        help="append the markdown trend table to this "
                             "file (e.g. $GITHUB_STEP_SUMMARY)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baselines from fresh_dir "
                             "instead of gating")
    args = parser.parse_args(argv)

    if args.update:
        fresh = sorted(args.fresh_dir.glob("BENCH_*.json"))
        refused = [p for p in fresh if _single_cpu_scaling(_load(p))]
        for path in refused:
            print(f"refusing to baseline {path}: it measures shards or "
                  f"peers on fewer than 2 cpus", file=sys.stderr)
        if refused:
            return 1
        for path in fresh:
            target = args.baseline_dir / path.name
            target.write_text(path.read_text())
            print(f"baseline updated: {target}")
        return 0

    rows, ok = compare(args.fresh_dir, args.baseline_dir,
                       args.threshold)
    table = trend_table(rows, args.threshold)
    print(table)
    if args.summary is not None:
        with args.summary.open("a") as fh:
            fh.write(table + "\n")
    if not ok:
        bad = [r for r in rows if r["status"] in ("regressed",
                                                  "missing")]
        for row in bad:
            print(f"FAIL: {row['artifact']}:{row['metric']} "
                  f"baseline={row['baseline']} "
                  f"current={row['fresh']}", file=sys.stderr)
        return 1
    print("bench gate: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
