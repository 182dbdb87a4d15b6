"""The serving stack's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload suggest-cold [--seed 29]
        [--seconds 20] [--trace 0|1]

Each run generates its corpus from ``--seed``
(``CorpusGenerator(seed).generate(scale=0.012)``), serves it with one
trained suggester bundle (trained once per build directory, outside
every timed region), checks every output against the in-process
reference, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
reports its per-layer metrics from a separate traced measurement.
See ``perfbench/README.md`` for why each workload exists and what
every metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BATCH = ("suggest-cold", "rewrite-cold", "suggest-shards2")
WORKLOADS = BATCH + ("serve-mixed",)
#: fewest cold passes per measurement (per traced/untraced side)
MIN_PASSES = 5
#: seconds one child process may take before the run fails
CHILD_TIMEOUT_S = 170
TRAIN_TIMEOUT_S = 800


@dataclass
class Context:
    """Everything a workload needs for one run."""

    workload: str
    seed: int
    seconds: float
    root: Path
    run_dir: Path
    bundle_dir: Path
    env: dict
    corpus: list
    corpus_file: Path
    service: object
    reference: dict

    @property
    def mode(self) -> str:
        return "rewrite" if self.workload == "rewrite-cold" else "suggest"


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Benchmark the serving stack on one workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=29,
                        help="corpus seed (29; 31 and 37 are held out)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the measurement runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--scale", type=float, default=0.012,
                        help="corpus scale (smoke tests shrink it)")
    parser.add_argument("--profile", choices=("fast", "tiny"),
                        default="fast",
                        help="training profile of the served bundle")
    parser.add_argument("--build-dir",
                        default=os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"),
                        help="where the trained bundle is kept and "
                             "scratch files go (relative to the repo)")
    return parser.parse_args(argv)


def child_env(run_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(run_dir)
    return env


def ensure_bundle(build: Path, profile: str, env: dict) -> Path:
    """The trained bundle of ``profile``, training it on first use."""
    target = build / f"bundle-{profile}"
    if (target / "manifest.json").is_file():
        return target
    staging = build / f"bundle-{profile}.{os.getpid()}"
    subprocess.run([sys.executable, str(HERE / "child.py"), "train",
                    "--out", str(staging), "--profile", profile],
                   cwd=ROOT, env=env, check=True, stdout=sys.stderr,
                   timeout=TRAIN_TIMEOUT_S)
    os.replace(staging, target)
    return target


def run_pass(ctx: Context, index: int, traced: bool) -> dict:
    """One cold pass in a fresh interpreter."""
    out = ctx.run_dir / f"pass-{index}.json"
    spawned = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "pass",
         "--workload", ctx.workload, "--corpus", str(ctx.corpus_file),
         "--bundle", str(ctx.bundle_dir), "--out", str(out),
         "--spawned-at", repr(spawned), "--trace", str(int(traced))],
        cwd=ROOT, env=ctx.env, check=True, stdout=sys.stderr,
        timeout=CHILD_TIMEOUT_S)
    return json.loads(out.read_text(encoding="utf-8"))


def run_batch(ctx: Context, trace: bool) -> dict:
    """Cold passes until ``seconds`` have passed; with ``trace`` they
    alternate untraced and traced."""
    import check

    passes: list[tuple[bool, dict]] = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES * (2 if trace else 1)
           or time.perf_counter() - start < ctx.seconds):
        traced = trace and len(passes) % 2 == 1
        passes.append((traced, run_pass(ctx, len(passes), traced)))
    reports = [check.compare(data["results"], ctx.reference, ctx.mode)
               for _, data in passes]
    plain = [(data, report) for (traced, data), report
             in zip(passes, reports) if not traced]
    median = statistics.median
    if trace:
        traced = [data for was_traced, data in passes if was_traced]
        metrics = {name: median(d["layers"][name] for d in traced)
                   for name in traced[0]["layers"]}
        wall_traced = median(d["wall_s"] / d["slowdown"] for d in traced)
        wall_plain = median(d["wall_s"] / d["slowdown"] for d, _ in plain)
        metrics["trace.overhead_frac"] = (wall_traced - wall_plain) / wall_plain
        spans_ok = all(d["self_sum_s"] <= d["wall_s"] for d in traced)
        raw = {}
    else:
        metrics = batch_metrics(plain, lambda d: d["slowdown"])
        raw = batch_metrics(plain, lambda d: 1.0)
        spans_ok = True
    return {"metrics": metrics, "reports": reports, "spans_ok": spans_ok,
            "raw": raw,
            "attempted": sum(r["files"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "samples": len(passes),
            "setup_samples": [d["setup_s"] for d, _ in plain],
            "wall_samples": [d["wall_s"] for _, d in passes],
            "slowdown_samples": [d["slowdown"] for _, d in passes]}


def batch_metrics(plain: list[tuple[dict, dict]], slowdown) -> dict:
    """End-to-end metrics over untraced ``(pass, report)`` pairs, with
    every time divided by ``slowdown(pass)``."""
    median = statistics.median

    def time_of(key: str, scale: float = 1.0) -> float:
        return median(d[key] / slowdown(d) * scale for d, _ in plain)

    def rate_of(count) -> float:
        return median(count(r) * slowdown(d) / d["wall_s"] for d, r in plain)

    return {
        "setup_s": time_of("setup_s"),
        "loops_per_s": rate_of(lambda r: r["loops"]),
        "first_result_s": time_of("first_result_s"),
        "req_per_s": rate_of(lambda r: r["files"] - r["failed"]),
        "req_p50_ms": time_of("p50_s", 1e3),
        "req_p99_ms": time_of("p99_s", 1e3),
        "peak_rss_mb": median(d["peak_rss_mb"] for d, _ in plain),
    }


def environment(bundle, corpus) -> dict:
    """What two runs need to be told apart when their numbers differ."""
    import numpy

    import check
    from repro.serve.plan import effective_cpu_count

    return {
        "cpu_count": os.cpu_count(),
        "effective_cpu_count": effective_cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "model_key": check.model_key(bundle),
        "corpus_digest": check.corpus_digest(corpus),
        "files": len(corpus),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name → unit, in ``BENCHMARK.json`` order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args, run_dir: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import check
    import serve_mixed
    from repro.artifacts import SuggesterBundle

    env = child_env(run_dir)
    bundle_dir = ensure_bundle(run_dir.parent, args.profile, env)
    bundle = SuggesterBundle.load(bundle_dir)
    corpus = check.make_corpus(args.seed, args.scale)
    corpus_file = run_dir / "corpus.json"
    corpus_file.write_text(json.dumps(corpus), encoding="utf-8")
    ctx = Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        root=ROOT, run_dir=run_dir, bundle_dir=bundle_dir, env=env,
        corpus=corpus, corpus_file=corpus_file,
        service=check.build(bundle), reference={})
    ctx.reference = check.reference(ctx.service, corpus, ctx.mode)
    if args.workload == "serve-mixed":
        out = (serve_mixed.run_traced(ctx) if args.trace
               else serve_mixed.run(ctx))
    else:
        out = run_batch(ctx, bool(args.trace))
    out["environment"] = environment(bundle, corpus)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    build = Path(args.build_dir)
    if not build.is_absolute():
        build = ROOT / build
    run_dir = build / "perfbench" / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        out = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    reports = out["reports"]
    wrong = sorted({n for r in reports for n in r["wrong"] + r["missing"]})
    differ = sorted({n for r in reports for n in r["bytes_differ"]})
    failed, attempted = out["failed"], out["attempted"]
    metrics = out["metrics"]
    metrics.setdefault("ok_frac", (attempted - failed) / attempted)
    units = declared_metrics(bool(args.trace))
    unmeasured = set(units) - set(metrics)
    if unmeasured:
        raise RuntimeError(f"metrics not measured: {sorted(unmeasured)}")

    print(f"perfbench: {args.workload} seed={args.seed} "
          f"trace={args.trace}: {out['samples']} "
          f"{'requests' if args.workload == 'serve-mixed' else 'passes'}"
          f" in {time.perf_counter() - started:.1f} s")
    print("environment: " + json.dumps(out["environment"], sort_keys=True))
    if out.get("setup_samples"):
        print("setup samples (s): "
              + " ".join(f"{s:.3f}" for s in out["setup_samples"]))
    for key, label in (("wall_samples", "pass walls (s)"),
                       ("slowdown_samples", "host slowdown")):
        if out.get(key):
            print(f"{label}: " + " ".join(f"{v:.3f}" for v in out[key]))
    print(f"output check: {sum(r['files'] for r in reports)} results, "
          f"{len(wrong)} wrong {wrong[:5]}, {failed} failed; payload "
          f"bytes differ on {len(differ)} files {differ[:5]}")
    raw = out.get("raw") or {}
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:12.6g} {unit:6s}"
              + (f" (raw {raw[name]:.6g})" if name in raw else ""))
    print(json.dumps({
        "correct": not wrong and out["spans_ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
