"""Tests of the benchmark itself (not collected by the tier-1 run).

    python -m pytest perfbench/tests -q

The smokes train a tiny bundle once into a temporary build directory
and run every workload on a tiny corpus for one second, traced and
untraced.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("suggest-cold", "rewrite-cold", "suggest-shards2", "serve-mixed")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(kind: str) -> list[str]:
    return [m["name"] for m in SPEC[kind]]


def _suggestion(parallel=True, pragma="#pragma omp parallel for",
                families=("reduction", "private")):
    return {"loop_source": "for (i = 0; i < n; i++) s += a[i];",
            "parallel": parallel, "pragma": pragma,
            "clause_families": list(families), "rationale": "r"}


def _rewrite(code="verified", source="int x;"):
    return {"error": None, "rewritten_source": source,
            "rewrites": [{"loop_source": "l", "accepted": True, "code": code,
                          "pragma": "p", "rewritten": "r", "detail": ""}]}


@pytest.fixture
def suggest_ref():
    return {"a.c": {"error": None, "suggestions": [_suggestion()]},
            "b.c": {"error": None,
                    "suggestions": [_suggestion(parallel=False, pragma=None,
                                                families=())]}}


def test_check_accepts_the_reference(suggest_ref):
    report = check.compare(list(suggest_ref.items()), suggest_ref, "suggest")
    assert not report["wrong"] and not report["missing"]
    assert report["loops"] == 2 and report["failed"] == 0


@pytest.mark.parametrize("field,value", [("pragma", "#pragma omp simd"),
                                         ("parallel", False)])
def test_check_rejects_a_corrupted_suggestion(suggest_ref, field, value):
    results = copy.deepcopy(suggest_ref)
    results["a.c"]["suggestions"][0][field] = value
    report = check.compare(list(results.items()), suggest_ref, "suggest")
    assert report["wrong"] == ["a.c"]


def test_check_rejects_missing_and_duplicate_files(suggest_ref):
    report = check.compare([("a.c", suggest_ref["a.c"])] * 2, suggest_ref,
                           "suggest")
    assert report["wrong"] == ["a.c"] and report["missing"] == ["b.c"]


def test_check_counts_payload_bytes_apart_from_answers(suggest_ref):
    results = copy.deepcopy(suggest_ref)
    results["a.c"]["suggestions"][0]["clause_families"].reverse()
    report = check.compare(list(results.items()), suggest_ref, "suggest")
    assert not report["wrong"] and report["bytes_differ"] == ["a.c"]


def test_check_counts_serving_failures_separately(suggest_ref):
    results = copy.deepcopy(suggest_ref)
    results["b.c"] = {"error": "quarantined: killed 2 workers",
                      "suggestions": []}
    report = check.compare(list(results.items()), suggest_ref, "suggest")
    assert not report["wrong"] and report["failed"] == 1


@pytest.mark.parametrize("corrupt", [
    lambda p: p.update(rewritten_source="int y;"),
    lambda p: p["rewrites"][0].update(code="divergence"),
])
def test_check_rejects_a_corrupted_rewrite(corrupt):
    ref = {"a.c": _rewrite()}
    result = _rewrite()
    corrupt(result)
    assert check.compare([("a.c", result)], ref, "rewrite")["wrong"] == ["a.c"]


def test_layer_metrics_cover_every_declared_per_layer_metric():
    metrics = layers.layer_metrics(spans.Tracer(), {})
    metrics["trace.overhead_frac"] = 0.0
    assert sorted(metrics) == sorted(declared("per_layer"))


def test_tracer_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert tracer.calls == {"outer": 1, "inner": 3}
    assert tracer.self_s["outer"] < tracer.total_s["outer"]
    assert tracer.self_sum() == pytest.approx(tracer.total_s["outer"])


def test_generator_spans_charge_only_the_producer():
    def numbers():
        yield from range(3)

    tracer = spans.Tracer()
    traced = tracer.wrap_generator("gen", numbers)
    assert list(traced()) == [0, 1, 2]
    assert tracer.calls["gen"] == 1 and len(tracer.durations["gen"]) == 4


@pytest.fixture(scope="session")
def build_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench-build")


def _run(build_dir, workload, trace, cwd=ROOT, script=None):
    return subprocess.run(
        [sys.executable, str(script or BENCH / "run.py"),
         "--workload", workload, "--seed", "31", "--seconds", "1",
         "--trace", str(trace), "--scale", "0.002", "--profile", "tiny",
         "--build-dir", str(build_dir)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_corpus_smoke(build_dir, workload, trace):
    proc = _run(build_dir, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == declared(kind)
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "payload bytes differ on" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path, build_dir):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run(tmp_path / "build", "suggest-cold", 0, cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
