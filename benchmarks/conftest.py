"""Shared fixtures for the table/figure benchmarks.

Every bench runs against the ``fast`` experiment profile so the whole
suite completes in CI-friendly time on the numpy substrate; the shared
:class:`ExperimentContext` caches the generated dataset, tool verdicts
and trained models across benches within the pytest process.

Run with:  pytest benchmarks/ --benchmark-only
Override profile: pytest benchmarks/ --repro-profile=standard
"""

import json
import os
from pathlib import Path

import pytest

from repro.eval.config import ExperimentConfig
from repro.eval.context import get_context


def pytest_addoption(parser):
    parser.addoption(
        "--repro-profile", default="fast",
        choices=("fast", "standard", "paper"),
        help="experiment profile for the table/figure benches",
    )


@pytest.fixture(scope="session")
def config(request) -> ExperimentConfig:
    profile = request.config.getoption("--repro-profile")
    return getattr(ExperimentConfig, profile)()


@pytest.fixture(scope="session")
def context(config):
    return get_context(config)


def read_dir(directory) -> list[tuple[str, str]]:
    """Every ``*.c`` file under ``directory`` as sorted ``(name, source)``
    pairs — the corpus ``repro suggest-dir`` reads."""
    return [(str(p), p.read_text())
            for p in sorted(Path(directory).rglob("*.c"))]


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark an expensive experiment with a single measured round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def write_bench_artifact(name: str, payload: dict) -> Path:
    """Record a ``BENCH_<name>.json`` perf-trajectory artifact.

    CI uploads every ``BENCH_*.json`` per run so the numbers are
    comparable across PRs.  ``REPRO_BENCH_DIR`` overrides the output
    directory (default: the repo root).
    """
    out_dir = Path(os.environ.get(
        "REPRO_BENCH_DIR", Path(__file__).resolve().parent.parent,
    ))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path
