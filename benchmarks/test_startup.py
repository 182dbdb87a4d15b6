"""Bench: how long a fresh interpreter takes to become ready to serve.

Every cold ``repro suggest-dir``/``rewrite-dir`` pass and every
``repro serve`` start pays for its imports, the bundle load and the
service build before it reads its first loop.  Fresh interpreters are
spawned in alternation:

- ``floor``: ``import numpy`` and nothing else, the least any serving
  start can cost;
- ``setup``: ``SuggesterBundle.load`` of the ``fast`` bundle plus
  ``build_service``, what ``perfbench`` times as ``setup_s``.

Each is timed from just before its spawn until it reports ready (on
the system-wide monotonic clock), :data:`SPAWNS` times, and the medians
land in ``BENCH_startup.json`` with the modules the ready ``setup``
interpreter has loaded.  The headline ``startup_ratio`` is
``floor_s / setup_s``: 1.0 would be a start that costs no more than
numpy.  It is a wall-clock ratio, so only ``check_regression.py`` gates
it; here a spawn that fails fails the bench, and nothing is asserted
on time.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from conftest import run_once, write_bench_artifact

from repro.artifacts import SuggesterBundle

SPAWNS = 5
SRC = Path(__file__).resolve().parents[1] / "src"

FLOOR = "import numpy"
SETUP = ("from repro.artifacts import SuggesterBundle\n"
         "from repro.serve import ServeConfig, build_service\n"
         "build_service(SuggesterBundle.load(sys.argv[1]),\n"
         "              ServeConfig(batch_size=512))")


def _spawn(body: str, bundle: Path) -> tuple[float, int]:
    """Seconds from spawn until ``body`` has run, and the modules then
    loaded."""
    code = (f"import sys, time\n{body}\n"
            "print(time.monotonic(), len(sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    spawned = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code, str(bundle)],
                         env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    ready, modules = out.stdout.split()
    return float(ready) - spawned, int(modules)


def _measure(bundle: Path) -> dict:
    floors, setups = [], []
    for _ in range(SPAWNS):
        floors.append(_spawn(FLOOR, bundle)[0])
        setups.append(_spawn(SETUP, bundle))
    floor_s = statistics.median(floors)
    setup_s = statistics.median(s for s, _ in setups)
    return {
        "cpus": os.cpu_count(),
        "spawns": SPAWNS,
        "floor_s": round(floor_s, 4),
        "setup_s": round(setup_s, 4),
        "modules": setups[-1][1],
        "startup_ratio": round(floor_s / setup_s, 3),
    }


def test_startup(benchmark, context, tmp_path):
    bundle = SuggesterBundle.from_context(context).save(tmp_path / "bundle")
    result = run_once(benchmark, _measure, bundle)
    path = write_bench_artifact("startup", result)
    print(f"\nstartup: numpy floor {result['floor_s']}s, load + build "
          f"{result['setup_s']}s with {result['modules']} modules "
          f"(startup_ratio {result['startup_ratio']}, {result['cpus']} "
          f"cpus) -> {path}")
