"""Import contract of the cold serving path and of the thin client.

A cold ``suggest-dir``/``rewrite-dir`` pass and a ``repro serve`` start
pay for every module they import before their first loop, so serving
imports only what it runs.  It also imports everything its first pass
runs, so no import lands inside the timed pass.  Each case imports in
a fresh interpreter and reads ``sys.modules``; nothing is timed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: everything ``SuggesterBundle.load`` + ``build_service`` import
SERVING = ("import repro.artifacts\n"
           "from repro.serve import build_service\n"
           "import repro.eval.context")

#: never run by serving, so never loaded by it: the CFG dominator
#: helpers' graph library, the corpus generators' templates, the
#: daemon's event loop and wire frames, and the paper's experiment
#: harness
NOT_SERVED = (
    "networkx", "jinja2", "asyncio", "repro.serve.server",
    "repro.serve.protocol",
    *(f"repro.dataset.{name}" for name in (
        "synth", "corpus", "recipes", "omp_serial", "benchsuite")),
    *(f"repro.eval.{name}" for name in (
        "table1", "table2", "table3", "table4", "table5", "figure2",
        "coverage", "overhead", "casestudy", "ablation", "generation",
        "generalization", "breakdown", "runner")),
)

#: run by the first pass of a sharded suggest or a verified rewrite:
#: imported at setup, never inside the timed pass
FIRST_PASS = ("repro.serve.stream", "repro.serve.plan",
              "repro.serve.worker", "repro.tools.interp",
              "multiprocessing.queues")

#: the model stack a network client never runs
NOT_CLIENT = ("numpy", "repro.cfront", "repro.serve.pipeline")


def _loaded(statements: str, names) -> set[str]:
    """Which of ``names`` a fresh interpreter has loaded after
    ``statements``."""
    code = (f"import json, sys\n{statements}\n"
            f"print(json.dumps([n for n in {list(names)!r} "
            "if n in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout))


def test_serving_imports_what_it_runs_and_nothing_else():
    loaded = _loaded(SERVING, NOT_SERVED + FIRST_PASS)
    never_run = sorted(loaded & set(NOT_SERVED))
    missing = sorted(set(FIRST_PASS) - loaded)
    assert (never_run, missing) == ([], [])


def test_thin_client_skips_the_model_stack():
    loaded = _loaded("import repro.client", NOT_CLIENT)
    assert not loaded, sorted(loaded)
