"""Experiment harness: one module per paper table/figure.

Every experiment is a function ``run(config) -> ExperimentResult`` whose
rows mirror the paper's table; ``paper_reference`` embeds the published
numbers so benches and EXPERIMENTS.md can print paper-vs-measured side
by side.  :class:`~repro.eval.context.ExperimentContext` caches the
generated dataset, tool verdicts and trained models per configuration
so the full suite reuses work.
"""

from __future__ import annotations

import importlib
from typing import Any

#: name -> (module, attribute) for lazy re-exports: loading a trained
#: model reaches :mod:`~repro.eval.context` without importing every
#: table, figure and the runner.  The experiment modules themselves
#: import as ``from repro.eval import table1``.
_EXPORTS = {
    "ExperimentConfig": ("repro.eval.config", "ExperimentConfig"),
    "ExperimentResult": ("repro.eval.result", "ExperimentResult"),
    "get_context": ("repro.eval.context", "get_context"),
    "render_table": ("repro.eval.result", "render_table"),
    "run_all": ("repro.eval.runner", "run_all"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.eval' has no attribute {name!r}") from None
    return getattr(importlib.import_module(module_name), attr)


def __dir__() -> list[str]:
    return __all__
