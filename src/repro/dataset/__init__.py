"""OMP_Serial dataset: generation, extraction, statistics.

The paper builds OMP_Serial from (a) ~6000 GitHub repositories crawled
for C files using OpenMP and (b) Jinja2-generated synthetic programs.
Offline, (a) is replaced by a calibrated stochastic corpus generator
(:mod:`repro.dataset.corpus`) whose category proportions, function-call /
nested-loop rates and LOC distributions match Table 1; (b) is reproduced
with the same mechanism the paper used (:mod:`repro.dataset.synth`).

Labels always come from pragma presence on re-parsed source — the same
rule the paper applies (section 4.2) — never from generator bookkeeping,
so the extraction pipeline is exercised end to end.
"""

from __future__ import annotations

import importlib
from typing import Any

#: name -> (module, attribute) for lazy re-exports: serving needs only
#: :mod:`~repro.dataset.extract` and :mod:`~repro.dataset.sample`, not
#: the generators (and their Jinja2)
_EXPORTS = {
    "CorpusGenerator": ("repro.dataset.corpus", "CorpusGenerator"),
    "DatasetConfig": ("repro.dataset.omp_serial", "DatasetConfig"),
    "OMPSerial": ("repro.dataset.omp_serial", "OMPSerial"),
    "SyntheticGenerator": ("repro.dataset.synth", "SyntheticGenerator"),
    "extract_loops_from_source": ("repro.dataset.extract",
                                  "extract_loops_from_source"),
    "generate_omp_serial": ("repro.dataset.omp_serial",
                            "generate_omp_serial"),
    "load_jsonl": ("repro.dataset.sample", "load_jsonl"),
    "save_jsonl": ("repro.dataset.sample", "save_jsonl"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.dataset' has no attribute {name!r}") from None
    return getattr(importlib.import_module(module_name), attr)


def __dir__() -> list[str]:
    return __all__
