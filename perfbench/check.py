"""Inputs, output checks and small helpers shared by every workload.

Every result the benchmark measures is compared with the in-process
reference (:meth:`SuggestionService.iter_sources` /
:meth:`SuggestionService.iter_rewrites`) over the same named sources:

- suggest: per file the error, and per loop ``parallel`` and ``pragma``;
- rewrite: per file the error and ``rewritten_source``, and per loop
  the outcome ``code``.

Full payload bytes are compared too, but only counted: a payload-byte
difference that leaves those fields equal (for example clause families
listed in another order) is reported, not treated as a wrong answer.
"""

from __future__ import annotations

import hashlib
import json

#: per-file serving error codes that count as failed operations
FAILURE_CODES = ("worker-retry", "quarantined", "deadline-exceeded")
#: the serving configuration every workload uses
BATCH_SIZE = 512


def make_corpus(seed: int, scale: float) -> list[tuple[str, str]]:
    """``CorpusGenerator(seed).generate(scale)`` as ``(name, source)``
    pairs, named by file id."""
    from repro.dataset.corpus import CorpusGenerator

    _, files = CorpusGenerator(seed=seed).generate(scale=scale)
    return [(f"file_{f.file_id}.c", f.source) for f in files]


def corpus_digest(named: list[tuple[str, str]]) -> str:
    h = hashlib.sha256()
    for name, source in named:
        h.update(name.encode("utf-8") + b"\0" + source.encode("utf-8") + b"\0")
    return h.hexdigest()[:16]


def model_key(bundle) -> str:
    """The serving model key of a bundle, from the models' public
    fingerprints (the same recipe the suggestion store keys on)."""
    parts = [bundle.parallel.fingerprint()] + [
        f"{name}:{model.fingerprint()}"
        for name, model in sorted(bundle.clause_models.items())
    ]
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]


def build(bundle, cache_dir=None):
    """The service every workload serves with."""
    from repro.serve import ServeConfig, build_service

    return build_service(bundle, ServeConfig(workers=1, batch_size=BATCH_SIZE),
                         cache_dir=cache_dir)


def reference(service, named: list[tuple[str, str]], mode: str) -> dict:
    """In-process reference payloads keyed by file name."""
    if mode == "rewrite":
        pairs = service.iter_rewrites(named, verify=True)
    else:
        pairs = service.iter_sources(named)
    return {named[i][0]: result.to_payload() for i, result in pairs}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of ascending values."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def is_failure(payload: dict) -> bool:
    error = payload.get("error") or ""
    return error.split(":", 1)[0] in FAILURE_CODES


def answer_view(payload: dict, mode: str):
    """The fields an answer must match the reference on."""
    if mode == "rewrite":
        return (payload["error"], payload["rewritten_source"],
                [r["code"] for r in payload["rewrites"]])
    return (payload["error"],
            [(s["parallel"], s["pragma"]) for s in payload["suggestions"]])


def loops_in(payload: dict, mode: str) -> int:
    return len(payload["rewrites" if mode == "rewrite" else "suggestions"])


def compare(results: list[tuple[str, dict]], ref: dict, mode: str,
            expect_all: bool = True) -> dict:
    """Check ``(name, payload)`` results against reference payloads.

    Failed operations (serving error records) are counted, not judged.
    With ``expect_all`` every reference file must be answered exactly
    once.
    """
    seen: set[str] = set()
    wrong: list[str] = []
    bytes_differ: list[str] = []
    failed = loops = 0
    for name, payload in results:
        if name not in ref or (expect_all and name in seen):
            wrong.append(name)
            continue
        seen.add(name)
        if is_failure(payload):
            failed += 1
            continue
        if answer_view(payload, mode) != answer_view(ref[name], mode):
            wrong.append(name)
        elif (json.dumps(payload, sort_keys=True)
              != json.dumps(ref[name], sort_keys=True)):
            bytes_differ.append(name)
        loops += loops_in(payload, mode)
    missing = sorted(set(ref) - seen) if expect_all else []
    return {"files": len(results), "failed": failed, "loops": loops,
            "wrong": wrong, "missing": missing,
            "bytes_differ": bytes_differ}
