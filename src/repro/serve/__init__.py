"""Sharded, streaming suggestion serving over files and directories.

``repro.serve`` is the throughput-oriented face of :mod:`repro.suggest`,
built as explicit stages: :mod:`~repro.serve.plan` partitions a corpus
into size-balanced shards, :mod:`~repro.serve.worker` runs the whole
parse → encode → block-diagonal forward → fan-out pipeline inside each
worker process, and :mod:`~repro.serve.stream` streams per-file results
back over a result queue as they complete — ordered or as-completed.
:meth:`SuggestionService.stream_sources` is the streaming API; its
:class:`Job` picks suggestions (the default) or verified rewrites, the
one choice every layer passes through.  A :class:`SuggestionStore` persists parse
results and finished suggestions across processes, keyed by file
content hash and model fingerprint, so warm runs over unchanged files
skip both the frontend and every model forward — and every shard
worker consults and commits the same store.

The same pipeline is addressable over the network:
:mod:`~repro.serve.protocol` defines the versioned, schema-checked
wire frames (length-prefixed JSON), :class:`SuggestServer`
(``repro serve --listen``) is the long-lived daemon multiplexing many
concurrent clients and corpora over one warm service, and
:mod:`repro.client` is the matching client library — remote results
are byte-identical to the in-process path.

Failure is survived, not just reported: :mod:`~repro.serve.stream`
supervises the shard workers (retry with backoff, heartbeat timeouts,
per-file blame and quarantine), :mod:`repro.client` carries a
``RetryPolicy`` for busy/restarting daemons, and
:mod:`~repro.serve.faults` injects deterministic worker kills, hangs,
torn store writes and refused bundle loads so all of it is testable.
"""

from __future__ import annotations

import importlib
from typing import Any

#: name -> (module, attribute) for lazy re-exports: importing the
#: package loads no stage, so :mod:`repro.client` stays free of the
#: model stack and in-process serving free of the daemon's asyncio
_EXPORTS = {
    "Fault": ("repro.serve.faults", "Fault"),
    "FaultPlan": ("repro.serve.faults", "FaultPlan"),
    "FileSuggestions": ("repro.serve.pipeline", "FileSuggestions"),
    "Job": ("repro.serve.job", "Job"),
    "PROTOCOL_VERSION": ("repro.serve.protocol", "PROTOCOL_VERSION"),
    "REWRITE": ("repro.serve.job", "REWRITE"),
    "SUGGEST": ("repro.serve.job", "SUGGEST"),
    "ServeConfig": ("repro.serve.pipeline", "ServeConfig"),
    "ServeError": ("repro.serve.stream", "ServeError"),
    "SuggestServer": ("repro.serve.server", "SuggestServer"),
    "SuggestionService": ("repro.serve.pipeline", "SuggestionService"),
    "SuggestionStore": ("repro.serve.store", "SuggestionStore"),
    "WorkerSpec": ("repro.serve.pipeline", "WorkerSpec"),
    "auto_shards": ("repro.serve.plan", "auto_shards"),
    "build_service": ("repro.serve.pipeline", "build_service"),
    "content_key": ("repro.serve.store", "content_key"),
    "merge_results": ("repro.serve.stream", "merge_results"),
    "open_store": ("repro.serve.store", "open_store"),
    "parse_one": ("repro.serve.parse", "parse_one"),
    "plan_shards": ("repro.serve.plan", "plan_shards"),
    "resolve_shards": ("repro.serve.plan", "resolve_shards"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.serve' has no attribute {name!r}") from None
    return getattr(importlib.import_module(module_name), attr)


def __dir__() -> list[str]:
    return __all__
