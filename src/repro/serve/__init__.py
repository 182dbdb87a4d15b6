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

from repro.serve.faults import Fault, FaultError, FaultPlan
from repro.serve.job import REWRITE, SUGGEST, Job
from repro.serve.parse import ParsedFile, parse_one
from repro.serve.pipeline import (
    FileSuggestions,
    ServeConfig,
    SuggestionService,
    build_service,
)
from repro.serve.plan import (
    Shard,
    auto_shards,
    plan_peer_shards,
    plan_shards,
    resolve_shards,
)
from repro.serve.protocol import MAX_FRAME_BYTES, PROTOCOL_VERSION, ProtocolError
from repro.serve.server import SuggestServer
from repro.serve.store import (
    STORE_VERSION,
    SuggestionStore,
    content_key,
    open_store,
)
from repro.serve.stream import ServeError, merge_results, stream_shards
from repro.serve.worker import WorkerSpec

__all__ = [
    "Fault",
    "FaultError",
    "FaultPlan",
    "FileSuggestions",
    "Job",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ParsedFile",
    "ProtocolError",
    "REWRITE",
    "STORE_VERSION",
    "SUGGEST",
    "ServeConfig",
    "ServeError",
    "Shard",
    "SuggestServer",
    "SuggestionService",
    "SuggestionStore",
    "WorkerSpec",
    "auto_shards",
    "build_service",
    "content_key",
    "merge_results",
    "open_store",
    "parse_one",
    "plan_peer_shards",
    "plan_shards",
    "resolve_shards",
    "stream_shards",
]
