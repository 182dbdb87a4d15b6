"""Result streaming, supervision, and merge for sharded serving.

:func:`stream_shards` is the parent side of the sharded pipeline: it
plans the corpus into size-balanced shards (:mod:`repro.serve.plan`),
starts one worker per shard — a process (:mod:`repro.serve.worker`),
or a thread relaying a remote peer (:mod:`repro.fabric.remote`) — and
yields ``(input_index, FileSuggestions)`` pairs as workers stream them
back over a shared result queue — the first finished file surfaces long
before the last shard completes.  :func:`merge_results` turns that
index-tagged stream into the public ordered / as-completed iterators.

The parent is a *supervisor*, not just a demultiplexer.  A worker that
dies hard (segfault, SIGKILL, OOM) or stops heartbeating is detected,
its unfinished files are requeued onto a respawned worker running in
careful (one file at a time, in shard order) mode, with bounded
retries and exponential backoff; completed work is never redone because
finished files were already streamed (and committed to the shared
:class:`~repro.serve.store.SuggestionStore`).  Per-file blame tracking
turns a *reproducibly* lethal input into a quarantine: a file that
kills :data:`QUARANTINE_AFTER` workers is emitted as a structured
per-file error record (``error="quarantined: ..."``) instead of
aborting the run, and a lineage that exhausts its retry budget emits
``error="worker-retry: ..."`` records for whatever remained.  Soft
failures — an exception inside a worker — still travel back with their
traceback and raise :class:`ServeError`: they indicate a bug, not an
environment fault, and retrying a bug is noise.

Environments that cannot spawn processes at all degrade to the
in-process pipeline rather than failing the request, mirroring the
parse stage's fallback; remote shards never need a process.
"""

from __future__ import annotations

# the result queue's module (and the multiprocessing.util and
# subprocess it imports) loads with this one, not inside a sharded pass
import multiprocessing.queues
import time
from collections.abc import Iterator
from queue import Empty
from typing import TYPE_CHECKING

from repro.serve.plan import Shard, plan_shards

if TYPE_CHECKING:
    from repro.serve.pipeline import FileSuggestions

#: seconds between liveness checks while the result queue is idle
_POLL_S = 0.25
#: seconds to wait for a worker to exit after its shard reported done
_JOIN_S = 10.0
#: a file that was in flight in this many dying workers is quarantined
QUARANTINE_AFTER = 2
#: ceiling on the exponential respawn backoff
_BACKOFF_CAP_S = 2.0


class ServeError(RuntimeError):
    """A shard worker failed or vanished while serving a corpus."""


def merge_results(
    results: Iterator[tuple[int, FileSuggestions]], *,
    ordered: bool = True,
) -> Iterator[FileSuggestions]:
    """Strip the index tags from a completion stream.

    ``ordered=True`` buffers out-of-order arrivals and emits strictly
    by input index; ``ordered=False`` passes results through in
    completion order (lowest first-result latency).
    """
    if not ordered:
        for _, fs in results:
            yield fs
        return
    buffered: dict[int, FileSuggestions] = {}
    next_index = 0
    for index, fs in results:
        buffered[index] = fs
        while next_index in buffered:
            yield buffered.pop(next_index)
            next_index += 1
    # A gap would mean an upstream bug; still flush what arrived.
    for index in sorted(buffered):
        yield buffered[index]


class _Worker:
    """Supervisor-side state for one live worker; ``handle`` is a
    process or a relay thread with the same poll/kill/join calls."""

    def __init__(self, handle, shard, *, careful: bool,
                 lineage: int) -> None:
        self.handle = handle
        self.shard = shard
        self.careful = careful
        #: original sid of the first worker in this retry chain — the
        #: retry budget is per lineage, not per respawn
        self.lineage = lineage
        self.last_seen = time.monotonic()


def _error_record(revive, name: str, code: str, detail: str):
    """A structured per-file failure in the caller's result type.

    The payload carries the union of the fields every revive function
    reads (suggestions + rewrites), so the same record shape works for
    both the suggest and the verified-rewrite stream.
    """
    payload = {"error": f"{code}: {detail}", "suggestions": [],
               "rewrites": [], "rewritten_source": None}
    return revive(name, payload)


def stream_shards(
    spec, named_sources: list[tuple[str, str]], n_shards: int,
    on_stats=None,
) -> Iterator[tuple[int, object]]:
    """Run ``named_sources`` through ``n_shards`` supervised workers.

    ``spec.start(shard, queue, careful)`` starts each worker.  A
    :class:`~repro.serve.pipeline.WorkerSpec` worker rebuilds the full
    service, runs the spec's job — parse → encode → forward → fan-out,
    plus verified rewriting for a rewrite job — locally for its shard,
    commits to the shared persistent store, and streams per-file
    results back as they complete (a fabric relay streams a peer's
    instead); the job revives each one from its ``(name, payload)``
    wire form.
    ``on_stats`` receives each worker's ``cache_stats()`` dict when its
    shard finishes, so the parent can fold shard work into its own
    counters.

    Retry behaviour is governed by the spec's
    :class:`~repro.serve.pipeline.ServeConfig`: ``max_retries`` worker
    deaths per lineage, ``heartbeat_s`` silence before a live-but-mute
    worker is presumed hung and killed, ``retry_backoff_s`` base of the
    exponential respawn delay.
    """
    revive = spec.job.revive
    max_retries = spec.config.max_retries
    heartbeat_s = spec.config.heartbeat_s
    backoff_s = spec.config.retry_backoff_s

    shards = plan_shards(list(named_sources), n_shards)
    if not shards:
        return
    items_by_index: dict[int, tuple[str, str]] = {}
    for shard in shards:
        for index, item in zip(shard.indices, shard.items):
            items_by_index[index] = item

    queue = multiprocessing.get_context().Queue()
    workers: dict[int, _Worker] = {}
    # fresh sids for respawned shards, so per-sid fault plans and
    # worker messages never alias a dead worker's
    next_sid_box = [max(s.sid for s in shards) + 1]
    received: set[int] = set()
    blame: dict[int, int] = {}
    deaths: dict[int, int] = {}

    def _spawn(shard: Shard, *, careful: bool, lineage: int) -> None:
        workers[shard.sid] = _Worker(spec.start(shard, queue, careful),
                                     shard, careful=careful,
                                     lineage=lineage)

    try:
        for shard in shards:
            _spawn(shard, careful=False, lineage=shard.sid)
    except (OSError, PermissionError):
        # No process support here (sandboxes, exhausted pids): serve
        # in-process instead of failing the request.
        for worker in workers.values():
            worker.handle.terminate()
        service = spec.build_service()
        yield from spec.job.run(service, list(named_sources))
        if on_stats is not None:
            on_stats(service.cache_stats())
        return

    def _handle(message) -> Iterator[tuple[int, FileSuggestions]]:
        """Dispatch one worker message, yielding any finished file."""
        kind, sid, *rest = message
        worker = workers.get(sid)
        if worker is not None:
            worker.last_seen = time.monotonic()
        if kind == "beat":
            return
        if kind == "file":
            index, name, payload = rest
            # Late messages from an already-buried worker still carry
            # valid work — accept anything not yet delivered.
            if index not in received:
                received.add(index)
                yield index, revive(name, payload)
        elif kind == "done":
            if worker is not None:
                del workers[sid]
                worker.handle.join(timeout=_JOIN_S)
                if on_stats is not None:
                    on_stats(rest[0])
        elif kind == "error":
            raise ServeError(f"shard worker {sid} failed:\n{rest[0]}")
        else:  # pragma: no cover - protocol safety net
            raise ServeError(f"unknown worker message kind {kind!r}")

    def _bury(sid: int) -> Iterator[tuple[int, FileSuggestions]]:
        """Handle one dead worker: blame, quarantine, respawn."""
        worker = workers.pop(sid)
        worker.handle.join(timeout=_JOIN_S)
        unfinished = [i for i in worker.shard.indices
                      if i not in received]
        if not unfinished:
            # Died after its last file (the "done" message was lost):
            # the work arrived, only the stats did not.  Not a retry.
            return
        count = deaths[worker.lineage] = deaths.get(worker.lineage,
                                                    0) + 1
        if worker.careful:
            # Careful mode pins the in-flight file: careful workers
            # serve one file at a time in shard order and queue each
            # result before the next file starts, so the first
            # unfinished file was in flight — or its result died in
            # the process's queue buffer, which under-counts the true
            # killer by a retry round but never smears innocents into
            # quarantine.
            suspect = unfinished[0]
            blame[suspect] = blame.get(suspect, 0) + 1
        else:
            # Batch mode: any unfinished file could be the killer.
            for index in unfinished:
                blame[index] = blame.get(index, 0) + 1
        if count > max_retries:
            for index in unfinished:
                received.add(index)
                yield index, _error_record(
                    revive, items_by_index[index][0], "worker-retry",
                    f"shard worker died {count} times; retry budget "
                    f"({max_retries}) exhausted")
            return
        remaining: list[int] = []
        for index in unfinished:
            if blame.get(index, 0) >= QUARANTINE_AFTER:
                received.add(index)
                yield index, _error_record(
                    revive, items_by_index[index][0], "quarantined",
                    f"file was in flight in {blame[index]} worker "
                    f"deaths; not retrying")
            else:
                remaining.append(index)
        if not remaining:
            return
        delay = min(_BACKOFF_CAP_S, backoff_s * (2 ** (count - 1)))
        if delay > 0:
            time.sleep(delay)
        shard = Shard(sid=next_sid_box[0])
        next_sid_box[0] += 1
        for index in remaining:
            shard.add(index, items_by_index[index])
        try:
            _spawn(shard, careful=True, lineage=worker.lineage)
        except (OSError, PermissionError):
            for index in remaining:
                received.add(index)
                yield index, _error_record(
                    revive, items_by_index[index][0], "worker-retry",
                    "could not respawn a shard worker")

    try:
        while workers:
            try:
                message = queue.get(timeout=_POLL_S)
            except Empty:
                now = time.monotonic()
                suspects = []
                for sid, worker in list(workers.items()):
                    if worker.handle.exitcode is not None:
                        suspects.append(sid)
                    elif now - worker.last_seen > heartbeat_s:
                        # Alive but silent past the heartbeat window:
                        # presumed hung; reap it and requeue its work.
                        worker.handle.kill()
                        suspects.append(sid)
                if suspects:
                    # Drain messages that raced the exit before judging
                    # what each dead worker actually left unfinished.
                    for message in _drain(queue):
                        yield from _handle(message)
                    for sid in suspects:
                        if sid in workers:
                            yield from _bury(sid)
                continue
            yield from _handle(message)
    finally:
        for worker in workers.values():
            if worker.handle.is_alive():
                worker.handle.terminate()
                worker.handle.join(timeout=_JOIN_S)
        queue.close()


def _drain(queue) -> list:
    messages = []
    while True:
        try:
            messages.append(queue.get_nowait())
        except Empty:
            return messages
