"""Shard worker: one process, one slice of the corpus, full pipeline.

:meth:`~repro.serve.pipeline.WorkerSpec.start` forks
:func:`worker_main`, which rebuilds the complete suggestion service
from the spec's in-memory models — inherited for free under ``fork``,
pickled under ``spawn`` — so every worker serves exactly the weights
the parent serves, however they were loaded, and never touches the
bundle on disk.  It pins the OpenBLAS
numpy loaded to one thread first: N workers already fill N cores.  It
then runs parse → encode → block-diagonal forward → fan-out *locally*
for its shard, consults and commits the shared persistent
:class:`~repro.serve.store.SuggestionStore` exactly like the in-process
path, and streams per-file results back over the result queue as they
complete.

The wire protocol carries only JSON-shaped payloads — the same shapes
the persistent store writes — never live model or AST objects:

- ``("file", sid, index, name, payload)`` — one finished file,
- ``("done", sid, stats)`` — shard complete, worker cache counters,
- ``("error", sid, traceback)`` — a soft failure with its traceback,
- ``("beat", sid)`` — liveness, sent by a background thread every
  :data:`_BEAT_S` so the supervisor can tell *slow* from *hung*.

Careful mode (``worker_main(..., careful=True)``) is how a respawned
worker re-runs a shard that already killed a sibling: files are served
one at a time, in shard order, trading batch throughput for per-file
blame.  Each file's result is queued before the next file starts, so
when the worker dies the supervisor blames the first file without a
result, and quarantines an input that keeps killing workers instead
of retrying it forever.  Remote
shards speak the same contract from coordinator threads
(:mod:`repro.fabric.remote`).
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import traceback
from typing import TYPE_CHECKING

from repro.serve import _blas, faults

if TYPE_CHECKING:
    from repro.serve.pipeline import WorkerSpec

#: seconds between liveness beats (clamped below heartbeat_s / 4)
_BEAT_S = 0.5


class _Heartbeat:
    """Background thread putting ``("beat", sid)`` on the queue.

    Beats come from a daemon thread, not the serving loop, so a worker
    that is merely *busy* (one huge file mid-forward) keeps beating —
    only a process that is truly wedged (or killed) goes silent and
    trips the supervisor's heartbeat timeout.
    """

    def __init__(self, sid: int, queue, heartbeat_s: float) -> None:
        self._sid = sid
        self._queue = queue
        self._interval = min(_BEAT_S, max(0.05, heartbeat_s / 4.0))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._queue.put(("beat", self._sid))
            except (OSError, ValueError):   # queue torn down mid-beat
                return


def _iter_results(service, spec: WorkerSpec, shard, careful: bool):
    """Yield ``(local_index, result)`` for the shard.

    Batch mode runs the whole shard through the staged pipeline (best
    throughput).  Careful mode serves one file per pipeline pass, in
    shard order, so the supervisor knows exactly which input was in
    flight if this process dies.
    """
    if not careful:
        yield from spec.job.run(service, shard.items)
        return
    for local_index, item in enumerate(shard.items):
        for _, result in spec.job.run(service, [item]):
            yield local_index, result


def worker_main(spec: WorkerSpec, shard, queue,
                careful: bool = False) -> None:
    """Process entrypoint: serve one shard, streaming results back.

    Any soft failure — spec resolution, artifact loading, the pipeline
    itself — is reported as an ``("error", ...)`` message carrying the
    traceback, and the process exits nonzero so the parent detects the
    death even if the message is lost.  Hard deaths (SIGKILL, OOM) skip
    all of this; the supervisor catches them via exit codes and the
    heartbeat going silent.
    """
    # The heap inherited under fork (modules, models) lives as long as
    # the worker: freeze it, so the collector never walks it and a
    # full collection sees only the shard's own objects
    gc.freeze()
    # N shard workers already fill N cores; per-worker BLAS pools
    # would only oversubscribe them
    _blas.pin_one_thread()
    heartbeat = _Heartbeat(shard.sid, queue, spec.config.heartbeat_s)
    heartbeat.start()
    try:
        service = spec.build_service()
        files_done = 0
        for local_index, result in _iter_results(service, spec, shard,
                                                 careful):
            action = faults.on_worker_file(shard.sid, files_done,
                                           result.name)
            if action == "hang":
                # A real hang freezes every thread; emulate by silencing
                # the heartbeat first, or the timeout could never fire.
                heartbeat.stop()
                time.sleep(faults.HANG_S)
            elif action == "kill":
                # Flush buffered messages (emitted files) to the
                # pipe before dying: the fault contract is
                # "killed after N files", so those N must be delivered
                # — SIGKILL would otherwise take the queue's feeder
                # thread down with its buffer.
                queue.close()
                queue.join_thread()
                faults.kill_self()
            queue.put(("file", shard.sid, shard.indices[local_index],
                       result.name, result.to_payload()))
            files_done += 1
        queue.put(("done", shard.sid, service.cache_stats()))
    except BaseException:
        queue.put(("error", shard.sid, traceback.format_exc()))
        sys.exit(1)
    finally:
        heartbeat.stop()
