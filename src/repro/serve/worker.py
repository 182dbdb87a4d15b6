"""Shard worker: one process, one slice of the corpus, full pipeline.

A worker rebuilds the complete suggestion service from a picklable
:class:`WorkerSpec` — either by reloading the on-disk
:class:`~repro.artifacts.SuggesterBundle` the parent served from (the
cheap path: the spawn payload is one path string, the artifact loads
strictly and identically everywhere) or from directly pickled trained
models when no artifact exists (train-on-the-fly services, test stubs).
It then runs parse → encode → block-diagonal forward → fan-out
*locally* for its shard, consults and commits the shared persistent
:class:`~repro.serve.store.SuggestionStore` exactly like the in-process
path, and streams per-file results back over the result queue as they
complete.

The wire protocol carries only JSON-shaped payloads — the same shapes
the persistent store writes — never live model or AST objects:

- ``("file", sid, index, name, payload)`` — one finished file,
- ``("done", sid, stats)`` — shard complete, worker cache counters,
- ``("error", sid, traceback)`` — a soft failure with its traceback,
- ``("beat", sid)`` — liveness, sent by a background thread every
  :data:`_BEAT_S` so the supervisor can tell *slow* from *hung*,
- ``("claim", sid, index)`` — careful mode only: sent before a file is
  computed, so a crash can be blamed on exactly one input.

Careful mode (``worker_main(..., careful=True)``) is how a respawned
worker re-runs a shard that already killed a sibling: files are served
one at a time with a claim ahead of each, trading batch throughput for
per-file blame — the supervisor quarantines an input that keeps
killing workers instead of retrying it forever.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

from repro.serve import faults
from repro.serve.job import SUGGEST, Job
from repro.serve.pipeline import ServeConfig, SuggestionService
from repro.serve.store import open_store

#: seconds between liveness beats (clamped below heartbeat_s / 4)
_BEAT_S = 0.5


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild the serving service.

    Exactly one of ``bundle_path`` / ``models`` is populated:
    ``bundle_path`` ships a path to a saved bundle (directory or
    archive) that the worker loads itself; ``models`` ships the
    ``(parallel_model, clause_models)`` pair by pickle.  ``clauses``
    restricts which clause families a bundle-backed worker serves, so
    workers agree with the parent's model key.

    ``job`` (:class:`~repro.serve.job.Job`) selects what the worker
    streams back: suggestions, or rewrites applied and verified inside
    the worker — this is what distributes verification across shards.

    ``peers`` switches the worker into *remote* mode: instead of
    rebuilding a service locally it dials one of the listed ``repro
    serve`` daemons (home slot ``sid % len(peers)``, rotating past
    peers that refuse the connection) and relays the streamed results
    onto the queue — the supervisor sees the exact same message
    contract, so peer death and requeue are handled by the same
    retry/quarantine machinery as local worker death.
    ``peer_bundles`` (aligned with ``peers``) names the bundle each
    peer serves the shard from; ``peer_timeout_s`` bounds how long a
    silent peer connection is waited on before the relay gives up and
    dies for the supervisor to requeue.
    """

    config: ServeConfig
    store_root: str | None = None
    bundle_path: str | None = None
    models: tuple | None = None
    clauses: tuple[str, ...] = field(default_factory=tuple)
    job: Job = SUGGEST
    peers: tuple[str, ...] = field(default_factory=tuple)
    peer_bundles: tuple[str | None, ...] = field(default_factory=tuple)
    peer_timeout_s: float = 600.0

    def build_service(self) -> SuggestionService:
        if self.bundle_path is not None:
            from repro.artifacts import SuggesterBundle

            bundle = SuggesterBundle.load(self.bundle_path)
            parallel = bundle.parallel
            clause_models = {
                name: bundle.clause_models[name] for name in self.clauses
            }
        elif self.models is not None:
            parallel, clause_models = self.models
        else:
            raise ValueError(
                "WorkerSpec names neither a bundle path nor models"
            )
        store = (open_store(self.store_root)
                 if self.store_root is not None else None)
        return SuggestionService(parallel, dict(clause_models),
                                 self.config, store=store)


class _Heartbeat:
    """Background thread putting ``("beat", sid)`` on the queue.

    Beats come from a daemon thread, not the serving loop, so a worker
    that is merely *busy* (one huge file mid-forward) keeps beating —
    only a process that is truly wedged (or killed) goes silent and
    trips the supervisor's heartbeat timeout.
    """

    def __init__(self, sid: int, queue, interval: float) -> None:
        self._sid = sid
        self._queue = queue
        self._interval = interval
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


def _iter_results(service, spec: WorkerSpec, shard, queue, careful: bool):
    """Yield ``(local_index, result)`` for the shard.

    Batch mode runs the whole shard through the staged pipeline (best
    throughput).  Careful mode serves one file per pipeline pass with a
    ``claim`` message ahead of each, so the supervisor knows exactly
    which input was in flight if this process dies.
    """
    if not careful:
        yield from spec.job.run(service, shard.items)
        return
    for local_index, item in enumerate(shard.items):
        queue.put(("claim", shard.sid, shard.indices[local_index]))
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
    heartbeat_s = getattr(spec.config, "heartbeat_s", 30.0)
    interval = min(_BEAT_S, max(0.05, heartbeat_s / 4.0))
    heartbeat = _Heartbeat(shard.sid, queue, interval)
    heartbeat.start()
    try:
        if spec.peers:
            # Remote mode: relay the shard through a peer daemon.
            # Peer loss mid-stream is a hard death (the supervisor
            # requeues, exactly as for a local worker death); a fleet
            # with no reachable peer raises into the soft-error path
            # below, because requeuing cannot help then.
            from repro.fabric.remote import relay_shard

            relay_shard(spec, shard, queue, heartbeat, careful=careful)
            return
        service = spec.build_service()
        files_done = 0
        for local_index, result in _iter_results(service, spec, shard,
                                                 queue, careful):
            action = faults.on_worker_file(shard.sid, files_done,
                                           result.name)
            if action == "hang":
                # A real hang freezes every thread; emulate by silencing
                # the heartbeat first, or the timeout could never fire.
                heartbeat.stop()
                time.sleep(faults.HANG_S)
            elif action == "kill":
                # Flush buffered messages (emitted files, the claim)
                # to the pipe before dying: the fault contract is
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
