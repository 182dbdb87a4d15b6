"""Remote shards: coordinator threads that relay a shard through a peer.

:func:`stream_fabric` plans the corpus into one shard per peer and
hands it to the unchanged :func:`~repro.serve.stream.stream_shards`
supervisor with a :class:`RelaySpec`, whose ``start`` runs each shard
as a relay thread of the coordinator — nothing is forked.  The relay
dials a ``repro serve`` daemon and forwards its streamed
:class:`~repro.serve.protocol.FileResult` frames onto the supervisor
queue verbatim, with the queue contract of a local worker (``file`` /
``claim`` / ``done`` plus a heartbeat).

Peer failure becomes worker failure: a peer that drops mid-stream or
goes silent past the client timeout ends the relay without ``done``,
so requeue onto a careful respawn, bounded retries and quarantine
apply unchanged.  Dialing rotates past refused connections
(:func:`_dial`), so a respawned relay lands on a survivor; only a
fleet with *no* reachable peer is a soft ``error`` that aborts the
run.  A relay the supervisor kills cuts its connection, goes silent
and never reconnects.  Worker faults that match a relay fire in the
coordinator: ``kill-worker`` and ``poison-file`` end it like a lost
peer, ``hang-worker`` silences it until the heartbeat timeout.

Results are byte-identical to the in-process path at every peer count:
peers serve byte-identically, and the relay never touches a payload.
"""

from __future__ import annotations

import threading
import traceback
from collections.abc import Iterator
from dataclasses import dataclass

from repro.client import ClientError, RetryPolicy, connect
from repro.serve import faults
from repro.serve.job import SUGGEST, Job
from repro.serve.pipeline import ServeConfig
from repro.serve.plan import plan_peer_shards
from repro.serve.stream import merge_results, stream_shards
from repro.serve.worker import _Heartbeat

#: connect attempts per relay incarnation — kept small because the
#: supervisor's retry/requeue loop is the real (per-lineage) budget
_RELAY_ATTEMPTS = 3


@dataclass(frozen=True)
class RelaySpec:
    """The fleet a coordinator relays shards through.

    ``peer_bundles`` (aligned with ``peers``) names the bundle each
    peer serves the shard from; empty means every peer's default.
    ``config`` supplies the supervisor's retry and heartbeat knobs.
    """

    config: ServeConfig
    job: Job
    peers: tuple[str, ...]
    peer_bundles: tuple[str | None, ...] = ()

    def start(self, shard, queue, careful: bool) -> "_Relay":
        relay = _Relay(self, shard, queue, careful)
        relay.start()
        return relay


def _dial(spec: RelaySpec, sid: int):
    """Connect to the first reachable peer, starting at ``sid``'s slot.

    Rotation is what turns a dead peer into a failover instead of a
    quarantine: the shard's home slot is ``sid % len(peers)``, and a
    refused connection moves one slot over rather than ending the
    relay — so a fleet keeps serving as long as *any* peer answers.
    Raises ``no-peers`` when none does.  Returns ``(client,
    bundle_name)`` with the bundle aligned to the peer that answered.
    """
    last_exc: Exception | None = None
    for attempt in range(len(spec.peers)):
        slot = (sid + attempt) % len(spec.peers)
        bundle = spec.peer_bundles[slot] if spec.peer_bundles else None
        try:
            client = connect(
                spec.peers[slot],
                retry=RetryPolicy(max_attempts=_RELAY_ATTEMPTS, seed=sid),
                client_id=f"repro.fabric/shard{sid}")
            return client, bundle
        except (ClientError, OSError) as exc:
            last_exc = exc
    raise ClientError(
        f"no reachable peer among {list(spec.peers)}: {last_exc}",
        code="no-peers")


class _Relay(threading.Thread):
    """One remote shard, relayed by a coordinator thread.

    The supervisor polls, kills and joins it like a worker process:
    ``exitcode`` is None while it runs, 0 after ``done`` and 1 after
    any other ending.  Careful mode issues one request per file with a
    claim ahead of each, preserving per-file blame across the wire.
    """

    def __init__(self, spec: RelaySpec, shard, queue,
                 careful: bool) -> None:
        super().__init__(name=f"repro-relay-{shard.sid}", daemon=True)
        self._spec = spec
        self._shard = shard
        self._queue = queue
        self._careful = careful
        self._killed = threading.Event()
        self._client = None
        self.exitcode: int | None = None

    def kill(self) -> None:
        """The relay's SIGKILL: silent from here on, never reconnects."""
        self._killed.set()
        # read after set(): a client published later meets the flag
        # at the relay's next check instead
        client = self._client
        if client is not None:
            client.abort()

    terminate = kill

    def run(self) -> None:
        sid = self._shard.sid
        heartbeat = _Heartbeat(sid, self._queue,
                               self._spec.config.heartbeat_s)
        heartbeat.start()
        try:
            if self._relay(heartbeat):
                self._queue.put(("done", sid, {}))
                self.exitcode = 0
        except Exception as exc:
            # a lost peer ends the relay like a dead worker (requeue);
            # an unreachable fleet or a bug is a soft error, because
            # requeuing can neither conjure a daemon nor fix a bug
            lost = (isinstance(exc, (ClientError, OSError))
                    and getattr(exc, "code", "") != "no-peers")
            if not lost and not self._killed.is_set():
                self._queue.put(("error", sid, traceback.format_exc()))
        finally:
            heartbeat.stop()
            if self._client is not None:
                self._client.close()
            if self.exitcode is None:
                self.exitcode = 1

    def _relay(self, heartbeat: _Heartbeat) -> bool:
        """Stream the shard onto the queue; False if it ended early."""
        shard, sid = self._shard, self._shard.sid
        self._client, bundle = _dial(self._spec, sid)
        batches = ([[i] for i in range(len(shard.items))]
                   if self._careful else [range(len(shard.items))])
        files_done = 0
        for batch in batches:
            if self._killed.is_set():
                return False
            if self._careful:
                self._queue.put(("claim", sid, shard.indices[batch[0]]))
            request = self._spec.job.request(
                sources=tuple(shard.items[i] for i in batch),
                bundle=bundle, ordered=False, stream=True)
            for frame in self._client.stream_request(request):
                action = faults.on_worker_file(sid, files_done,
                                               frame.name)
                if action == "hang":
                    heartbeat.stop()
                    self._killed.wait(faults.HANG_S)
                if action is not None or self._killed.is_set():
                    return False
                self._queue.put(("file", sid,
                                 shard.indices[batch[frame.index]],
                                 frame.name, frame.payload))
                files_done += 1
        return True


def stream_fabric(
    peers, named_sources, *, job: Job = SUGGEST,
    peer_bundles=(), ordered: bool = True,
    config: ServeConfig | None = None,
) -> Iterator:
    """Fan ``(name, source)`` pairs out across remote peer daemons.

    Yields ``job``'s results exactly as the in-process
    ``stream_sources`` would — byte-identical results, same ordered /
    as-completed semantics — with the compute happening on the peers
    and peer loss handled by requeue.
    ``peer_bundles`` (from :func:`~repro.fabric.cas.provision_peers`)
    names the bundle each peer serves; empty means every peer's
    default.  ``config`` supplies the supervision knobs
    (``max_retries``, ``heartbeat_s``, ``retry_backoff_s``).
    """
    peers = tuple(peers)
    if not peers:
        raise ValueError("stream_fabric needs at least one peer")
    peer_bundles = tuple(peer_bundles)
    if peer_bundles and len(peer_bundles) != len(peers):
        raise ValueError("peer_bundles must align with peers")
    spec = RelaySpec(config=config if config is not None else ServeConfig(),
                     job=job, peers=peers, peer_bundles=peer_bundles)
    named = [(str(name), source) for name, source in named_sources]
    n_shards = plan_peer_shards(len(peers), named)
    return merge_results(stream_shards(spec, named, n_shards),
                         ordered=ordered)
