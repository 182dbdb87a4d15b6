"""Deterministic fault injection for the serving stack.

Chaos testing only proves anything when the chaos is *reproducible*: a
:class:`FaultPlan` is an explicit, seeded list of faults — kill shard
worker N after it finished M files, hang a worker, delay or abort a
store write, tear a store entry mid-write, refuse a bundle load — that
the serving code consults at a handful of instrumented sites.  The
same plan against the same corpus always injects the same faults at
the same points, so recovery tests can assert byte-identity instead of
"it probably survived".

Activation is explicit and double-keyed:

- in-process: :func:`activate` / :func:`deactivate` (tests), or
- across process boundaries: the ``REPRO_FAULTS`` environment variable
  carrying ``FaultPlan.to_json()`` — shard *worker* processes inherit
  the parent's environment, so one env var arms the whole process
  tree (this is how the chaos smoke script faults a real daemon's
  workers).

When nothing is armed, every hook is a module-global ``None`` check
and an immediate return — the serving hot path pays one pointer
comparison per *file* (not per loop), which is below measurement
noise (``BENCH_*`` gates stay green with the hooks compiled in).

Fault kinds (``Fault.kind``):

``kill-worker``
    the shard worker whose ``sid`` matches dies via ``SIGKILL`` after
    emitting ``after_files`` results — the hard-death case (segfault,
    OOM-kill) the supervisor must requeue.
``hang-worker``
    the matching worker stops heartbeating and sleeps forever after
    ``after_files`` results — the case only a heartbeat timeout can
    detect.
``poison-file``
    any worker dies (``SIGKILL``) the moment it is about to emit a
    file whose name contains ``match`` — models the reproducible
    per-input crash that must end in quarantine, not an aborted run.
``delay-write``
    a store write whose path contains ``match`` sleeps ``seconds``
    first (lock-holder stalls, slow disks).
``abort-write``
    a store write whose path contains ``match`` raises ``OSError``
    before anything lands on disk.
``tear-entry``
    a store write whose path contains ``match`` leaves a *truncated*
    entry at the final path instead of the real payload — what a
    crash between write and rename can leave behind; readers must
    degrade to recompute and ``repro cache fsck`` must remove it.
``refuse-bundle``
    loading a bundle whose path contains ``match`` raises — the
    corrupt-artifact-at-startup case the daemon must degrade around.

``times`` bounds how often one fault fires (default 1); counters are
per-process, so "kill the worker once" means the *respawned* worker
survives.  Worker faults that match a fabric relay fire in the
coordinator, whose relay threads share its firing counters: a
``poison-file`` needs one firing per relay it should end.  ``seed``
keys the deterministic jitter helpers.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
from dataclasses import dataclass

#: environment variable carrying an armed plan across process spawns
ENV_VAR = "REPRO_FAULTS"

KINDS = (
    "kill-worker",
    "hang-worker",
    "poison-file",
    "delay-write",
    "abort-write",
    "tear-entry",
    "refuse-bundle",
)

#: how long a hung worker sleeps — effectively forever next to any
#: heartbeat timeout, but bounded so a leaked process still dies
HANG_S = 3600.0


class FaultError(RuntimeError):
    """An injected failure (aborted write, refused bundle load)."""


@dataclass(frozen=True)
class Fault:
    """One injectable fault; see the module docstring for kinds."""

    kind: str
    sid: int | None = None      # worker faults: which shard id
    after_files: int = 0        # worker faults: results before firing
    match: str = ""             # substring over file name / path
    seconds: float = 0.0        # delay-write
    times: int = 1              # max firings per process

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {KINDS}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "sid": self.sid,
                "after_files": self.after_files, "match": self.match,
                "seconds": self.seconds, "times": self.times}

    @classmethod
    def from_dict(cls, payload: dict) -> "Fault":
        return cls(
            kind=payload["kind"],
            sid=payload.get("sid"),
            after_files=int(payload.get("after_files", 0)),
            match=str(payload.get("match", "")),
            seconds=float(payload.get("seconds", 0.0)),
            times=int(payload.get("times", 1)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered set of faults to inject."""

    faults: tuple[Fault, ...] = ()
    seed: int = 0

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "faults": [f.to_dict() for f in self.faults],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, raw: str) -> "FaultPlan":
        try:
            payload = json.loads(raw)
            faults = tuple(Fault.from_dict(f)
                           for f in payload.get("faults", []))
            return cls(faults=faults, seed=int(payload.get("seed", 0)))
        except (json.JSONDecodeError, KeyError, TypeError,
                ValueError) as exc:
            raise ValueError(f"invalid fault plan: {exc}") from exc

    def env(self) -> dict[str, str]:
        """Environment entries that arm this plan in a child process."""
        return {ENV_VAR: self.to_json()}

    def jitter(self, key: str) -> float:
        """Deterministic [0, 1) jitter derived from (seed, key)."""
        digest = hashlib.sha256(
            f"{self.seed}:{key}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64


class _Armed:
    """An active plan plus its per-process firing counters."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.fired = [0] * len(plan.faults)
        # fabric relay threads consult one plan concurrently
        self._lock = threading.Lock()

    def take(self, predicate) -> Fault | None:
        """First matching fault with firings left; consumes one."""
        with self._lock:
            for i, fault in enumerate(self.plan.faults):
                if self.fired[i] < fault.times and predicate(fault):
                    self.fired[i] += 1
                    return fault
        return None


#: the armed plan, or None — every hook checks this one global first
_armed: _Armed | None = None
_env_checked = False


def activate(plan: FaultPlan) -> None:
    """Arm ``plan`` in this process (tests, CLI ``--faults``)."""
    global _armed
    _armed = _Armed(plan)


def deactivate() -> None:
    """Disarm; also stops re-reading :data:`ENV_VAR`."""
    global _armed, _env_checked
    _armed = None
    _env_checked = True


def reset() -> None:
    """Back to the pristine lazy state (tests)."""
    global _armed, _env_checked
    _armed = None
    _env_checked = False


def _current() -> _Armed | None:
    """The armed plan, arming lazily from the environment once.

    Worker processes inherit the parent's environment, so a plan armed
    via :data:`ENV_VAR` is live in every shard worker without any
    spawn-path plumbing.
    """
    global _armed, _env_checked
    if _armed is not None:
        return _armed
    if not _env_checked:
        _env_checked = True
        raw = os.environ.get(ENV_VAR)
        if raw:
            _armed = _Armed(FaultPlan.from_json(raw))
    return _armed


def active() -> bool:
    """Whether any plan is armed (lazily consulting the env)."""
    return _current() is not None


# -- hooks (call sites are the instrumented serving layers) ------------------


def on_worker_file(sid: int, files_done: int, name: str) -> str | None:
    """Worker hook: about to emit result ``files_done`` named ``name``.

    Returns the action the worker must take: ``"kill"`` (SIGKILL
    itself; a fabric relay thread just ends), ``"hang"`` (stop
    heartbeating and sleep), or ``None``.
    """
    armed = _current()
    if armed is None:
        return None
    fault = armed.take(lambda f: (
        (f.kind == "kill-worker" and f.sid == sid
         and files_done >= f.after_files)
        or (f.kind == "hang-worker" and f.sid == sid
            and files_done >= f.after_files)
        or (f.kind == "poison-file" and f.match and f.match in name)
    ))
    if fault is None:
        return None
    if fault.kind == "hang-worker":
        return "hang"
    return "kill"


def kill_self() -> None:     # pragma: no cover - the process dies
    """Die the hard way: no atexit, no queue flush, no traceback."""
    os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(HANG_S)       # SIGKILL delivery is asynchronous


def on_store_write(path: str) -> str | None:
    """Store hook: about to write ``path``.

    ``"abort"`` → the caller must raise before writing; ``"tear"`` →
    the caller must leave a truncated entry instead of the payload;
    ``None`` → proceed (any delay already slept here).
    """
    armed = _current()
    if armed is None:
        return None
    fault = armed.take(lambda f: (
        f.kind in ("delay-write", "abort-write", "tear-entry")
        and (not f.match or f.match in path)
    ))
    if fault is None:
        return None
    if fault.kind == "delay-write":
        time.sleep(fault.seconds)
        return None
    if fault.kind == "abort-write":
        return "abort"
    return "tear"


def on_bundle_load(path: str) -> None:
    """Bundle hook: raise :class:`FaultError` when the load is refused."""
    armed = _current()
    if armed is None:
        return
    fault = armed.take(lambda f: (
        f.kind == "refuse-bundle" and (not f.match or f.match in str(path))
    ))
    if fault is not None:
        raise FaultError(
            f"injected bundle-load refusal for {path}")
