"""Network ``SuggestionStore``: one warm cache shared fleet-wide.

:class:`NetworkStore` subclasses the on-disk
:class:`~repro.serve.store.SuggestionStore` and overrides only
transport: ``_load``/``_save`` under the counted ``get``/``put``, and
the ``gc``/``fsck``/``describe`` maintenance ops.  Its named
``get_*``/``put_*`` layer methods and its hit/miss/write-error
counters are the disk store's own; every operation runs against a
``repro serve`` daemon's store over the wire
(:class:`~repro.serve.protocol.StoreOp`).
The daemon runs the real on-disk store, so the atomic-commit contract
(tmp + rename, torn entries degrade to misses) is *inherited*, not
re-implemented, and a corpus one peer just computed is warm for every
other peer pointing its ``--cache-dir net:ADDR`` at the same daemon.

Failure semantics follow the store's "accelerator, not product" rule:
a network failure on ``get`` degrades to a miss, on ``put`` to a
``write_errors`` count — a dead cache daemon slows a run down, it
never fails one.  Maintenance operations (``gc``/``fsck``/
``describe``) raise instead: an operator pruning a cache must know
the cache was unreachable.
"""

from __future__ import annotations

from repro.client import Client, ClientError, RetryPolicy, connect
from repro.serve.store import SuggestionStore

#: codes that mean the daemon will never serve store ops on this
#: connection — reconnecting cannot help, so the store goes dormant
_FATAL_CODES = ("fabric-unsupported", "no-store", "protocol-mismatch",
                "bad-address")


class NetworkStore(SuggestionStore):
    """Store backend speaking the daemon's store operations."""

    def __init__(self, address: str, *, timeout: float = 60.0,
                 retry: RetryPolicy | None = None) -> None:
        # ``base`` is the spec a shard worker re-opens this backend from
        super().__init__(f"net:{address}")
        self.address = address
        self.timeout = timeout
        self.retry = retry
        self._client: Client | None = None
        #: a non-transient refusal was seen (no store on the daemon,
        #: capability missing): serve misses instead of re-dialing
        self._dead = False

    # -- connection plumbing -------------------------------------------------

    def _connect(self) -> Client:
        if self._client is None:
            client = connect(self.address, timeout=self.timeout,
                             retry=self.retry,
                             client_id="repro.netstore")
            if not client.capabilities.get("network_store"):
                client.close()
                raise ClientError(
                    f"daemon at {self.address} has no store to share "
                    f"(started without --cache-dir?)", code="no-store")
            self._client = client
        return self._client

    def _drop(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except Exception:
                pass
            self._client = None

    def close(self) -> None:
        self._drop()

    def _op(self, op: str, **kw):
        """One store op, raising on failure (maintenance semantics)."""
        try:
            return self._connect().store_op(op, **kw)
        except (ClientError, OSError) as exc:
            self._drop()
            if getattr(exc, "code", None) in _FATAL_CODES:
                self._dead = True
            raise

    # -- transport under the counted get/put (degrading, like disk) ----------

    def _load(self, layer: str, key: str,
              model_key: str | None) -> dict | None:
        if self._dead:
            return None
        try:
            return self._op("get", layer=layer, key=key,
                            model_key=model_key).entry
        except (ClientError, OSError):
            return None

    def _save(self, layer: str, key: str, model_key: str | None,
              payload: dict) -> bool:
        if self._dead:
            return False
        try:
            self._op("put", layer=layer, key=key, entry=payload,
                     model_key=model_key)
        except (ClientError, OSError):
            return False
        return True

    # -- maintenance (raising: operators must see failures) ------------------

    def gc(self, max_bytes: int | None = None,
           max_age_days: float | None = None,
           now: float | None = None) -> dict:
        args: dict = {}
        if max_bytes is not None:
            args["max_bytes"] = max_bytes
        if max_age_days is not None:
            args["max_age_days"] = max_age_days
        if now is not None:
            args["now"] = now
        return self._op("gc", args=args).report

    def fsck(self, remove: bool = True) -> dict:
        return self._op("fsck", args={"remove": remove}).report

    def describe(self) -> dict:
        return self._op("describe").report
