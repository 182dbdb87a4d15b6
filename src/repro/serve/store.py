"""Persistent (cross-process) caches for the suggestion service.

The in-memory :class:`~repro.graphs.encode.EncodeCache` dies with the
process; this store survives it.  Three layers, all content-keyed
(renames stay warm, edits invalidate exactly the entries they touch):

``parse/``
    extracted loop requests per file, keyed by the SHA-256 of the
    file's content — model-independent, so a new bundle still reuses
    the expensive pure-python frontend work.
``suggest/<model_key>/``
    finished per-file suggestions, additionally keyed by the serving
    models' fingerprint so retrained or swapped models never replay
    stale advice.
``verdict/``
    verification outcomes per loop, keyed by
    :func:`repro.rewrite.verify.verdict_key` — the SHA-256 of (loop
    source, clause plan, verify-config fingerprint, verifier version).
    A warm ``rewrite-dir`` run replays verdicts instead of simulating;
    any change to the loop, the plan, the budgets, or the verifier
    itself changes the key, so stale verdicts can never gate a rewrite.

Layout: ``<root>/v<STORE_VERSION>/{parse,suggest/<model_key>,verdict}/
<sha>.json``.
Writes go through a temp file + :func:`os.replace`, so concurrent
writers (shard workers, parallel ``suggest-dir`` runs over one cache)
can only ever observe complete entries; unreadable or torn entries
degrade to cache misses, never errors.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from collections import Counter
from pathlib import Path

from repro.serve import faults

#: bump when cached payload shapes change incompatibly
STORE_VERSION = 1

#: the store's layers (also the ones addressable over the wire)
STORE_LAYERS = ("parse", "suggest", "verdict")

#: the store's counters, in :meth:`SuggestionStore.stats` order
STORE_COUNTERS = (*(f"{layer}_{outcome}" for layer in STORE_LAYERS
                    for outcome in ("hits", "misses")), "write_errors")


def _check_layer(layer: str) -> None:
    if layer not in STORE_LAYERS:
        raise ValueError(f"store layer must be one of {STORE_LAYERS}, "
                         f"got {layer!r}")


def content_key(source: str) -> str:
    """Cache key of one file: SHA-256 over its exact content."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def open_store(spec: "str | Path"):
    """A store for ``spec``: a directory path, or ``net:ADDR``.

    ``net:HOST:PORT`` / ``net:unix:/path.sock`` open a
    :class:`~repro.fabric.netstore.NetworkStore` speaking the store
    operations of the wire protocol against a ``repro serve`` daemon —
    same get/put/gc/fsck contract, shared fleet-wide.  Anything else
    is a local on-disk root.  Every ``--cache-dir`` surface (services,
    shard workers, ``repro cache``) resolves through here, so a worker
    respawned from a :class:`~repro.serve.pipeline.WorkerSpec` re-opens
    whichever backend its parent used.
    """
    text = str(spec)
    if text.startswith("net:"):
        from repro.fabric.netstore import NetworkStore

        return NetworkStore(text[len("net:"):])
    return SuggestionStore(spec)


class SuggestionStore:
    """Disk-backed parse + suggestion cache rooted at ``root``.

    Every read and write is one counted :meth:`get` / :meth:`put` (the
    named ``get_*`` / ``put_*`` fill in the layer) around the backend's
    ``_load`` / ``_save``, the only I/O another backend overrides.
    """

    def __init__(self, root: str | Path) -> None:
        #: the user-facing root; shard workers re-open the store from it
        self.base = Path(root)
        self.root = self.base / f"v{STORE_VERSION}"
        #: this process's hits, misses and failed writes
        self.counts: Counter = Counter()

    # -- the counted surface -------------------------------------------------

    def get(self, layer: str, key: str,
            model_key: str | None = None) -> dict | None:
        """One entry of ``layer`` (``model_key`` names the suggest
        layer's models), or ``None`` on a miss."""
        _check_layer(layer)
        payload = self._load(layer, key, model_key)
        self.counts[f"{layer}_{'misses' if payload is None else 'hits'}"] += 1
        return payload

    def put(self, layer: str, key: str, payload: dict,
            model_key: str | None = None) -> None:
        """Store one entry; a failed write only counts in
        ``write_errors`` (the entry simply stays a miss)."""
        _check_layer(layer)
        if not self._save(layer, key, model_key, payload):
            self.counts["write_errors"] += 1

    def get_parse(self, key: str) -> dict | None:
        return self.get("parse", key)

    def put_parse(self, key: str, payload: dict) -> None:
        self.put("parse", key, payload)

    def get_suggestions(self, model_key: str, key: str) -> dict | None:
        return self.get("suggest", key, model_key)

    def put_suggestions(self, model_key: str, key: str,
                        payload: dict) -> None:
        self.put("suggest", key, payload, model_key)

    def get_verdict(self, key: str) -> dict | None:
        return self.get("verdict", key)

    def put_verdict(self, key: str, payload: dict) -> None:
        self.put("verdict", key, payload)

    # -- disk backend --------------------------------------------------------

    def _path(self, layer: str, key: str, model_key: str | None) -> Path:
        if layer == "suggest":
            return self.root / layer / model_key / f"{key}.json"
        return self.root / layer / f"{key}.json"

    @staticmethod
    def _read(path: Path) -> dict | None:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def _load(self, layer: str, key: str,
              model_key: str | None) -> dict | None:
        return self._read(self._path(layer, key, model_key))

    def _save(self, layer: str, key: str, model_key: str | None,
              payload: dict) -> bool:
        """Atomically persist one entry; False if the write failed.

        The cache is an accelerator, not the product: a full disk or a
        permission flip must never abort a serving run, so any
        ``OSError`` on the write path is swallowed.  The fault hook
        injects exactly those failures — an aborted write, or a *torn*
        entry at the final path, the state a crash between write and
        rename leaves for ``fsck`` to reclaim.
        """
        path = self._path(layer, key, model_key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            action = faults.on_store_write(str(path))
            if action == "abort":
                raise OSError(f"injected write abort for {path}")
            data = json.dumps(payload)
            if action == "tear":
                data = data[: max(1, len(data) // 3)]
            fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    # -- eviction ------------------------------------------------------------

    def _layer_of(self, path: Path) -> str:
        """Which cache layer a stored entry belongs to."""
        if path.parent.name == "parse":
            return "parse"
        if path.parent.name == "verdict":
            return "verdict"
        if path.parent.parent.name == "suggest":
            return "suggest"
        return "other"

    def gc(self, max_bytes: int | None = None,
           max_age_days: float | None = None,
           now: float | None = None) -> dict:
        """Prune the on-disk cache; without it the store only grows.

        The two limits apply in a fixed, deterministic order:
        ``max_age_days`` *first* drops every entry whose mtime is older
        than the cutoff, then ``max_bytes`` evicts
        least-recently-written survivors (LRU by mtime — every hit
        replays a file some run recently wrote) until what remains
        fits the budget; mtime ties break on path, so the same cache
        state always prunes the same files.  Both layers (parses and
        per-model suggestions) are pruned together, and *every*
        versioned subtree under the base root is scanned, so entries
        written by older ``STORE_VERSION`` builds are reclaimable too.
        Entries that vanish mid-scan (a concurrent gc or server) are
        skipped, not errors.

        Returns a structured report: ``removed_files`` /
        ``removed_bytes`` / ``kept_files`` / ``kept_bytes`` totals,
        plus the same four counters per layer under ``layers`` (keys
        ``parse``, ``suggest``, ``verdict``, and ``other`` for entries
        no current layout owns).
        """
        if now is None:
            now = time.time()
        entries: list[tuple[float, int, Path]] = []
        if self.base.is_dir():
            for path in self.base.rglob("*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))

        # newest first; mtime ties break on path for determinism
        keep = sorted(entries, key=lambda e: (-e[0], str(e[2])))
        evicted: list[tuple[float, int, Path]] = []
        if max_age_days is not None:
            cutoff = now - max_age_days * 86400.0
            fresh = [e for e in keep if e[0] >= cutoff]
            evicted.extend(e for e in keep if e[0] < cutoff)
            keep = fresh
        if max_bytes is not None:
            # strict LRU: the first entry (newest-first) that overflows
            # the budget marks the recency cutoff — it and everything
            # older goes, even if some older entry alone would fit
            total = 0
            cutoff = len(keep)
            for i, entry in enumerate(keep):
                if total + entry[1] > max_bytes:
                    cutoff = i
                    break
                total += entry[1]
            evicted.extend(keep[cutoff:])
            keep = keep[:cutoff]

        layers = {
            layer: {"removed_files": 0, "removed_bytes": 0,
                    "kept_files": 0, "kept_bytes": 0}
            for layer in ("parse", "suggest", "verdict", "other")
        }
        for _, size, path in evicted:
            try:
                path.unlink()
            except OSError:
                continue
            layer = layers[self._layer_of(path)]
            layer["removed_files"] += 1
            layer["removed_bytes"] += size
        for _, size, path in keep:
            layer = layers[self._layer_of(path)]
            layer["kept_files"] += 1
            layer["kept_bytes"] += size
        report = {
            counter: sum(layer[counter] for layer in layers.values())
            for counter in ("removed_files", "removed_bytes",
                            "kept_files", "kept_bytes")
        }
        report["layers"] = layers
        return report

    # -- integrity -----------------------------------------------------------

    def fsck(self, remove: bool = True) -> dict:
        """Scan every layer for torn or unreadable entries.

        Readers already degrade such entries to cache misses, so a
        corrupt entry costs a recompute on *every* hit until something
        removes it — that something is this.  An entry is condemned by
        the same predicate the readers use (:meth:`_read` returning
        ``None``): unreadable, undecodable, truncated, or not a JSON
        object.  Stale ``*.tmp`` files — writers that died between
        ``mkstemp`` and ``os.replace`` — are reclaimed too.  Entries
        vanishing mid-scan are skipped, matching :meth:`gc`.

        With ``remove=False`` the scan only reports (``repro cache
        fsck --dry-run``).  Returns per-layer ``scanned`` / ``corrupt``
        / ``removed`` counters plus flat totals and the count of
        reclaimed temp files.
        """
        layers = {
            layer: {"scanned": 0, "corrupt": 0, "removed": 0}
            for layer in ("parse", "suggest", "verdict", "other")
        }
        stale_tmp = 0
        if self.base.is_dir():
            for path in self.base.rglob("*.json"):
                layer = layers[self._layer_of(path)]
                if not path.is_file():
                    continue
                layer["scanned"] += 1
                if self._read(path) is not None:
                    continue
                if not path.exists():      # vanished mid-scan
                    layer["scanned"] -= 1
                    continue
                layer["corrupt"] += 1
                if remove:
                    try:
                        path.unlink()
                        layer["removed"] += 1
                    except OSError:
                        pass
            for path in self.base.rglob("*.tmp"):
                stale_tmp += 1
                if remove:
                    try:
                        path.unlink()
                    except OSError:
                        stale_tmp -= 1
        report = {
            counter: sum(layer[counter] for layer in layers.values())
            for counter in ("scanned", "corrupt", "removed")
        }
        report["stale_tmp"] = stale_tmp
        report["layers"] = layers
        return report

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """This process's counters, every :data:`STORE_COUNTERS` name."""
        counts = self.counts
        return {name: counts[name] for name in STORE_COUNTERS}

    def describe(self) -> dict:
        """On-disk shape of the cache: entry counts and bytes per layer.

        Unlike :meth:`stats` (this process's hit/miss counters), this
        scans the directory, so ``repro cache stats`` can inspect a
        cache other runs populated.  Every versioned subtree under the
        base root is counted; per-model suggestion entries are grouped
        by model key.  Entries vanishing mid-scan are skipped.
        """
        layers = {
            "parse": {"entries": 0, "bytes": 0},
            "suggest": {"entries": 0, "bytes": 0, "models": 0},
            "verdict": {"entries": 0, "bytes": 0},
        }
        if self.base.is_dir():
            model_keys: set[str] = set()
            for path in self.base.rglob("*.json"):
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                layer = path.parent
                if layer.name == "parse":
                    layers["parse"]["entries"] += 1
                    layers["parse"]["bytes"] += size
                elif layer.name == "verdict":
                    layers["verdict"]["entries"] += 1
                    layers["verdict"]["bytes"] += size
                elif layer.parent.name == "suggest":
                    layers["suggest"]["entries"] += 1
                    layers["suggest"]["bytes"] += size
                    model_keys.add(layer.name)
            layers["suggest"]["models"] = len(model_keys)
        return {
            "root": str(self.base),
            "exists": self.base.is_dir(),
            **layers,
            "total_bytes": layers["parse"]["bytes"]
            + layers["suggest"]["bytes"]
            + layers["verdict"]["bytes"],
        }
