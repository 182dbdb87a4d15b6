"""Backend-independent contract of the suggestion store.

Every behavior here — atomic commit, torn entries degrading to
misses, hit/miss counters, LRU gc with its per-layer report, fsck,
describe — must hold identically for the on-disk
:class:`~repro.serve.store.SuggestionStore` and for the network
backend (:class:`~repro.fabric.netstore.NetworkStore` speaking to a
``repro serve`` daemon).  The suite is parametrized over both: a test
added here is automatically a conformance requirement for any future
backend.

Each backend exposes ``open()`` (a fresh store instance over the same
state — counters are per-instance, state is shared) and ``root`` (the
on-disk directory ultimately holding the entries, used to inject
corruption and age; the network backend's daemon serves a store rooted
there, so the same injections work).
"""

import os
import time
from pathlib import Path

import pytest

from repro.fabric import NetworkStore
from repro.serve import SuggestServer, SuggestionStore

PARSE_ENTRY = {"requests": [], "error": None}
VERDICT_ENTRY = {"ok": True, "code": "verified", "detail": "8 runs"}


class _DiskBackend:
    kind = "disk"

    def __init__(self, root: Path) -> None:
        self.root = root

    def open(self) -> SuggestionStore:
        return SuggestionStore(self.root)

    def close(self) -> None:
        pass


class _NetworkBackend:
    kind = "network"

    def __init__(self, root: Path, scratch: Path) -> None:
        self.root = root
        # an empty push-accepting daemon: no services, just the store
        self.server = SuggestServer(
            {}, cache_dir=str(root),
            bundle_cache_dir=scratch / "bundles").start()
        self._stores: list[NetworkStore] = []

    def open(self) -> NetworkStore:
        store = NetworkStore(self.server.address)
        self._stores.append(store)
        return store

    def close(self) -> None:
        for store in self._stores:
            store.close()
        self.server.shutdown()


@pytest.fixture(params=["disk", "network"])
def backend(request, tmp_path):
    root = tmp_path / "store"
    if request.param == "disk":
        back = _DiskBackend(root)
    else:
        back = _NetworkBackend(root, tmp_path)
    yield back
    back.close()


def _files(root: Path) -> list[Path]:
    """Every committed entry file, in sorted order."""
    base = root / "v1"
    return sorted(base.rglob("*.json")) if base.exists() else []


class TestMechanics:
    def test_atomic_write_then_read(self, backend):
        store = backend.open()
        store.put_parse("k", PARSE_ENTRY)
        assert store.get_parse("k") == PARSE_ENTRY
        assert store.stats()["parse_hits"] == 1
        assert store.stats()["write_errors"] == 0

    def test_missing_entry_is_miss(self, backend):
        store = backend.open()
        assert store.get_suggestions("model", "absent") is None
        assert store.stats()["suggest_misses"] == 1

    def test_state_is_shared_counters_are_not(self, backend):
        writer = backend.open()
        writer.put_parse("k", PARSE_ENTRY)
        reader = backend.open()
        assert reader.get_parse("k") == PARSE_ENTRY
        assert reader.stats()["parse_hits"] == 1
        assert writer.stats()["parse_hits"] == 0

    def test_non_dict_payload_is_miss(self, backend):
        store = backend.open()
        store.put_parse("k", PARSE_ENTRY)
        [entry] = _files(backend.root)
        entry.write_text("[1, 2, 3]")
        fresh = backend.open()
        assert fresh.get_parse("k") is None
        assert fresh.stats()["parse_misses"] == 1

    def test_torn_entry_degrades_to_miss(self, backend):
        store = backend.open()
        store.put_parse("k", PARSE_ENTRY)
        [entry] = _files(backend.root)
        entry.write_text(entry.read_text()[:7])
        assert backend.open().get_parse("k") is None

    def test_unknown_layer_is_refused_before_io(self, backend):
        store = backend.open()
        with pytest.raises(ValueError, match="store layer"):
            store.get("bogus", "k")
        with pytest.raises(ValueError, match="store layer"):
            store.put("bogus", "k", PARSE_ENTRY)
        # nothing was looked up, written or counted
        assert not store.counts
        assert _files(backend.root) == []

    def test_layers_do_not_alias(self, backend):
        store = backend.open()
        store.put_parse("k", PARSE_ENTRY)
        store.put_verdict("k", VERDICT_ENTRY)
        store.put_suggestions("m", "k", {"suggestions": [],
                                         "error": None})
        assert store.get_parse("k") == PARSE_ENTRY
        assert store.get_verdict("k") == VERDICT_ENTRY
        # ...and model keys partition the suggest layer
        assert store.get_suggestions("other", "k") is None


class TestVerdictLayer:
    def test_round_trip_and_counters(self, backend):
        store = backend.open()
        assert store.get_verdict("absent") is None
        store.put_verdict("k", VERDICT_ENTRY)
        assert store.get_verdict("k") == VERDICT_ENTRY
        stats = store.stats()
        assert stats["verdict_hits"] == 1
        assert stats["verdict_misses"] == 1

    def test_describe_counts_verdicts(self, backend):
        store = backend.open()
        store.put_verdict("k1", VERDICT_ENTRY)
        store.put_verdict("k2", VERDICT_ENTRY)
        d = store.describe()
        assert d["verdict"]["entries"] == 2
        assert d["verdict"]["bytes"] > 0
        assert d["total_bytes"] == d["verdict"]["bytes"]

    def test_gc_reports_verdict_layer(self, backend):
        store = backend.open()
        store.put_parse("p", PARSE_ENTRY)
        store.put_verdict("v", VERDICT_ENTRY)
        result = store.gc(max_bytes=0)
        assert result["layers"]["verdict"]["removed_files"] == 1
        assert result["layers"]["parse"]["removed_files"] == 1
        assert not _files(backend.root)


class TestGC:
    """Eviction: without ``gc`` the cache only grows."""

    def _filled(self, backend, n: int = 6):
        store = backend.open()
        for i in range(n):
            store.put_parse(f"p{i}", {"requests": [], "error": None,
                                      "pad": "x" * 50})
            store.put_suggestions("model", f"s{i}",
                                  {"suggestions": [], "error": None,
                                   "pad": "y" * 50})
        return store

    def test_no_limits_is_a_no_op(self, backend):
        store = self._filled(backend)
        before = len(_files(backend.root))
        result = store.gc()
        assert result["removed_files"] == 0
        assert result["kept_files"] == before == len(_files(backend.root))
        assert result["kept_bytes"] > 0

    def test_max_age_drops_old_entries(self, backend):
        store = self._filled(backend, n=4)
        now = time.time()
        old = now - 10 * 86400
        aged = _files(backend.root)[:3]
        for path in aged:
            os.utime(path, (old, old))
        result = store.gc(max_age_days=7, now=now)
        assert result["removed_files"] == 3
        survivors = set(_files(backend.root))
        assert survivors.isdisjoint(aged)
        assert result["kept_files"] == len(survivors)

    def test_max_bytes_evicts_lru_by_mtime(self, backend):
        store = self._filled(backend, n=5)
        now = time.time()
        paths = _files(backend.root)
        # give every entry a distinct age; paths[0] is the most recent
        for age, path in enumerate(paths):
            os.utime(path, (now - age, now - age))
        budget = sum(p.stat().st_size for p in paths[:3])
        result = store.gc(max_bytes=budget, now=now)
        assert set(_files(backend.root)) == set(paths[:3])
        assert result["kept_files"] == 3
        assert result["removed_files"] == len(paths) - 3
        assert result["kept_bytes"] <= budget

    def test_max_bytes_is_a_recency_cutoff_not_first_fit(self, backend):
        store = backend.open()
        store.put_parse("big", {"requests": [], "error": None,
                                "pad": "x" * 400})
        [big] = _files(backend.root)
        store.put_parse("small", PARSE_ENTRY)
        [small] = [p for p in _files(backend.root) if p != big]
        now = time.time()
        os.utime(big, (now, now))              # newest, too big alone
        os.utime(small, (now - 60, now - 60))  # older, would fit alone
        result = store.gc(max_bytes=big.stat().st_size - 1, now=now)
        # strict LRU: the overflowing newest entry marks the cutoff and
        # the older small entry must NOT survive it
        assert result["kept_files"] == 0
        assert result["removed_files"] == 2
        assert not _files(backend.root)

    def test_never_written_store_gc_is_empty(self, backend):
        result = backend.open().gc(max_bytes=10)
        assert {k: v for k, v in result.items() if k != "layers"} == {
            "removed_files": 0, "removed_bytes": 0,
            "kept_files": 0, "kept_bytes": 0,
        }
        for counters in result["layers"].values():
            assert set(counters.values()) == {0}

    def test_report_breaks_down_per_layer(self, backend):
        store = self._filled(backend, n=3)      # 3 parse + 3 suggest
        result = store.gc(max_bytes=0)
        layers = result["layers"]
        assert layers["parse"]["removed_files"] == 3
        assert layers["suggest"]["removed_files"] == 3
        assert layers["other"]["removed_files"] == 0
        assert result["removed_files"] == 6
        assert result["removed_bytes"] == (
            layers["parse"]["removed_bytes"]
            + layers["suggest"]["removed_bytes"]
        )
        assert layers["parse"]["removed_bytes"] > 0

    def test_age_applies_before_bytes(self, backend):
        """An entry the age limit drops never counts against the byte
        budget — the two limits compose in a fixed order."""
        store = backend.open()
        store.put_parse("old-big", {"requests": [], "error": None,
                                    "pad": "x" * 500})
        [old] = _files(backend.root)
        store.put_parse("fresh", PARSE_ENTRY)
        [fresh] = [p for p in _files(backend.root) if p != old]
        now = time.time()
        os.utime(old, (now - 10 * 86400, now - 10 * 86400))
        os.utime(fresh, (now, now))
        # budget fits "fresh" only because "old-big" ages out first
        budget = fresh.stat().st_size
        result = store.gc(max_bytes=budget, max_age_days=7, now=now)
        assert result["kept_files"] == 1
        assert _files(backend.root) == [fresh]

    def test_mtime_ties_break_deterministically(self, backend):
        """Identical mtimes: eviction order falls back to path, so the
        same cache state always prunes the same entries."""
        store = backend.open()
        for key in ("a", "b", "c", "d"):
            store.put_parse(key, PARSE_ENTRY)
        now = time.time()
        paths = _files(backend.root)
        for path in paths:
            os.utime(path, (now, now))
        budget = sum(p.stat().st_size for p in paths[:2])
        survivors = set()
        for _ in range(3):
            store.gc(max_bytes=budget, now=now)
            survivors.add(frozenset(_files(backend.root)))
        # repeated runs agree (and keep the path-ascending pair)
        assert len(survivors) == 1
        assert next(iter(survivors)) == frozenset(paths[:2])


class TestFsck:
    def test_removes_torn_entries_and_stale_tmp(self, backend):
        store = backend.open()
        store.put_parse("good", PARSE_ENTRY)
        store.put_parse("torn", PARSE_ENTRY)
        good_file = next(p for p in _files(backend.root)
                         if p.read_text().startswith("{"))
        torn = next(p for p in _files(backend.root) if p != good_file)
        torn.write_text(torn.read_text()[:7])
        (torn.parent / "dead-writer.tmp").write_text("{")
        report = store.fsck(remove=False)        # dry run: report only
        assert report["scanned"] == 2
        assert report["corrupt"] == 1
        assert report["removed"] == 0
        assert torn.exists()
        report = store.fsck()
        assert report["corrupt"] == report["removed"] == 1
        assert report["stale_tmp"] == 1
        assert report["layers"]["parse"]["removed"] == 1
        assert not torn.exists()
        assert not list(backend.root.rglob("*.tmp"))
        # the good entry survived and still reads
        assert store.get_parse("good") == PARSE_ENTRY


class TestDescribe:
    def test_counts_layers_on_disk(self, backend):
        store = backend.open()
        assert store.describe()["exists"] is False
        store.put_parse("p1", PARSE_ENTRY)
        store.put_parse("p2", PARSE_ENTRY)
        store.put_suggestions("m1", "p1", {"suggestions": [],
                                           "error": None})
        d = store.describe()
        assert d["exists"] is True
        assert d["parse"]["entries"] == 2
        assert d["suggest"]["entries"] == 1
        assert d["suggest"]["models"] == 1
        assert d["total_bytes"] == d["parse"]["bytes"] + d["suggest"]["bytes"]
        assert d["parse"]["bytes"] > 0

    def test_fresh_store_counters_are_zero(self, backend):
        assert backend.open().stats() == {
            "parse_hits": 0, "parse_misses": 0,
            "suggest_hits": 0, "suggest_misses": 0,
            "verdict_hits": 0, "verdict_misses": 0,
            "write_errors": 0,
        }
