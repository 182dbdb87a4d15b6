"""Tests for the CLI entry points."""

from pathlib import Path

import pytest

from repro.cli import dataset_main, eval_main, main, train_main

#: exact key order of the per-file records (``--out`` and ``--stream``)
#: and of the ``--stream`` done record: both subcommands share one
#: driver, and these pin every output byte it writes
RECORD_KEYS = {
    "suggest-dir": ["file", "error", "suggestions"],
    "rewrite-dir": ["file", "error", "rewrites", "rewritten_source"],
}
DONE_KEYS = {
    "suggest-dir": ["event", "files", "loops", "errors", "elapsed_s"],
    "rewrite-dir": ["event", "files", "loops", "accepted", "refused",
                    "errors", "elapsed_s"],
}
#: in-process rewrite runs append the verifier counters
VERIFIER_KEYS = ["verifier", "simulations"]


def _dead_address() -> str:
    """A closed ephemeral port: connection refused, not a hang."""
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return "127.0.0.1:%d" % probe.getsockname()[1]


class TestDatasetCLI:
    def test_generates_and_saves(self, tmp_path, capsys):
        out = tmp_path / "ds.jsonl"
        code = dataset_main(["--scale", "0.005", "--out", str(out)])
        assert code == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "wrote" in text and "pragma_type" in text

    def test_no_synthetic_flag(self, tmp_path):
        out = tmp_path / "ds.jsonl"
        dataset_main(["--scale", "0.005", "--no-synthetic", "--out", str(out)])
        from repro.dataset import load_jsonl
        samples = load_jsonl(out)
        assert all(s.origin == "github" for s in samples)


class TestTrainCLI:
    def test_trains_and_reports(self, tmp_path, capsys):
        weights = tmp_path / "m.npz"
        code = train_main([
            "--model", "graph2par", "--scale", "0.005", "--epochs", "1",
            "--dim", "16", "--out", str(weights),
        ])
        assert code == 0
        assert weights.exists()
        assert "accuracy" in capsys.readouterr().out


class TestBundleCLI:
    """`repro train --bundle-out` → `repro suggest-dir --bundle`.

    The bundle-served path must reproduce the in-process
    (train-on-the-fly) path byte-for-byte, with zero training steps at
    serve time, and a second `--cache-dir` run must do zero model
    forwards.
    """

    FLAGS = ["--scale", "0.005", "--epochs", "1", "--dim", "16"]

    def test_bundle_reproduces_in_process_path(self, tmp_path, capsys,
                                               monkeypatch):
        src_dir = tmp_path / "corpus"
        src_dir.mkdir()
        (src_dir / "kernel.c").write_text(TestSuggestDirCLI.SOURCE)
        bundle = tmp_path / "bundle"
        assert main(["train", *self.FLAGS,
                     "--bundle-out", str(bundle)]) == 0
        assert (bundle / "manifest.json").exists()

        golden = tmp_path / "golden.json"
        assert main(["suggest-dir", str(src_dir), *self.FLAGS,
                     "--quiet", "--out", str(golden)]) == 0

        # serve from the bundle: training is forbidden from here on
        from repro.train import GraphTrainer

        def boom(*args, **kwargs):
            raise AssertionError("--bundle serving must not train")

        monkeypatch.setattr(GraphTrainer, "fit", boom)
        served = tmp_path / "served.json"
        cache = tmp_path / "cache"
        assert main(["suggest-dir", str(src_dir), "--bundle", str(bundle),
                     "--cache-dir", str(cache), "--quiet",
                     "--out", str(served)]) == 0
        assert served.read_bytes() == golden.read_bytes()

        # warm run: zero model forwards on the unchanged corpus
        warm = tmp_path / "warm.json"
        assert main(["suggest-dir", str(src_dir), "--bundle", str(bundle),
                     "--cache-dir", str(cache), "--quiet",
                     "--out", str(warm)]) == 0
        text = capsys.readouterr().out
        assert "1 files warm, 0 computed (0 graph forwards)" in text
        assert warm.read_bytes() == golden.read_bytes()

    def test_bundle_out_requires_graph2par(self, capsys, tmp_path):
        code = main(["train", "--model", "gcn", *self.FLAGS,
                     "--bundle-out", str(tmp_path / "b")])
        assert code == 2
        assert "graph2par" in capsys.readouterr().err

    def test_suggest_dir_rejects_bad_bundle(self, tmp_path, capsys):
        (tmp_path / "corpus").mkdir()
        (tmp_path / "corpus" / "k.c").write_text(TestSuggestDirCLI.SOURCE)
        code = main(["suggest-dir", str(tmp_path / "corpus"),
                     "--bundle", str(tmp_path / "not-a-bundle")])
        assert code == 2
        assert "cannot load bundle" in capsys.readouterr().err


class TestBundleArchiveCLI:
    """`repro bundle pack/unpack` + serving straight from an archive."""

    FLAGS = ["--scale", "0.005", "--epochs", "1", "--dim", "16"]

    def test_pack_unpack_and_serve_archive(self, tmp_path, capsys):
        src_dir = tmp_path / "corpus"
        src_dir.mkdir()
        (src_dir / "kernel.c").write_text(TestSuggestDirCLI.SOURCE)
        bundle = tmp_path / "bundle"
        assert main(["train", *self.FLAGS,
                     "--bundle-out", str(bundle)]) == 0
        archive = tmp_path / "advisor.tar.gz"
        assert main(["bundle", "pack", str(bundle), str(archive)]) == 0
        assert archive.is_file()
        unpacked = tmp_path / "unpacked"
        assert main(["bundle", "unpack", str(archive),
                     str(unpacked)]) == 0
        assert (unpacked / "manifest.json").read_bytes() == \
            (bundle / "manifest.json").read_bytes()
        capsys.readouterr()

        golden = tmp_path / "golden.json"
        assert main(["suggest-dir", str(src_dir), "--bundle", str(bundle),
                     "--quiet", "--out", str(golden)]) == 0
        served = tmp_path / "served.json"
        assert main(["suggest-dir", str(src_dir), "--bundle", str(archive),
                     "--quiet", "--out", str(served)]) == 0
        assert served.read_bytes() == golden.read_bytes()

    def test_train_writes_archive_directly(self, tmp_path, capsys):
        archive = tmp_path / "advisor.tgz"
        assert main(["train", *self.FLAGS,
                     "--bundle-out", str(archive)]) == 0
        assert archive.is_file()
        from repro.artifacts import SuggesterBundle

        loaded = SuggesterBundle.load(archive)
        assert loaded.source_path == str(archive)

    def test_pack_rejects_non_bundle(self, tmp_path, capsys):
        (tmp_path / "junk").mkdir()
        code = main(["bundle", "pack", str(tmp_path / "junk"),
                     str(tmp_path / "junk.tar.gz")])
        assert code == 2
        assert "failed" in capsys.readouterr().err


class TestCacheGcCLI:
    def test_gc_prunes_and_reports(self, tmp_path, capsys):
        from repro.serve import SuggestionStore

        store = SuggestionStore(tmp_path / "cache")
        for i in range(4):
            store.put_parse(f"k{i}", {"requests": [], "error": None})
        code = main(["cache", "gc", str(tmp_path / "cache"),
                     "--max-bytes", "0"])
        assert code == 0
        assert "removed 4 entries" in capsys.readouterr().out
        assert not list((tmp_path / "cache").rglob("*.json"))

    def test_gc_requires_a_limit(self, tmp_path, capsys):
        assert main(["cache", "gc", str(tmp_path)]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_gc_json_reports_per_layer(self, tmp_path, capsys):
        import json

        from repro.serve import SuggestionStore

        store = SuggestionStore(tmp_path / "cache")
        store.put_parse("p1", {"requests": [], "error": None})
        store.put_suggestions("model", "s1",
                              {"suggestions": [], "error": None})
        code = main(["cache", "gc", str(tmp_path / "cache"),
                     "--max-bytes", "0", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["removed_files"] == 2
        assert report["layers"]["parse"]["removed_files"] == 1
        assert report["layers"]["suggest"]["removed_files"] == 1
        assert report["layers"]["parse"]["removed_bytes"] > 0
        assert report["kept_files"] == 0

    def test_gc_text_report_names_layers(self, tmp_path, capsys):
        from repro.serve import SuggestionStore

        store = SuggestionStore(tmp_path / "cache")
        store.put_parse("p1", {"requests": [], "error": None})
        assert main(["cache", "gc", str(tmp_path / "cache"),
                     "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 entries" in out
        assert "parse: removed 1" in out

    def test_stats_reports_layers_and_memo(self, tmp_path, capsys):
        from repro.serve import SuggestionStore

        store = SuggestionStore(tmp_path / "cache")
        store.put_parse("k1", {"requests": [], "error": None})
        store.put_suggestions("modelA", "k1",
                              {"suggestions": [], "error": None})
        store.put_suggestions("modelB", "k1",
                              {"suggestions": [], "error": None})
        code = main(["cache", "stats", str(tmp_path / "cache")])
        assert code == 0
        out = capsys.readouterr().out
        assert "parse: 1 entries" in out
        assert "suggest: 2 entries" in out
        assert "2 model fingerprints" in out
        assert "analyze_loop memo" in out

    def test_stats_json_payload(self, tmp_path, capsys):
        import json

        from repro.serve import SuggestionStore

        store = SuggestionStore(tmp_path / "cache")
        store.put_parse("k1", {"requests": [], "error": None})
        assert main(["cache", "stats", str(tmp_path / "cache"),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["store"]["parse"]["entries"] == 1
        assert set(payload["analyze_loop"]) == {"entries", "hits",
                                                "misses"}
        # per-process hit/miss counters would always read zero from a
        # fresh CLI process, so the payload deliberately omits them
        assert "store_counters" not in payload

    def test_stats_on_missing_cache(self, tmp_path, capsys):
        assert main(["cache", "stats", str(tmp_path / "nope")]) == 0
        assert "not created yet" in capsys.readouterr().out

    def test_stats_and_gc_cover_verdict_layer(self, tmp_path, capsys):
        import json

        from repro.serve import SuggestionStore

        store = SuggestionStore(tmp_path / "cache")
        store.put_verdict("v1", {"ok": True, "code": "verified",
                                 "detail": ""})
        assert main(["cache", "stats", str(tmp_path / "cache")]) == 0
        assert "verdict: 1 entries" in capsys.readouterr().out
        assert main(["cache", "stats", str(tmp_path / "cache"),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["store"]["verdict"]["entries"] == 1
        assert main(["cache", "gc", str(tmp_path / "cache"),
                     "--max-bytes", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["layers"]["verdict"]["removed_files"] == 1

    @pytest.mark.parametrize("action", [["stats"], ["fsck"],
                                        ["gc", "--max-bytes", "0"]])
    def test_unreachable_net_store_fails_cleanly(self, action, capsys):
        store = f"net:{_dead_address()}"
        assert main(["cache", action[0], store, *action[1:]]) == 2
        err = capsys.readouterr().err
        assert f"cannot reach store {store}: " in err
        assert "Traceback" not in err


class TestSuggestDirCLI:
    SOURCE = """
    double a[64], b[64]; double s;
    void kernel(void) {
        int i;
        for (i = 0; i < 64; i++) a[i] = b[i] * 2.0;
        for (i = 0; i < 64; i++) s += a[i];
    }
    """

    OTHER = """
    double c[32];
    void scale(void) {
        int j;
        for (j = 0; j < 32; j++) c[j] = c[j] + 1.0;
    }
    """

    NEST = """
    float in_[4096][4096];
    double M = 0.0;
    int jj;
    void clear(void) {
        for (jj = 0; jj < 1024; jj++)
            for (int n = 0; n < M; n++)
                in_[jj][n] = 0;
    }
    """

    def test_suggests_over_directory(self, tmp_path, capsys):
        src_dir = tmp_path / "corpus"
        src_dir.mkdir()
        (src_dir / "kernel.c").write_text(self.SOURCE)
        out = tmp_path / "suggestions.json"
        code = main([
            "suggest-dir", str(src_dir), "--scale", "0.005",
            "--epochs", "1", "--dim", "16", "--quiet",
            "--out", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "2 loops across 1 files" in text
        import json
        payload = json.loads(out.read_text())
        assert len(payload) == 1
        assert len(payload[0]["suggestions"]) == 2
        assert list(payload[0]) == RECORD_KEYS["suggest-dir"]

    def test_sharded_output_is_byte_identical(self, tmp_path, capsys):
        """Acceptance: --shards N matches the single-process path
        byte for byte."""
        src_dir = tmp_path / "corpus"
        src_dir.mkdir()
        (src_dir / "k1.c").write_text(self.SOURCE)
        (src_dir / "k2.c").write_text(self.OTHER)
        (src_dir / "nest.c").write_text(self.NEST)
        flags = ["--scale", "0.005", "--epochs", "1", "--dim", "16",
                 "--quiet"]
        single = tmp_path / "single.json"
        assert main(["suggest-dir", str(src_dir), *flags,
                     "--shards", "1", "--out", str(single)]) == 0
        sharded = tmp_path / "sharded.json"
        assert main(["suggest-dir", str(src_dir), *flags,
                     "--shards", "4", "--out", str(sharded)]) == 0
        assert sharded.read_bytes() == single.read_bytes()

        # a bundle loaded from disk reaches shard workers as a path;
        # they must list each loop's clause families in the service's
        # own order (the nest gets reduction *and* private)
        bundle = tmp_path / "bundle"
        assert main(["train", *flags[:-1], "--bundle-out", str(bundle)]) == 0
        outs = []
        for shards in ("1", "4"):
            outs.append(tmp_path / f"bundle-{shards}.json")
            assert main(["suggest-dir", str(src_dir), "--bundle",
                         str(bundle), "--quiet", "--shards", shards,
                         "--out", str(outs[-1])]) == 0
        assert outs[1].read_bytes() == outs[0].read_bytes()

    def test_shards_auto_is_byte_identical(self, tmp_path, capsys):
        """--shards auto picks a safe count (in-process on this corpus)
        and matches --shards 1 byte for byte."""
        src_dir = tmp_path / "corpus"
        src_dir.mkdir()
        (src_dir / "k1.c").write_text(self.SOURCE)
        (src_dir / "k2.c").write_text(self.OTHER)
        flags = ["--scale", "0.005", "--epochs", "1", "--dim", "16",
                 "--quiet"]
        single = tmp_path / "single.json"
        assert main(["suggest-dir", str(src_dir), *flags,
                     "--shards", "1", "--out", str(single)]) == 0
        auto = tmp_path / "auto.json"
        assert main(["suggest-dir", str(src_dir), *flags,
                     "--shards", "auto", "--out", str(auto)]) == 0
        assert auto.read_bytes() == single.read_bytes()

    def test_shards_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit):
            main(["suggest-dir", ".", "--shards", "lots"])
        with pytest.raises(SystemExit):
            main(["suggest-dir", ".", "--shards", "0"])

    def test_stream_emits_ndjson_per_file(self, tmp_path, capsys):
        import json

        src_dir = tmp_path / "corpus"
        src_dir.mkdir()
        (src_dir / "k1.c").write_text(self.SOURCE)
        (src_dir / "k2.c").write_text(self.OTHER)
        (src_dir / "broken.c").write_text(
            "void broken(void) { for (i = 0; i < ; }"
        )
        code = main(["suggest-dir", str(src_dir), "--scale", "0.005",
                     "--epochs", "1", "--dim", "16", "--stream",
                     "--shards", "2"])
        assert code == 0
        out, err = capsys.readouterr()
        records = [json.loads(line) for line in out.splitlines()]
        # stdout is pure NDJSON: one record per file, then one final
        # summary record marking clean end-of-stream
        done = records.pop()
        assert list(done) == DONE_KEYS["suggest-dir"]
        assert all(list(r) == RECORD_KEYS["suggest-dir"] for r in records)
        assert done["event"] == "done"
        assert done["files"] == 3
        assert done["loops"] == 3
        assert done["errors"] == 1
        assert done["elapsed_s"] >= 0
        assert sorted(r["file"].rsplit("/", 1)[-1] for r in records) == \
            ["broken.c", "k1.c", "k2.c"]
        by_name = {r["file"].rsplit("/", 1)[-1]: r for r in records}
        assert len(by_name["k1.c"]["suggestions"]) == 2
        assert by_name["broken.c"]["error"] is not None
        # the human-readable summary lands on stderr
        assert "3 loops across 3 files" in err


class TestServerCLI:
    """`repro serve` + `repro suggest-dir --server`: the CLI as a thin
    client over the long-lived daemon."""

    FLAGS = ["--scale", "0.005", "--epochs", "1", "--dim", "16"]

    @staticmethod
    def _stub_server():
        import numpy as np

        from repro.serve import SuggestionService, SuggestServer

        class Stub:
            def __init__(self, value):
                self.value = value

            def predict_samples(self, samples):
                return np.full(len(samples), self.value, dtype=int)

        service = SuggestionService(Stub(1), {"reduction": Stub(0)})
        return SuggestServer({"advisor": service})

    def test_server_bundle_name_selected(self, tmp_path, capsys):
        src_dir = tmp_path / "corpus"
        src_dir.mkdir()
        (src_dir / "k.c").write_text(TestSuggestDirCLI.SOURCE)
        with self._stub_server().start() as srv:
            out = tmp_path / "out.json"
            assert main(["suggest-dir", str(src_dir),
                         "--server", srv.address, "--bundle", "advisor",
                         "--quiet", "--out", str(out)]) == 0
            import json

            payload = json.loads(out.read_text())
            assert len(payload[0]["suggestions"]) == 2

    def test_unknown_server_bundle_fails_cleanly(self, tmp_path, capsys):
        (tmp_path / "k.c").write_text(TestSuggestDirCLI.SOURCE)
        with self._stub_server().start() as srv:
            code = main(["suggest-dir", str(tmp_path),
                         "--server", srv.address, "--bundle", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert "does not serve bundle" in err
        assert "advisor" in err

    def test_peers_note_names_ignored_flags(self, tmp_path, capsys):
        (tmp_path / "k.c").write_text(TestSuggestDirCLI.SOURCE)
        cache = tmp_path / "cache"
        with self._stub_server().start() as srv:
            assert main(["suggest-dir", str(tmp_path),
                         "--peers", srv.address, "--bundle", "advisor",
                         "--cache-dir", str(cache), "--shards", "3",
                         "--quiet"]) == 0
        err = capsys.readouterr().err
        assert "note: --cache-dir, --shards are ignored with --peers" \
            in err
        assert not cache.exists()

    def test_bad_server_address_fails_cleanly(self, tmp_path, capsys):
        (tmp_path / "k.c").write_text(TestSuggestDirCLI.SOURCE)
        code = main(["suggest-dir", str(tmp_path), "--server", "bogus"])
        assert code == 2
        assert "cannot reach server" in capsys.readouterr().err

    def test_serve_requires_a_transport(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["serve"])

    def test_serve_rejects_batch_size_below_one(self, capsys):
        from repro.cli import serve_main

        assert serve_main(["--listen", "127.0.0.1:0",
                           "--batch-size", "-1"]) == 2
        assert "batch size must be at least 1" in capsys.readouterr().err

    def test_serve_rejects_bad_listen_address(self, capsys):
        from repro.cli import serve_main

        assert serve_main(["--listen", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["port-in-use", "queue-depth-0"])
    def test_serve_that_cannot_start_cleans_up(self, case, tmp_path,
                                               monkeypatch, capsys):
        """A daemon that cannot start exits 2 without a traceback and
        leaves no temp dir behind."""
        import socket
        import tempfile

        from repro.cli import serve_main

        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen(1)
            if case == "port-in-use":
                port = held.getsockname()[1]
                argv = ["--listen", f"127.0.0.1:{port}",
                        "--accept-bundles"]
                want = f"cannot listen on 127.0.0.1:{port}: "
            else:
                argv = ["--listen", "127.0.0.1:0", "--accept-bundles",
                        "--queue-depth", "0"]
                want = "bad --queue-depth: must be at least 1, got 0"
            assert serve_main(argv) == 2
        err = capsys.readouterr().err
        assert want in err
        assert "Traceback" not in err
        assert list(tmp.iterdir()) == []


class TestRewriteDirCLI:
    """`repro rewrite-dir`: suggestions applied as verified rewrites,
    in-process and through the daemon."""

    FLAGS = ["--scale", "0.005", "--epochs", "1", "--dim", "16"]

    SCAN = """
    double p[32];
    void scan(void) {
        int j;
        for (j = 1; j < 32; j++) p[j] = p[j] + p[j - 1];
    }
    """

    def _corpus(self, tmp_path):
        src_dir = tmp_path / "corpus"
        src_dir.mkdir()
        (src_dir / "kernel.c").write_text(TestSuggestDirCLI.SOURCE)
        (src_dir / "scan.c").write_text(self.SCAN)
        return src_dir

    def test_rewrites_over_directory(self, tmp_path, capsys):
        import json

        src_dir = self._corpus(tmp_path)
        out = tmp_path / "rewrites.json"
        code = main(["rewrite-dir", str(src_dir), *self.FLAGS,
                     "--quiet", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "3 loops across 2 files" in text
        payload = json.loads(out.read_text())
        assert all(list(p) == RECORD_KEYS["rewrite-dir"] for p in payload)
        by_name = {p["file"].rsplit("/", 1)[-1]: p for p in payload}
        # the sum loop gets its synthesized reduction clause...
        kernel = by_name["kernel.c"]
        assert any("reduction(+:s)" in (r["pragma"] or "")
                   for r in kernel["rewrites"])
        assert "#pragma omp parallel for" in kernel["rewritten_source"]
        # ...and the prefix scan never gains a pragma
        scan = by_name["scan.c"]
        assert all(not r["accepted"] for r in scan["rewrites"])
        assert "#pragma" not in scan["rewritten_source"]

    def test_rewritten_sources_reparse(self, tmp_path, capsys):
        import json

        from repro.cfront import parse_source, unparse

        src_dir = self._corpus(tmp_path)
        out = tmp_path / "rewrites.json"
        assert main(["rewrite-dir", str(src_dir), *self.FLAGS,
                     "--quiet", "--out", str(out)]) == 0
        for record in json.loads(out.read_text()):
            assert record["error"] is None
            rewritten = record["rewritten_source"]
            assert unparse(parse_source(rewritten)) == rewritten

    def test_no_verify_skips_the_gate(self, tmp_path, capsys):
        import json

        src_dir = self._corpus(tmp_path)
        out = tmp_path / "rewrites.json"
        assert main(["rewrite-dir", str(src_dir), *self.FLAGS,
                     "--no-verify", "--quiet", "--out", str(out),
                     "--stream"]) == 0
        payload = json.loads(out.read_text())
        codes = {r["code"] for p in payload for r in p["rewrites"]}
        assert "verified" not in codes and "divergence" not in codes
        # the verifier never ran, and its zeros keep their types
        done = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert done["verifier"]["simulations"] == 0
        assert repr(done["verifier"]["elapsed_s"]) == "0.0"

    def test_stream_emits_ndjson_with_counts(self, tmp_path, capsys):
        import json

        src_dir = self._corpus(tmp_path)
        code = main(["rewrite-dir", str(src_dir), *self.FLAGS,
                     "--stream"])
        assert code == 0
        out, err = capsys.readouterr()
        records = [json.loads(line) for line in out.splitlines()]
        done = records.pop()
        assert list(done) == DONE_KEYS["rewrite-dir"] + VERIFIER_KEYS
        assert all(list(r) == RECORD_KEYS["rewrite-dir"] for r in records)
        assert done["event"] == "done"
        assert done["files"] == 2
        assert done["loops"] == 3
        assert done["accepted"] + done["refused"] <= 3
        assert done["errors"] == 0
        # in-process runs surface the verifier's fast-path counters
        assert done["simulations"] > 0
        assert done["verifier"]["compiled_runs"] > 0
        assert "3 loops across 2 files" in err
        assert "verifier:" in err

    def test_warm_cache_dir_skips_simulations(self, tmp_path, capsys):
        import json

        src_dir = self._corpus(tmp_path)
        cache = tmp_path / "cache"
        args = ["rewrite-dir", str(src_dir), *self.FLAGS,
                "--cache-dir", str(cache), "--stream"]
        assert main(args) == 0
        cold = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert cold[-1]["simulations"] > 0
        assert main(args) == 0
        warm = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        # warm contract: zero loop simulations, identical results
        assert warm[-1]["simulations"] == 0
        assert warm[-1]["verifier"]["cached_verdicts"] > 0
        def key(recs):
            return sorted(
                (r["file"], json.dumps(r["rewrites"], sort_keys=True))
                for r in recs[:-1])

        assert key(warm) == key(cold)


@pytest.mark.parametrize("command", ["suggest-dir", "rewrite-dir"])
class TestDirCommandsCLI:
    """What `suggest-dir` and `rewrite-dir` share through their one
    driver: corpus reading, backends and failure handling."""

    FLAGS = ["--scale", "0.005", "--epochs", "1", "--dim", "16"]

    def test_empty_directory_fails(self, command, tmp_path, capsys):
        code = main([command, str(tmp_path), *self.FLAGS])
        assert code == 1
        assert "no files" in capsys.readouterr().out

    def test_unreadable_file_fails_cleanly(self, command, tmp_path,
                                           capsys):
        """The corpus is read once, before any backend: a file that is
        not UTF-8 is a clean exit 2 for every backend, never a
        traceback."""
        (tmp_path / "k.c").write_text(TestSuggestDirCLI.SOURCE)
        bad = tmp_path / "latin1.c"
        bad.write_bytes(b"/* caf\xe9 */\nvoid f(void) {}\n")
        for backend in ([], ["--server", _dead_address()]):
            assert main([command, str(tmp_path), *self.FLAGS,
                         *backend]) == 2
            err = capsys.readouterr().err
            assert f"cannot read {bad}: " in err
            assert "Traceback" not in err

    def test_batch_size_below_one_fails_cleanly(self, command, tmp_path,
                                                capsys):
        (tmp_path / "k.c").write_text(TestSuggestDirCLI.SOURCE)
        assert main([command, str(tmp_path), *self.FLAGS,
                     "--batch-size", "0"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "bad --batch-size: batch size must be at least 1, got 0"]

    @pytest.mark.parametrize("flags", [
        ["--server", "DEAD", "--deadline", "0"],
        ["--server", "DEAD", "--deadline", "-1"],
        ["--peers", ",", "--bundle", "advisor"],
        ["--peers", "", "--bundle", "advisor"],
    ], ids=["deadline-0", "deadline-negative", "peers-comma",
            "peers-empty"])
    def test_bad_deadline_or_peers_fails_cleanly(self, command, flags,
                                                 tmp_path, capsys):
        """Refused up front: before connecting, training or reading
        the corpus (an unreadable file would otherwise be reported)."""
        (tmp_path / "latin1.c").write_bytes(b"/* caf\xe9 */\n")
        flags = [_dead_address() if f == "DEAD" else f for f in flags]
        assert main([command, str(tmp_path), *self.FLAGS, *flags]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(("bad --deadline: ", "--peers names no"))

    def test_unreachable_server_fails_cleanly(self, command, tmp_path,
                                              capsys):
        (tmp_path / "k.c").write_text(TestSuggestDirCLI.SOURCE)
        code = main([command, str(tmp_path), "--server", _dead_address()])
        assert code == 2
        assert "cannot reach server" in capsys.readouterr().err

    def test_server_round_trip_is_byte_identical(self, command, tmp_path,
                                                 capsys):
        """Acceptance: --server output matches the in-process path
        byte for byte."""
        import json

        from repro.eval.config import ExperimentConfig
        from repro.eval.context import get_context
        from repro.serve import ServeConfig, SuggestServer, build_service

        src_dir = tmp_path / "corpus"
        src_dir.mkdir()
        (src_dir / "k1.c").write_text(TestSuggestDirCLI.SOURCE)
        (src_dir / "k2.c").write_text(TestSuggestDirCLI.OTHER)
        golden = tmp_path / "golden.json"
        assert main([command, str(src_dir), *self.FLAGS,
                     "--quiet", "--out", str(golden)]) == 0

        # the daemon serves the same (process-cached) trained models
        ctx = get_context(ExperimentConfig(scale=0.005, seed=7,
                                           epochs=1, dim=16))
        service = build_service(ctx, ServeConfig())
        with SuggestServer({"default": service}).start() as srv:
            served = tmp_path / "served.json"
            assert main([command, str(src_dir),
                         "--server", srv.address,
                         "--quiet", "--out", str(served)]) == 0
            assert served.read_bytes() == golden.read_bytes()

            # --stream through the daemon: NDJSON + final done record
            capsys.readouterr()
            assert main([command, str(src_dir),
                         "--server", srv.address, "--stream"]) == 0
            out, err = capsys.readouterr()
            records = [json.loads(line) for line in out.splitlines()]
            assert list(records[-1]) == DONE_KEYS[command]
            assert all(list(r) == RECORD_KEYS[command]
                       for r in records[:-1])
            assert records[-1]["event"] == "done"
            assert records[-1]["files"] == 2
            assert "3 loops across 2 files" in err

            if command == "rewrite-dir":
                # --no-verify travels the wire too
                unverified = tmp_path / "unverified.json"
                assert main([command, str(src_dir),
                             "--server", srv.address, "--no-verify",
                             "--quiet", "--out", str(unverified)]) == 0
                assert unverified.read_bytes() != golden.read_bytes()


class TestUmbrellaCLI:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_no_arguments_prints_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "suggest-dir" in capsys.readouterr().out


class TestEvalCLI:
    def test_single_experiment(self, capsys):
        code = eval_main(["table1", "--profile", "fast", "--scale", "0.005"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "paper reported" in out
