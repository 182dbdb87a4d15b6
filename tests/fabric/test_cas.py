"""Content-addressed bundle distribution: hash, verify, push once.

The CAS contract end to end: ``archive_sha256`` is the address,
``BundleRegistry`` refuses content it cannot verify and resolves
hash prefixes unambiguously, and ``bundle-have`` / ``bundle-push``
against a live daemon ship an archive's bytes at most once per peer.
"""

import hashlib
import os
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.artifacts import (
    BundleError,
    BundleRegistry,
    SuggesterBundle,
    archive_sha256,
    pack_bundle,
)
from repro.cfront import parse_loop
from repro.client import ClientError, connect
from repro.eval.context import TrainedGraphModel
from repro.fabric import PeerBundle, archive_for, provision_peers
from repro.graphs import build_aug_ast, build_graph_vocab
from repro.models import Graph2Par, Graph2ParConfig
from repro.serve import SuggestServer, protocol
from repro.train import GraphTrainer, TrainConfig

LOOPS = [
    "for (i = 0; i < n; i++) s += a[i];",
    "for (i = 0; i < n; i++) a[i] = b[i] * 2.0;",
]

SOURCE = """
double a[100], b[100]; double s;
void kernel(void) {
    int i;
    for (i = 0; i < 100; i++) a[i] = b[i];
    for (i = 0; i < 100; i++) s += a[i];
}
"""


def _bundle(seed: int = 0) -> SuggesterBundle:
    graphs = [build_aug_ast(parse_loop(src)) for src in LOOPS]
    vocab = build_graph_vocab(graphs)

    def trained(task):
        model = Graph2Par(vocab, Graph2ParConfig(dim=16, layers=1,
                                                 seed=seed))
        return TrainedGraphModel(
            trainer=GraphTrainer(model, TrainConfig(epochs=1, seed=seed)),
            vocab=vocab, representation="aug", task=task,
        )

    return SuggesterBundle(parallel=trained("parallel"),
                           clause_models={"reduction": trained("reduction")})


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """One tiny trained-bundle archive, built once per module."""
    root = tmp_path_factory.mktemp("cas-bundle")
    _bundle().save(root / "advisor")
    path = root / "advisor.tar.gz"
    pack_bundle(root / "advisor", path)
    return path


@pytest.fixture
def acceptor(tmp_path):
    """An empty daemon that accepts pushed bundles."""
    srv = SuggestServer({}, cache_dir=str(tmp_path / "cache"),
                        bundle_cache_dir=tmp_path / "bundles").start()
    yield srv
    srv.shutdown()


class TestContentAddress:
    def test_sha_is_the_bytes_hash(self, archive):
        expected = hashlib.sha256(archive.read_bytes()).hexdigest()
        assert archive_sha256(archive) == expected
        assert archive_sha256(archive) == expected    # stable

    def test_archive_for_passes_files_through(self, archive, tmp_path):
        assert archive_for(archive, tmp_path) == archive
        assert not list(tmp_path.iterdir())           # nothing packed

    def test_archive_for_packs_directories(self, tmp_path):
        _bundle().save(tmp_path / "advisor")
        packed = archive_for(tmp_path / "advisor", tmp_path / "scratch")
        assert packed.is_file()
        # the packed archive is a loadable content address
        registry = BundleRegistry()
        registry.add_archive(packed,
                             expect_sha256=archive_sha256(packed))
        assert registry.names() == ["advisor"]

    def test_same_content_packs_to_one_hash(self, tmp_path, monkeypatch):
        """Re-packing is a cache hit: no clock, mtime or owner in the
        bytes, so a bundle directory is pushed once per peer, ever."""
        bundle = _bundle()
        bundle.save(tmp_path / "advisor")

        def pack(name: str, clock: float) -> list[str]:
            monkeypatch.setattr(time, "time", lambda: clock)
            for member in (tmp_path / "advisor").rglob("*"):
                os.utime(member, (clock, clock))
            return [archive_sha256(pack_bundle(tmp_path / "advisor",
                                               tmp_path / name)),
                    archive_sha256(bundle.export_archive(
                        tmp_path / "export" / name))]

        hashes = (pack("first.tar.gz", 1.7e9)
                  + pack("second.tar.gz", 1.7e9 + 3600))
        assert len(set(hashes)) == 1


class TestRegistryVerification:
    def test_hash_mismatch_refused_before_load(self, archive):
        registry = BundleRegistry()
        with pytest.raises(BundleError, match="refusing"):
            registry.add_archive(archive, expect_sha256="0" * 64)
        assert len(registry) == 0                     # nothing served

    def test_add_archive_records_the_hash(self, archive):
        registry = BundleRegistry()
        name = registry.add_archive(archive)
        digest = archive_sha256(archive)
        assert name == "advisor"
        assert registry.sha256_of("advisor") == digest
        assert registry.hashes() == {"advisor": digest}

    def test_resolve_name_and_hash_prefix(self, archive):
        registry = BundleRegistry()
        registry.add_archive(archive)
        digest = archive_sha256(archive)
        assert registry.resolve("advisor") == "advisor"
        assert registry.resolve(digest) == "advisor"
        assert registry.resolve(digest[:12]) == "advisor"

    def test_ambiguous_prefix_refused(self, archive):
        registry = BundleRegistry()
        registry.add_archive(archive, name="alpha")
        registry.add_archive(archive, name="beta")    # same content
        digest = archive_sha256(archive)
        with pytest.raises(ValueError, match="ambiguous"):
            registry.resolve(digest[:12])
        # exact names still address each copy
        assert registry.resolve("alpha") == "alpha"

    def test_unknown_ref_lists_served(self, archive):
        registry = BundleRegistry()
        registry.add_archive(archive)
        with pytest.raises(KeyError, match="advisor"):
            registry.resolve("f" * 64)


class TestPushWire:
    def test_push_once_then_cache_hits(self, acceptor, archive):
        data = archive.read_bytes()
        digest = archive_sha256(archive)
        with connect(acceptor.address) as client:
            assert client.bundle_have(digest).have is False
            first = client.bundle_push(data, name="advisor")
            assert (first.name, first.cached) == ("advisor", False)
            have = client.bundle_have(digest)
            assert have.have is True and have.name == "advisor"
            # the bytes never cross the wire twice
            assert client.bundle_push(data, name="advisor").cached is True
        with connect(acceptor.address) as client:
            assert "advisor" in client.bundles()

    def test_pushed_bundle_serves_requests(self, acceptor, archive):
        with connect(acceptor.address) as client:
            client.bundle_push(archive.read_bytes(), name="advisor")
            frames = list(client.stream_request(protocol.SuggestRequest(
                sources=(("a.c", SOURCE),), bundle="advisor",
                ordered=True, stream=True)))
        assert [f.name for f in frames] == ["a.c"]
        assert frames[0].payload["error"] is None

    def test_hash_prefix_addresses_a_request_bundle(self, acceptor,
                                                    archive):
        digest = archive_sha256(archive)
        with connect(acceptor.address) as client:
            client.bundle_push(archive.read_bytes(), name="advisor")
            frames = list(client.stream_request(protocol.SuggestRequest(
                sources=(("a.c", SOURCE),), bundle=digest[:12],
                ordered=True, stream=True)))
        assert frames[0].payload["error"] is None

    def test_hash_mismatch_refused(self, acceptor, archive):
        with connect(acceptor.address) as client:
            with pytest.raises(ClientError) as exc:
                client.bundle_push(archive.read_bytes(),
                                   sha256="0" * 64, name="advisor")
            assert exc.value.code == "hash-mismatch"
            # the refused archive was not cached under either hash
            assert client.bundle_have("0" * 64).have is False
            assert client.bundle_have(
                archive_sha256(archive)).have is False

    def test_concurrent_pushes_of_one_archive_both_land(
            self, acceptor, archive, monkeypatch):
        """Two clients pushing the same bytes at once: each stages its
        own temp file, so neither rename finds its source gone."""
        meet = threading.Barrier(2, timeout=30)
        replace = os.replace

        def rendezvous(src, dst):
            if Path(dst).parent == acceptor.bundle_cache_dir:
                meet.wait()
            replace(src, dst)

        monkeypatch.setattr(os, "replace", rendezvous)
        data, replies = archive.read_bytes(), []

        def push() -> None:
            try:
                with connect(acceptor.address) as client:
                    replies.append(client.bundle_push(data, name="advisor"))
            except ClientError as exc:
                replies.append(exc)

        threads = [threading.Thread(target=push) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert [type(r) for r in replies] == [protocol.BundlePushOk] * 2

    def test_garbage_archive_refused(self, acceptor):
        with connect(acceptor.address) as client:
            with pytest.raises(ClientError) as exc:
                client.bundle_push(b"not a tarball", name="junk")
            assert exc.value.code == "bundle-error"

    def test_push_refused_without_acceptor_flag(self, tmp_path,
                                                archive):
        _bundle().save(tmp_path / "served")
        srv = SuggestServer.from_registry(
            BundleRegistry.from_specs([str(tmp_path / "served")])).start()
        try:
            with connect(srv.address) as client:
                assert client.capabilities["bundle_push"] is False
                with pytest.raises(ClientError) as exc:
                    client.bundle_push(archive.read_bytes())
                assert exc.value.code == "bad-request"
                assert "--accept-bundles" in str(exc.value)
        finally:
            srv.shutdown()


class TestProvision:
    def test_every_peer_provisioned_exactly_once(self, tmp_path,
                                                 archive):
        servers = [
            SuggestServer({}, cache_dir=str(tmp_path / f"c{i}"),
                          bundle_cache_dir=tmp_path / f"b{i}").start()
            for i in range(2)
        ]
        peers = [srv.address for srv in servers]
        try:
            digest = archive_sha256(archive)
            first = provision_peers(peers, archive)
            assert first == [
                PeerBundle(peer=peer, name="advisor", sha256=digest,
                           pushed=True)
                for peer in peers
            ]
            # re-provisioning the warm fleet ships zero bytes
            again = provision_peers(peers, archive)
            assert [pb.pushed for pb in again] == [False, False]
            assert [pb.name for pb in again] == ["advisor", "advisor"]
        finally:
            for srv in servers:
                srv.shutdown()

    def test_partial_fleet_failure_propagates(self, acceptor, archive):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead = "127.0.0.1:%d" % probe.getsockname()[1]
        with pytest.raises((ClientError, OSError)):
            provision_peers([acceptor.address, dead], archive)
