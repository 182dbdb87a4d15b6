"""Round-trip and failure-mode tests for persistent model artifacts.

For every model family, ``save → load → predict`` must be
byte-identical, and artifacts with a mismatched format version or
vocabulary hash must fail with a clear error instead of predicting
garbage.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.artifacts import (
    ArtifactError,
    BundleError,
    SuggesterBundle,
    family_of,
    load_trained,
    pack_bundle,
    save_trained,
    unpack_bundle,
)
from repro.cfront import parse_loop
from repro.eval.context import TrainedGraphModel, TrainedTokenModel
from repro.graphs import build_aug_ast, build_graph_vocab, encode_graph
from repro.models import (
    GCNBaseline,
    GCNConfig,
    Graph2Par,
    Graph2ParConfig,
    PragFormer,
    PragFormerConfig,
    RGCNBaseline,
    RGCNConfig,
)
from repro.models.pragformer import (
    build_token_vocab,
    encode_tokens,
    tokenize_loop,
)
from repro.nn import SerializeError
from repro.train import GraphTrainer, TokenTrainer, TrainConfig

LOOPS = [
    "for (i = 0; i < n; i++) s += a[i];",
    "for (i = 0; i < n; i++) a[i] = b[i] * 2.0;",
    "for (j = 1; j < n; j++) a[j] = a[j - 1] + 1;",
    "for (i = 0; i < n; i++) { t = a[i]; b[i] = t * t; }",
    "for (k = 0; k < m; k++) c[k] = f(a[k]) + b[k];",
]

GRAPH_FAMILIES = {
    "graph2par": (Graph2Par, Graph2ParConfig),
    "gcn": (GCNBaseline, GCNConfig),
    "rgcn": (RGCNBaseline, RGCNConfig),
}


def _graph_fixture(seed: int = 0):
    """A tiny vocab + encoded graphs over the shared loop set."""
    graphs = [build_aug_ast(parse_loop(src)) for src in LOOPS]
    vocab = build_graph_vocab(graphs)
    encoded = [encode_graph(g, vocab) for g in graphs]
    return vocab, encoded


def _trained_graph(family: str, seed: int = 0) -> TrainedGraphModel:
    """An (untrained, seeded-random) wrapper of one graph family."""
    vocab, _ = _graph_fixture()
    model_cls, config_cls = GRAPH_FAMILIES[family]
    model = model_cls(vocab, config_cls(dim=16, layers=1, seed=seed))
    return TrainedGraphModel(
        trainer=GraphTrainer(model, TrainConfig(epochs=1, seed=seed)),
        vocab=vocab, representation="aug", task="parallel",
    )


def _trained_token(seed: int = 0) -> TrainedTokenModel:
    seqs = [tokenize_loop(src) for src in LOOPS]
    vocab = build_token_vocab(seqs)
    model = PragFormer(vocab, PragFormerConfig(dim=16, heads=2, layers=1,
                                               seed=seed))
    return TrainedTokenModel(
        trainer=TokenTrainer(model, TrainConfig(epochs=1, seed=seed)),
        vocab=vocab, task="parallel", max_len=128,
    )


def _logits(trained: TrainedGraphModel, encoded) -> np.ndarray:
    from repro.graphs import collate
    from repro.nn.tensor import no_grad

    trained.trainer.model.eval()
    with no_grad():
        return trained.trainer.model(collate(encoded)).data.copy()


class TestGraphRoundTrips:
    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_save_load_predict_identical(self, family, tmp_path):
        vocab, encoded = _graph_fixture()
        trained = _trained_graph(family, seed=3)
        save_trained(trained, tmp_path / family)
        loaded = load_trained(tmp_path / family)

        assert family_of(loaded.trainer.model) == family
        assert loaded.task == trained.task
        assert loaded.representation == trained.representation
        assert loaded.vocab.content_hash() == vocab.content_hash()
        # weights byte-identical, not merely close
        original = trained.trainer.model.state_dict()
        restored = loaded.trainer.model.state_dict()
        assert sorted(original) == sorted(restored)
        for name in original:
            assert original[name].tobytes() == restored[name].tobytes()
        # and therefore logits + predictions byte-identical
        assert _logits(trained, encoded).tobytes() == \
            _logits(loaded, encoded).tobytes()
        assert np.array_equal(trained.trainer.predict(encoded),
                              loaded.trainer.predict(encoded))
        assert trained.fingerprint() == loaded.fingerprint()

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_hgt_round_trip_any_seed(self, seed, tmp_path_factory):
        """Property: round trip holds for arbitrary initialisations."""
        tmp = tmp_path_factory.mktemp("rt")
        _, encoded = _graph_fixture()
        trained = _trained_graph("graph2par", seed=seed)
        save_trained(trained, tmp / "m")
        loaded = load_trained(tmp / "m")
        assert _logits(trained, encoded).tobytes() == \
            _logits(loaded, encoded).tobytes()

    def test_train_config_survives(self, tmp_path):
        trained = _trained_graph("gcn")
        trained.trainer.config = TrainConfig(epochs=9, lr=0.5, seed=13)
        save_trained(trained, tmp_path / "m")
        loaded = load_trained(tmp_path / "m")
        assert loaded.trainer.config == trained.trainer.config


class TestTokenRoundTrip:
    def test_pragformer_save_load_predict_identical(self, tmp_path):
        trained = _trained_token(seed=5)
        seqs = [tokenize_loop(src) for src in LOOPS]
        ids, mask = encode_tokens(seqs, trained.vocab, trained.max_len)
        save_trained(trained, tmp_path / "pf")
        loaded = load_trained(tmp_path / "pf")
        assert family_of(loaded.trainer.model) == "pragformer"
        assert loaded.max_len == trained.max_len
        original = trained.trainer.model.state_dict()
        restored = loaded.trainer.model.state_dict()
        assert sorted(original) == sorted(restored)
        for name in original:
            assert original[name].tobytes() == restored[name].tobytes()
        assert np.array_equal(trained.trainer.predict(ids, mask),
                              loaded.trainer.predict(ids, mask))


class TestFailureModes:
    def test_format_version_mismatch_is_clear(self, tmp_path):
        trained = _trained_graph("graph2par")
        save_trained(trained, tmp_path / "m")
        meta_path = tmp_path / "m" / "model.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 999
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ArtifactError, match="format version"):
            load_trained(tmp_path / "m")

    def test_vocab_hash_mismatch_is_clear(self, tmp_path):
        trained = _trained_graph("graph2par")
        save_trained(trained, tmp_path / "m")
        # swap in a different (smaller) vocabulary
        other = build_graph_vocab(
            [build_aug_ast(parse_loop(LOOPS[0]))]
        )
        (tmp_path / "m" / "vocab.json").write_text(
            json.dumps(other.to_dict())
        )
        with pytest.raises(ArtifactError, match="[Vv]ocab"):
            load_trained(tmp_path / "m")

    def test_missing_directory_is_clear(self, tmp_path):
        with pytest.raises(ArtifactError, match="missing"):
            load_trained(tmp_path / "nope")

    def test_truncated_weights_are_clear(self, tmp_path):
        trained = _trained_graph("gcn")
        save_trained(trained, tmp_path / "m")
        weights = tmp_path / "m" / "weights.npz"
        data = weights.read_bytes()
        weights.write_bytes(data[: len(data) // 2])
        with pytest.raises(SerializeError, match="cannot read"):
            load_trained(tmp_path / "m")

    def test_unregistered_model_has_no_family(self):
        from repro.nn import Linear

        with pytest.raises(ArtifactError, match="family"):
            family_of(Linear(4, 2))


class TestSuggesterBundle:
    def _bundle(self, seed: int = 0) -> SuggesterBundle:
        vocab, _ = _graph_fixture()

        def trained(task, s):
            model = Graph2Par(vocab, Graph2ParConfig(dim=16, layers=1,
                                                     seed=s))
            return TrainedGraphModel(
                trainer=GraphTrainer(model, TrainConfig(seed=s)),
                vocab=vocab, representation="aug", task=task,
            )

        return SuggesterBundle(
            parallel=trained("parallel", seed),
            clause_models={
                "reduction": trained("reduction", seed + 1),
                "private": trained("private", seed + 2),
            },
            experiment={"scale": 0.005},
        )

    def test_round_trip_predictions(self, tmp_path):
        _, encoded = _graph_fixture()
        bundle = self._bundle(seed=11)
        bundle.save(tmp_path / "b")
        loaded = SuggesterBundle.load(tmp_path / "b")
        assert sorted(loaded.clause_models) == \
            sorted(bundle.clause_models)
        assert loaded.experiment == bundle.experiment
        assert np.array_equal(
            bundle.parallel.trainer.predict(encoded),
            loaded.parallel.trainer.predict(encoded),
        )
        for name, model in bundle.clause_models.items():
            assert np.array_equal(
                model.trainer.predict(encoded),
                loaded.clause_models[name].trainer.predict(encoded),
            )
        # all loaded models share the single bundle vocabulary object
        assert loaded.parallel.vocab is loaded.clause_models["private"].vocab

    def test_manifest_version_mismatch(self, tmp_path):
        bundle = self._bundle()
        bundle.save(tmp_path / "b")
        manifest = tmp_path / "b" / "manifest.json"
        meta = json.loads(manifest.read_text())
        meta["format_version"] = 0
        manifest.write_text(json.dumps(meta))
        with pytest.raises(BundleError, match="format version"):
            SuggesterBundle.load(tmp_path / "b")

    def test_tampered_vocab_rejected(self, tmp_path):
        bundle = self._bundle()
        bundle.save(tmp_path / "b")
        other = build_graph_vocab([build_aug_ast(parse_loop(LOOPS[1]))])
        (tmp_path / "b" / "vocab.json").write_text(
            json.dumps(other.to_dict())
        )
        with pytest.raises(BundleError, match="vocab"):
            SuggesterBundle.load(tmp_path / "b")

    def test_not_a_bundle(self, tmp_path):
        with pytest.raises(BundleError):
            SuggesterBundle.load(tmp_path)

    def test_mixed_vocab_save_rejected(self, tmp_path):
        bundle = self._bundle()
        other_vocab = build_graph_vocab(
            [build_aug_ast(parse_loop(LOOPS[0]))]
        )
        model = Graph2Par(other_vocab, Graph2ParConfig(dim=16, layers=1))
        bundle.clause_models["simd"] = TrainedGraphModel(
            trainer=GraphTrainer(model, TrainConfig()),
            vocab=other_vocab, representation="aug", task="simd",
        )
        with pytest.raises(BundleError, match="vocabulary"):
            bundle.save(tmp_path / "b")

    def test_build_service_runs_without_training(self, tmp_path,
                                                 monkeypatch):
        bundle = self._bundle()
        bundle.save(tmp_path / "b")
        loaded = SuggesterBundle.load(tmp_path / "b")

        def boom(*args, **kwargs):  # noqa: ANN002
            raise AssertionError("bundle serving must not train")

        monkeypatch.setattr(GraphTrainer, "fit", boom)
        service = loaded.build_service()
        results = list(service.stream_sources([(
            "k.c",
            "void f(void) { int i; double s, a[8];"
            " for (i = 0; i < 8; i++) s += a[i]; }",
        )]))
        assert len(results) == 1
        assert results[0].error is None
        assert len(results[0].suggestions) == 1

    def test_build_service_clause_subset(self, tmp_path):
        from repro.serve import build_service

        bundle = self._bundle()
        service = build_service(bundle, clauses=("reduction",))
        assert sorted(service.suggester.clause_models) == ["reduction"]
        with pytest.raises(ValueError, match="no clause model"):
            build_service(bundle, clauses=("simd",))


class TestBundleArchive:
    """One archive file ⇄ one bundle directory, predictions identical."""

    def _bundle(self, seed: int = 0) -> SuggesterBundle:
        return TestSuggesterBundle._bundle(self, seed)

    def test_export_archive_round_trip(self, tmp_path):
        _, encoded = _graph_fixture()
        bundle = self._bundle(seed=17)
        archive = bundle.export_archive(tmp_path / "advisor.tar.gz")
        assert archive.is_file()
        loaded = SuggesterBundle.load(archive)
        assert loaded.source_path == str(archive)
        assert sorted(loaded.clause_models) == sorted(bundle.clause_models)
        assert np.array_equal(
            bundle.parallel.trainer.predict(encoded),
            loaded.parallel.trainer.predict(encoded),
        )
        assert bundle.parallel.fingerprint() == \
            loaded.parallel.fingerprint()

    def test_pack_unpack_round_trip(self, tmp_path):
        import tarfile

        bundle = self._bundle(seed=23)
        bundle.save(tmp_path / "dir")
        archive = pack_bundle(tmp_path / "dir", tmp_path / "b.tar.gz")
        with tarfile.open(archive) as tar:
            names = tar.getnames()
        assert len(names) == len(set(names)), "duplicate tar members"
        unpack_bundle(archive, tmp_path / "again")
        # every file of the layout survives byte-for-byte
        originals = sorted(p.relative_to(tmp_path / "dir")
                           for p in (tmp_path / "dir").rglob("*")
                           if p.is_file())
        restored = sorted(p.relative_to(tmp_path / "again")
                          for p in (tmp_path / "again").rglob("*")
                          if p.is_file())
        assert restored == originals
        for rel in originals:
            assert (tmp_path / "again" / rel).read_bytes() == \
                (tmp_path / "dir" / rel).read_bytes()
        # and the unpacked directory loads like the original
        loaded = SuggesterBundle.load(tmp_path / "again")
        assert loaded.vocab.content_hash() == bundle.vocab.content_hash()

    def test_load_records_directory_source_path(self, tmp_path):
        bundle = self._bundle()
        bundle.save(tmp_path / "b")
        loaded = SuggesterBundle.load(tmp_path / "b")
        assert loaded.source_path == str(tmp_path / "b")

    def test_pack_refuses_non_bundle_directory(self, tmp_path):
        (tmp_path / "junk").mkdir()
        with pytest.raises(BundleError, match="manifest"):
            pack_bundle(tmp_path / "junk", tmp_path / "junk.tar.gz")

    def test_unpack_refuses_unsafe_members(self, tmp_path):
        import tarfile

        evil = tmp_path / "evil.tar.gz"
        payload = tmp_path / "payload"
        payload.write_text("{}")
        with tarfile.open(evil, "w:gz") as tar:
            tar.add(payload, arcname="../escape.json")
        with pytest.raises(BundleError, match="unsafe"):
            unpack_bundle(evil, tmp_path / "out")

    def test_unpack_refuses_non_archives(self, tmp_path):
        not_tar = tmp_path / "nope.tar.gz"
        not_tar.write_text("just text")
        with pytest.raises(BundleError, match="cannot read"):
            unpack_bundle(not_tar, tmp_path / "out")

    def test_load_archive_verifies_like_directory(self, tmp_path):
        """Tampering inside the archive fails exactly like a tampered
        directory — the hash checks run on the extracted tree."""
        import tarfile

        bundle = self._bundle()
        bundle.save(tmp_path / "dir")
        other = build_graph_vocab([build_aug_ast(parse_loop(LOOPS[1]))])
        (tmp_path / "dir" / "vocab.json").write_text(
            json.dumps(other.to_dict())
        )
        archive = tmp_path / "tampered.tar.gz"
        with tarfile.open(archive, "w:gz") as tar:
            for member in sorted((tmp_path / "dir").rglob("*")):
                tar.add(member,
                        arcname=str(member.relative_to(tmp_path / "dir")))
        with pytest.raises(BundleError, match="vocab"):
            SuggesterBundle.load(archive)
