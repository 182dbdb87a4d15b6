"""Tests for the PragFormer token-transformer baseline."""

import numpy as np
import pytest

from repro.models import PragFormer, PragFormerConfig
from repro.models.pragformer import (
    CLS,
    PAD,
    build_token_vocab,
    encode_tokens,
    tokenize_loop,
)
from repro.nn import Adam, functional as F


class TestTokenizeLoop:
    def test_cls_first(self):
        assert tokenize_loop("for (i = 0; i < n; i++) s += i;")[0] == CLS

    def test_identifiers_alpha_renamed(self):
        toks = tokenize_loop("for (i = 0; i < n; i++) s += a[i];")
        assert "v0" in toks and "v1" in toks
        assert "i" not in toks and "n" not in toks

    def test_function_names_in_f_namespace(self):
        toks = tokenize_loop("for (i = 0; i < n; i++) s += fabs(a[i]);")
        assert "f0" in toks

    def test_same_identifier_same_token(self):
        toks = tokenize_loop("x = x + x;")
        assert toks.count("v0") == 3

    def test_literals_normalised(self):
        toks = tokenize_loop('x = 30000000 + 2.5; s = "hi";')
        assert "<int>" in toks and "<float>" in toks and "<str>" in toks

    def test_small_ints_kept(self):
        toks = tokenize_loop("for (i = 0; i < 4; i += 2) s++;")
        assert "0" in toks and "4" in toks and "2" in toks

    def test_keywords_and_operators_kept(self):
        toks = tokenize_loop("for (i = 0; i < n; i++) s += i;")
        assert "for" in toks and "+=" in toks and "<" in toks

    def test_max_len_respected(self):
        long_src = "x = " + " + ".join(f"a{i}" for i in range(300)) + ";"
        assert len(tokenize_loop(long_src, max_len=64)) <= 64

    def test_pragma_lines_excluded(self):
        toks = tokenize_loop(
            "#pragma omp parallel for\nfor (i = 0; i < n; i++) s += i;")
        assert "pragma" not in " ".join(toks)


class TestEncodeTokens:
    def test_padding_and_mask(self):
        seqs = [["<cls>", "for", "v0"], ["<cls>", "while"]]
        vocab = build_token_vocab(seqs)
        ids, mask = encode_tokens(seqs, vocab)
        assert ids.shape == mask.shape == (2, 3)
        assert not mask[0].any()
        assert mask[1, 2]  # padded position
        assert ids[1, 2] == vocab[PAD]

    def test_truncation(self):
        seqs = [["<cls>"] + ["x"] * 100]
        vocab = build_token_vocab(seqs)
        ids, mask = encode_tokens(seqs, vocab, max_len=16)
        assert ids.shape == (1, 16)

    def test_unknown_token_becomes_unk(self):
        vocab = build_token_vocab([["<cls>", "for"]])
        ids, _ = encode_tokens([["<cls>", "never-seen"]], vocab)
        assert ids[0, 1] == 0


class TestPragFormerModel:
    def _toy(self):
        pos = ["for (i = 0; i < n; i++) s += a[i];",
               "for (j = 0; j < m; j++) t = t + b[j];"]
        neg = ["for (i = 0; i < n; i++) a[i] = b[i];",
               "for (j = 0; j < m; j++) c[j] = 0;"]
        srcs = pos + neg
        labels = np.array([1, 1, 0, 0])
        seqs = [tokenize_loop(s) for s in srcs]
        vocab = build_token_vocab(seqs)
        ids, mask = encode_tokens(seqs, vocab)
        return vocab, ids, mask, labels, srcs

    def test_logit_shape(self):
        vocab, ids, mask, labels, _ = self._toy()
        model = PragFormer(vocab, PragFormerConfig(dim=16, heads=2, layers=1))
        assert model(ids, mask).shape == (4, 2)

    def test_padding_does_not_change_prediction(self):
        vocab, ids, mask, labels, srcs = self._toy()
        model = PragFormer(vocab, PragFormerConfig(dim=16, heads=2, layers=1,
                                                   dropout=0.0))
        model.eval()
        solo = model.forward_sources([srcs[0]]).data
        batched = model.forward_sources([srcs[0], srcs[1]]).data[0]
        assert np.allclose(solo[0], batched, atol=1e-4)

    def test_overfits_tiny_task(self):
        vocab, ids, mask, labels, _ = self._toy()
        model = PragFormer(vocab, PragFormerConfig(dim=32, heads=4, layers=2,
                                                   dropout=0.0))
        opt = Adam(model.parameters(), lr=3e-3)
        for _ in range(60):
            opt.zero_grad()
            loss = F.cross_entropy(model(ids, mask), labels)
            loss.backward()
            opt.step()
        assert F.accuracy(model(ids, mask), labels) == 1.0

    def test_forward_sources_end_to_end(self):
        vocab, ids, mask, labels, srcs = self._toy()
        model = PragFormer(vocab, PragFormerConfig(dim=16, heads=2, layers=1))
        out = model.forward_sources(srcs)
        assert out.shape == (4, 2)

    def test_dim_heads_validation(self):
        vocab, *_ = self._toy()
        with pytest.raises(ValueError):
            PragFormer(vocab, PragFormerConfig(dim=10, heads=3))
