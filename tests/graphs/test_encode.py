"""Tests for vocabularies, graph encoding and batching."""

import numpy as np
import pytest

from repro.cfront import parse_loop
from repro.graphs import (
    CollateCache,
    EncodeCache,
    GraphVocab,
    RELATIONS,
    Vocab,
    build_aug_ast,
    build_graph_vocab,
    collate,
    encode_graph,
)

LOOPS = [
    "for (i = 0; i < n; i++) s += a[i];",
    "for (i = 0; i < n; i++) a[i] = b[i] * 2;",
    "while (k < 100) k++;",
]


def graphs():
    return [build_aug_ast(parse_loop(src)) for src in LOOPS]


class TestVocab:
    def test_unk_is_id_zero(self):
        v = Vocab()
        assert v["<unk>"] == 0
        assert v["missing"] == 0

    def test_add_and_lookup(self):
        v = Vocab()
        idx = v.add("ForStmt")
        assert v["ForStmt"] == idx

    def test_add_is_idempotent(self):
        v = Vocab()
        assert v.add("x") == v.add("x")

    def test_frozen_vocab_maps_new_tokens_to_unk(self):
        v = Vocab()
        v.add("known")
        v.freeze()
        assert v.add("new-token") == 0
        assert "new-token" not in v

    def test_round_trip_dict(self):
        v = Vocab()
        v.add("a"), v.add("b")
        v.freeze()
        again = Vocab.from_dict(v.to_dict())
        assert again["b"] == v["b"]
        assert again.frozen

    def test_graph_vocab_save_load(self, tmp_path):
        gv = build_graph_vocab(graphs())
        path = tmp_path / "vocab.json"
        gv.save(path)
        again = GraphVocab.load(path)
        assert again.types.tokens == gv.types.tokens
        assert again.texts.tokens == gv.texts.tokens

    def test_build_graph_vocab_covers_all_types(self):
        gv = build_graph_vocab(graphs())
        for g in graphs():
            for t in g.node_types:
                assert t in gv.types


class TestEncodeGraph:
    def test_shapes(self):
        gv = build_graph_vocab(graphs())
        g = graphs()[0]
        enc = encode_graph(g, gv, label=1)
        n = g.num_nodes
        assert enc.type_ids.shape == (n,)
        assert enc.text_ids.shape == (n,)
        assert enc.position_ids.shape == (n,)
        assert enc.is_leaf.shape == (n,)
        assert enc.label == 1

    def test_every_relation_key_present(self):
        gv = build_graph_vocab(graphs())
        enc = encode_graph(graphs()[0], gv)
        assert set(enc.edges) == set(RELATIONS)

    def test_edge_array_shape(self):
        gv = build_graph_vocab(graphs())
        enc = encode_graph(graphs()[0], gv)
        for rel, arr in enc.edges.items():
            assert arr.shape[0] == 2
            if arr.size:
                assert arr.max() < enc.num_nodes

    def test_unknown_type_encodes_to_unk(self):
        gv = build_graph_vocab(graphs()[:1])
        gv.freeze()
        do_loop = build_aug_ast(parse_loop("do x--; while (x);"))
        enc = encode_graph(do_loop, gv)
        assert enc.type_ids[0] == 0  # DoStmt unseen -> UNK


class TestCollate:
    def test_node_counts_add_up(self):
        gv = build_graph_vocab(graphs())
        encs = [encode_graph(g, gv, label=i % 2) for i, g in enumerate(graphs())]
        batch = collate(encs)
        assert batch.num_nodes == sum(e.num_nodes for e in encs)
        assert batch.num_graphs == len(encs)

    def test_graph_ids_partition_nodes(self):
        gv = build_graph_vocab(graphs())
        encs = [encode_graph(g, gv) for g in graphs()]
        batch = collate(encs)
        counts = np.bincount(batch.graph_ids, minlength=len(encs))
        assert list(counts) == [e.num_nodes for e in encs]

    def test_edges_offset_into_correct_blocks(self):
        gv = build_graph_vocab(graphs())
        encs = [encode_graph(g, gv) for g in graphs()]
        batch = collate(encs)
        offsets = np.cumsum([0] + [e.num_nodes for e in encs[:-1]])
        for rel in RELATIONS:
            arr = batch.edges[rel]
            for col in range(arr.shape[1]):
                src, dst = arr[0, col], arr[1, col]
                # src and dst must fall in the same graph block
                assert batch.graph_ids[src] == batch.graph_ids[dst]

    def test_labels_preserved(self):
        gv = build_graph_vocab(graphs())
        encs = [encode_graph(g, gv, label=i) for i, g in enumerate(graphs())]
        batch = collate(encs)
        assert list(batch.labels) == [0, 1, 2]

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            collate([])

    def test_single_graph_batch(self):
        gv = build_graph_vocab(graphs())
        enc = encode_graph(graphs()[0], gv)
        batch = collate([enc])
        assert batch.num_graphs == 1
        assert (batch.graph_ids == 0).all()

    def test_single_graph_batch_preserves_arrays(self):
        gv = build_graph_vocab(graphs())
        enc = encode_graph(graphs()[0], gv, label=1)
        batch = collate([enc])
        assert (batch.type_ids == enc.type_ids).all()
        for rel in RELATIONS:
            assert (batch.edges[rel] == enc.edges[rel]).all()
        assert list(batch.labels) == [1]

    def test_relation_empty_in_every_graph_stays_empty(self):
        gv = build_graph_vocab(graphs())
        encs = [encode_graph(g, gv) for g in graphs()]
        rel = RELATIONS[0]
        for enc in encs:
            enc.edges[rel] = np.zeros((2, 0), dtype=np.int64)
        batch = collate(encs)
        assert batch.edges[rel].shape == (2, 0)
        assert batch.edges[rel].dtype == np.int64

    def test_all_relations_empty(self):
        gv = build_graph_vocab(graphs())
        encs = [encode_graph(g, gv) for g in graphs()[:2]]
        for enc in encs:
            for rel in RELATIONS:
                enc.edges[rel] = np.zeros((2, 0), dtype=np.int64)
        batch = collate(encs)
        assert batch.num_nodes == sum(e.num_nodes for e in encs)
        for rel in RELATIONS:
            assert batch.edges[rel].shape == (2, 0)


class TestEncodeCache:
    def test_identical_source_hits(self):
        gv = build_graph_vocab(graphs())
        cache = EncodeCache(gv, representation="aug")
        a = cache.encode_loop(LOOPS[0])
        b = cache.encode_loop(LOOPS[0])
        assert a is b
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_matches_uncached_encoding(self):
        gv = build_graph_vocab(graphs())
        cache = EncodeCache(gv, representation="aug")
        cached = cache.encode_loop(LOOPS[0])
        direct = encode_graph(build_aug_ast(parse_loop(LOOPS[0])), gv)
        assert (cached.type_ids == direct.type_ids).all()
        assert (cached.text_ids == direct.text_ids).all()
        for rel in RELATIONS:
            assert (cached.edges[rel] == direct.edges[rel]).all()

    def test_label_applied_without_mutating_cache(self):
        gv = build_graph_vocab(graphs())
        cache = EncodeCache(gv)
        labelled = cache.encode_loop(LOOPS[0], label=1)
        assert labelled.label == 1
        assert cache.encode_loop(LOOPS[0]).label == 0
        # arrays are shared, only the dataclass shell differs
        assert labelled.type_ids is cache.encode_loop(LOOPS[0]).type_ids

    def test_lru_eviction(self):
        gv = build_graph_vocab(graphs())
        cache = EncodeCache(gv, max_entries=2)
        for src in LOOPS:
            cache.encode_loop(src)
        assert len(cache) == 2
        cache.encode_loop(LOOPS[0])   # evicted earlier -> miss again
        assert cache.misses == 4

    def test_rejects_unknown_representation(self):
        with pytest.raises(ValueError):
            EncodeCache(GraphVocab(), representation="nope")


class TestCollateCache:
    def _encoded(self):
        gs = graphs()
        vocab = build_graph_vocab(gs)
        return [encode_graph(g, vocab) for g in gs]

    def test_hit_returns_same_batch_object(self):
        data = self._encoded()
        cache = CollateCache()
        first = cache.collate(data)
        first.struct_cache["probe"] = "kept"
        again = cache.collate(data)
        assert again is first
        assert again.struct_cache["probe"] == "kept"
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_different_order_is_different_batch(self):
        data = self._encoded()
        cache = CollateCache()
        a = cache.collate(data)
        b = cache.collate(list(reversed(data)))
        assert a is not b
        assert cache.stats()["misses"] == 2

    def test_matches_plain_collate(self):
        data = self._encoded()
        cached = CollateCache().collate(data)
        plain = collate(data)
        assert cached.type_ids.tobytes() == plain.type_ids.tobytes()
        assert cached.graph_ids.tobytes() == plain.graph_ids.tobytes()
        for rel in RELATIONS:
            assert cached.edges[rel].tobytes() == plain.edges[rel].tobytes()

    def test_lru_eviction(self):
        data = self._encoded()
        cache = CollateCache(max_entries=2)
        a = cache.collate(data[:1])
        cache.collate(data[1:2])
        cache.collate(data[2:3])       # evicts the first entry
        assert len(cache) == 2
        b = cache.collate(data[:1])    # miss again
        assert b is not a
        assert cache.stats()["hits"] == 0
