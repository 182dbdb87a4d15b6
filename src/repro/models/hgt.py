"""Graph2Par: a Heterogeneous Graph Transformer over aug-AST graphs.

Implements the three HGT mechanisms of Hu et al. 2020 exactly as paper
section 5.2 uses them:

- **Heterogeneous mutual attention** (eq. 2): per-head dot-product
  attention between each edge's source (Key) and target (Query), mediated
  by an edge-type matrix ``W_ATT^r`` and a relation prior μ_r, normalised
  with a softmax over each target's full in-neighbourhood N(t).
- **Heterogeneous message passing** (eq. 3): per-head messages
  ``V(s) · W_MSG^r``.
- **Target-specific aggregation** (eq. 4/5): attention-weighted message
  sum followed by a node-type-specific output projection (``A-Linear``),
  a GELU, and the residual connection.

Per the paper, the temporal machinery of the original HGT (relative
temporal encoding, inductive timestamp assignment) is disabled: the
aug-AST is static.

Node-type-specific projections are realised by :class:`TypedLinear`,
which stores one weight matrix per node type as a single ``(A, D, D')``
tensor and uses a gather + batched matmul — one BLAS call instead of a
Python loop over types.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.encode import GraphBatch
from repro.graphs.hetgraph import NODE_POSITIONS, RELATIONS
from repro.graphs.vocab import GraphVocab
from repro.nn import (
    Dropout,
    Embedding,
    LayerNorm,
    MLP,
    Module,
    Parameter,
)
from repro.nn.tensor import (
    Tensor,
    concat,
    embedding_sum,
    fast_math_enabled,
    is_grad_enabled,
    scatter_add_exact,
    scatter_add_rows,
    scatter_rounds,
    segment_mean,
    segment_softmax,
    segment_sum,
    type_sort,
    typed_linear,
)


def _gelu_array(x: np.ndarray) -> np.ndarray:
    """tanh-approximation GELU on a raw array (mirrors ``Tensor.gelu``)."""
    c = x.dtype.type(np.sqrt(2.0 / np.pi))
    x_sq = x * x
    inner = x_sq * x
    inner *= 0.044715
    inner += x
    inner *= c
    t = np.tanh(inner)
    out = 1.0 + t
    out *= x
    out *= 0.5
    return out


class TypedLinear(Module):
    """Per-node-type affine projection.

    ``forward(x, type_ids)`` applies ``x_i @ W[type_ids[i]] + b[type_ids[i]]``
    for every row.  Implementation groups rows by type and runs one
    dense matmul per *present* type, then un-permutes — this avoids
    materialising an ``(N, D, D')`` gathered weight tensor, which
    profiling showed dominated training time.
    """

    def __init__(self, num_types: int, in_dim: int, out_dim: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        self.weight = Parameter(
            rng.uniform(-bound, bound, size=(num_types, in_dim, out_dim))
            .astype(np.float32)
        )
        self.bias = Parameter(np.zeros((num_types, out_dim), dtype=np.float32))

    def forward(self, x: Tensor, type_ids: np.ndarray,
                sort: tuple | None = None,
                out_shape: tuple[int, ...] | None = None) -> Tensor:
        if sort is None:
            sort = _type_sort(np.asarray(type_ids, dtype=np.int64))
        if not is_grad_enabled() or fast_math_enabled():
            # One fused tape node (or, under no_grad, no tape at all):
            # gather rows into type order once, one contiguous matmul
            # per present type, un-permute once.  Values and gradients
            # are bit-identical to the composed path below.
            return typed_linear(x, self.weight, self.bias, type_ids,
                                sort=sort, out_shape=out_shape)
        order, sorted_types, group_starts, group_ends = sort
        pieces = []
        for start, end in zip(group_starts, group_ends):
            t = int(sorted_types[start])
            rows = order[start:end]
            pieces.append(x[rows] @ self.weight[t] + self.bias[t])
        out_sorted = concat(pieces, axis=0) if len(pieces) > 1 else pieces[0]
        inverse = np.empty_like(order)
        inverse[order] = np.arange(len(order))
        out = out_sorted[inverse]
        return out if out_shape is None else out.reshape(*out_shape)


#: structural grouping for TypedLinear (moved to the tensor layer with
#: the fused kernel; re-exported here for its historical callers)
_type_sort = type_sort


def _edge_struct(batch: GraphBatch) -> tuple:
    """Batch-cached edge structure shared by the fused training path
    and the no-grad inference path: per-relation spans into the
    concatenated edge list, the concatenated endpoints, and the
    stable destination sort ``(order, starts, uniq)`` that segment
    max/softmax reductions run over."""
    caches = batch.struct_cache
    struct = caches.get("edge_struct")
    if struct is not None:
        return struct
    spans: list[tuple[int, int, int]] = []
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    offset = 0
    for rel_idx, rel in enumerate(RELATIONS):
        edge_index = batch.edges[rel]
        n_e = edge_index.shape[1]
        if n_e == 0:
            continue
        spans.append((rel_idx, offset, offset + n_e))
        src_parts.append(edge_index[0])
        dst_parts.append(edge_index[1])
        offset += n_e
    if spans:
        all_src = np.concatenate(src_parts)
        all_dst = np.concatenate(dst_parts)
        order = np.argsort(all_dst, kind="stable")
        sorted_dst = all_dst[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(sorted_dst)) + 1))
        dst_sort = (order, starts, sorted_dst[starts])
    else:
        all_src = all_dst = dst_sort = None
    struct = caches["edge_struct"] = (spans, all_src, all_dst, dst_sort)
    return struct


def _edge_rounds(cache: dict, rel_idx: int, side: str, idx: np.ndarray):
    """Batch-cached :func:`scatter_rounds` for one relation's endpoint
    array (``side`` is ``"src"``/``"dst"``).  The decomposition is pure
    structure, so one batch computes it once for all layers and epochs."""
    key = ("rounds", rel_idx, side)
    rounds = cache.get(key)
    if rounds is None:
        # cache the "no decomposition wins" verdict as False so deep
        # duplicate chains skip straight to np.add.at from the first
        # use on instead of re-deriving the decomposition each backward
        computed = scatter_rounds(idx)
        rounds = cache[key] = False if computed is None else computed
    return rounds


def _rel_attention(k: Tensor, q: Tensor, w_att: Tensor, rel_prior: Tensor,
                   rel_idx: int, src: np.ndarray, dst: np.ndarray,
                   scale: float, cache: dict) -> Tensor:
    """One relation's edge-attention logits as a single tape node.

    Fuses the composed ``gather → swap → bilinear → sum → prior/scale``
    chain (eq. 2) — eight tape nodes, two of which scatter into
    full-size zero arrays of ``W_ATT``/μ just to route a slot gradient.
    Forward and backward replay the chain's expressions in its order,
    so values and gradients are bit-identical; per-relation edge
    scatters stay separate calls, preserving the composed path's
    gradient accumulation order into K/Q.
    """
    from repro.nn.tensor import _as_array

    kd, qd = k.data, q.data
    k_t = kd[src].swapaxes(0, 1)                    # (h, E, dk)
    q_t = qd[dst].swapaxes(0, 1)
    wa = w_att.data[rel_idx]
    kw = k_t @ wa
    prod = kw * q_t
    prod_shape = prod.shape        # the closure needs only the shape
    att0 = prod.sum(axis=-1).swapaxes(0, 1)         # (E, h)
    prior = rel_prior.data[rel_idx: rel_idx + 1]    # (1, h)
    scale_arr = _as_array(scale)
    att1 = att0 * prior
    out = att1 * scale_arr

    def backward(g: np.ndarray) -> None:
        g1 = g * scale_arr
        g0 = g1 * prior
        if rel_prior.requires_grad:
            gp = np.zeros_like(rel_prior.data)
            gp[rel_idx] = (g1 * att0).sum(axis=0)
            rel_prior._accumulate_owned(gp)
        gprod = np.broadcast_to(np.expand_dims(g0.swapaxes(0, 1), -1),
                                prod_shape)
        gkw = gprod * q_t
        if w_att.requires_grad:
            gw = np.zeros_like(w_att.data)
            gw[rel_idx] = np.swapaxes(k_t, -1, -2) @ gkw
            w_att._accumulate_owned(gw)
        if k.requires_grad:
            gk = np.zeros_like(kd)
            scatter_add_exact(gk, src,
                              (gkw @ np.swapaxes(wa, -1, -2)).swapaxes(0, 1),
                              rounds=_edge_rounds(cache, rel_idx, "src", src))
            k._accumulate_owned(gk)
        if q.requires_grad:
            gq = np.zeros_like(qd)
            scatter_add_exact(gq, dst, (gprod * kw).swapaxes(0, 1),
                              rounds=_edge_rounds(cache, rel_idx, "dst", dst))
            q._accumulate_owned(gq)

    return k._make(out, (k, q, w_att, rel_prior), backward)


def _attention_aggregate(logits_parts: list[Tensor], msg_parts: list[Tensor],
                         spans: list[tuple[int, int]], all_dst: np.ndarray,
                         dst_sort: tuple, num_nodes: int) -> Tensor:
    """Eq. 2's softmax over in-neighbourhoods + eq. 4's weighted message
    sum as one tape node.

    Replays the composed ``concat → segment_softmax → mul →
    segment_sum`` chain expression-for-expression — including the same
    ``scatter_add_rows`` accumulator — so values and gradients are
    bit-identical.  The per-segment max uses the batch-cached
    destination sort via ``maximum.reduceat`` (max is exact, so the
    sorted reduction matches ``maximum.at`` bit-for-bit).  Parents are
    ordered msg-parts-first to reproduce the composed graph's traversal
    order, which fixes the order K/Q/V gradients reach the layer input.
    """
    z = np.concatenate([t.data for t in logits_parts])      # (E, h)
    msgs = np.concatenate([t.data for t in msg_parts])      # (E, h, dk)
    z_dtype = z.dtype              # the closure needs only the dtype
    e, h = z.shape
    dk = msgs.shape[-1]
    seg_shape = (num_nodes, h)
    order, starts, uniq = dst_sort
    seg_max = np.full(seg_shape, -np.inf, dtype=z.dtype)
    seg_max[uniq] = np.maximum.reduceat(z[order], starts, axis=0)
    exp = np.exp(z - seg_max[all_dst])
    denom = np.zeros(seg_shape, dtype=z.dtype)
    scatter_add_rows(denom, all_dst, exp)
    p = (exp / np.maximum(denom[all_dst], 1e-12)).astype(z.dtype, copy=False)
    p3 = p.reshape(e, h, 1)
    weighted = msgs * p3
    agg = np.zeros((num_nodes, h * dk), dtype=weighted.dtype)
    scatter_add_rows(agg, all_dst, weighted.reshape(e, h * dk))

    def backward(g: np.ndarray) -> None:
        gw = g[all_dst].reshape(e, h, dk)
        g_msgs = gw * p3
        g_attn = (gw * msgs).sum(axis=2, keepdims=True).reshape(e, h)
        pg = p * g_attn
        seg_pg = np.zeros(seg_shape, dtype=z_dtype)
        scatter_add_rows(seg_pg, all_dst, pg)
        g_logits = pg - p * seg_pg[all_dst]
        for t, (lo, hi) in zip(msg_parts, spans):
            t._accumulate(g_msgs[lo:hi])
        for t, (lo, hi) in zip(logits_parts, spans):
            t._accumulate(g_logits[lo:hi])

    out = Tensor(agg)
    if is_grad_enabled() and any(
        t.requires_grad for t in msg_parts + logits_parts
    ):
        out.requires_grad = True
        out._parents = tuple(t for t in msg_parts + logits_parts
                             if t.requires_grad)
        out._backward = backward
    return out


def _rel_message(v: Tensor, w_msg: Tensor, rel_idx: int,
                 src: np.ndarray, cache: dict) -> Tensor:
    """One relation's per-head messages (eq. 3) as a single tape node.

    Same contract as :func:`_rel_attention`: fuses the
    ``gather → swap → matmul → swap`` chain with bit-identical values
    and gradients.
    """
    vd = v.data
    v_t = vd[src].swapaxes(0, 1)                    # (h, E, dk)
    wm = w_msg.data[rel_idx]
    out = (v_t @ wm).swapaxes(0, 1)                 # (E, h, dk)

    def backward(g: np.ndarray) -> None:
        gmm = g.swapaxes(0, 1)
        if w_msg.requires_grad:
            gw = np.zeros_like(w_msg.data)
            gw[rel_idx] = np.swapaxes(v_t, -1, -2) @ gmm
            w_msg._accumulate_owned(gw)
        if v.requires_grad:
            gv = np.zeros_like(vd)
            scatter_add_exact(gv, src,
                              (gmm @ np.swapaxes(wm, -1, -2)).swapaxes(0, 1),
                              rounds=_edge_rounds(cache, rel_idx, "src", src))
            v._accumulate_owned(gv)

    return v._make(out, (v, w_msg), backward)


class HGTLayer(Module):
    """One HGT layer over a :class:`GraphBatch`."""

    def __init__(self, num_types: int, dim: int, heads: int,
                 dropout: float = 0.1,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.heads = heads
        self.d_head = dim // heads
        self.k_linear = TypedLinear(num_types, dim, dim, rng=rng)
        self.q_linear = TypedLinear(num_types, dim, dim, rng=rng)
        self.v_linear = TypedLinear(num_types, dim, dim, rng=rng)
        self.a_linear = TypedLinear(num_types, dim, dim, rng=rng)
        scale = 1.0 / np.sqrt(self.d_head)
        num_rel = len(RELATIONS)
        # W_ATT / W_MSG: one (heads, d_head, d_head) stack per relation.
        self.w_att = Parameter(
            (np.stack([np.eye(self.d_head)] * heads)[None]
             .repeat(num_rel, axis=0)
             + rng.normal(0, 0.02, size=(num_rel, heads, self.d_head, self.d_head))
             ).astype(np.float32)
        )
        self.w_msg = Parameter(
            (np.stack([np.eye(self.d_head)] * heads)[None]
             .repeat(num_rel, axis=0)
             + rng.normal(0, 0.02, size=(num_rel, heads, self.d_head, self.d_head))
             ).astype(np.float32)
        )
        #: relation prior μ_r per head
        self.rel_prior = Parameter(np.ones((num_rel, heads), dtype=np.float32))
        self.att_scale = scale
        self.norm = LayerNorm(dim)
        self.dropout = Dropout(dropout, rng=np.random.default_rng(rng.integers(2**31)))

    def forward(self, x: Tensor, batch: GraphBatch) -> Tensor:
        if not is_grad_enabled():
            return self._forward_inference(x, batch)
        n, d = x.shape
        h, dk = self.heads, self.d_head
        sort = None
        if fast_math_enabled():
            # structural work is identical across layers, models, and
            # epochs over one collated batch — memoise it there
            sort = batch.struct_cache.get("type_sort")
            if sort is None:
                sort = batch.struct_cache["type_sort"] = type_sort(
                    np.asarray(batch.type_ids, dtype=np.int64))
        if sort is not None:       # fast path: reshape fused into the node
            k = self.k_linear(x, batch.type_ids, sort=sort,
                              out_shape=(n, h, dk))
            q = self.q_linear(x, batch.type_ids, sort=sort,
                              out_shape=(n, h, dk))
            v = self.v_linear(x, batch.type_ids, sort=sort,
                              out_shape=(n, h, dk))
        else:
            k = self.k_linear(x, batch.type_ids).reshape(n, h, dk)
            q = self.q_linear(x, batch.type_ids).reshape(n, h, dk)
            v = self.v_linear(x, batch.type_ids).reshape(n, h, dk)

        if fast_math_enabled():
            agg = self._fused_attention(k, q, v, batch, n)
            if agg is None:
                return x
        else:
            logits_parts: list[Tensor] = []
            msg_parts: list[Tensor] = []
            dst_parts: list[np.ndarray] = []
            for rel_idx, rel in enumerate(RELATIONS):
                edge_index = batch.edges[rel]
                if edge_index.size == 0:
                    continue
                src, dst = edge_index[0], edge_index[1]
                k_e = k[src]                              # (E, h, dk)
                q_e = q[dst]
                v_e = v[src]
                w_att = self.w_att[rel_idx]               # (h, dk, dk)
                w_msg = self.w_msg[rel_idx]
                # per-head bilinear attention: (h, E, dk) @ (h, dk, dk)
                k_t = k_e.swapaxes(0, 1)                  # (h, E, dk)
                q_t = q_e.swapaxes(0, 1)
                att = ((k_t @ w_att) * q_t).sum(axis=-1)  # (h, E)
                att = att.swapaxes(0, 1)                  # (E, h)
                prior = self.rel_prior[np.array([rel_idx])]   # (1, h)
                att = att * prior * self.att_scale
                msg = (v_e.swapaxes(0, 1) @ w_msg).swapaxes(0, 1)
                logits_parts.append(att)
                msg_parts.append(msg)
                dst_parts.append(dst)

            if not logits_parts:
                return x

            all_logits = concat(logits_parts, axis=0)      # (E_tot, h)
            all_msgs = concat(msg_parts, axis=0)           # (E_tot, h, dk)
            all_dst = np.concatenate(dst_parts)

            # Softmax over each target's full in-neighbourhood (eq. 2).
            attn = segment_softmax(all_logits, all_dst, n)  # (E_tot, h)
            weighted = all_msgs * attn.reshape(-1, h, 1)
            agg = segment_sum(weighted.reshape(-1, d), all_dst, n)

        # Target-specific aggregation (eq. 5): A-Linear(gelu(agg)) + residual.
        out = self.a_linear(self.dropout(agg.gelu()), batch.type_ids,
                            sort=sort)
        return self.norm(out + x)

    def _fused_attention(self, k: Tensor, q: Tensor, v: Tensor,
                         batch: GraphBatch, n: int) -> Tensor | None:
        """Fused-kernel eq. 2–4: two tape nodes per relation plus one
        softmax-aggregate node, sharing the batch's cached edge
        structure.  Returns ``None`` for edgeless batches."""
        cache = batch.struct_cache
        spans, all_src, all_dst, dst_sort = _edge_struct(batch)
        if not spans:
            return None
        logits_parts = [
            _rel_attention(k, q, self.w_att, self.rel_prior, rel_idx,
                           all_src[lo:hi], all_dst[lo:hi],
                           self.att_scale, cache)
            for rel_idx, lo, hi in spans
        ]
        msg_parts = [
            _rel_message(v, self.w_msg, rel_idx, all_src[lo:hi], cache)
            for rel_idx, lo, hi in spans
        ]
        return _attention_aggregate(logits_parts, msg_parts,
                                    [(lo, hi) for _, lo, hi in spans],
                                    all_dst, dst_sort, n)

    def _forward_inference(self, x: Tensor, batch: GraphBatch) -> Tensor:
        """No-grad forward on raw arrays with batch-structure reuse.

        Mathematically the same layer; purely structural work (type
        sort, edge concatenation, destination sort) is memoised on the
        batch, so the second layer — and every further model that
        reuses a collated batch — skips it entirely.
        """
        n, d = x.shape
        h, dk = self.heads, self.d_head
        caches = batch.struct_cache
        sort = caches.get("type_sort")
        if sort is None:
            sort = caches["type_sort"] = _type_sort(
                np.asarray(batch.type_ids, dtype=np.int64))
        k = self.k_linear(x, batch.type_ids, sort=sort).data.reshape(n, h, dk)
        q = self.q_linear(x, batch.type_ids, sort=sort).data.reshape(n, h, dk)
        v = self.v_linear(x, batch.type_ids, sort=sort).data.reshape(n, h, dk)

        spans, all_src, all_dst, dst_sort = _edge_struct(batch)
        if not spans:
            return x

        k_all = k[all_src]                                # (E, h, dk)
        q_all = q[all_dst]
        v_all = v[all_src]
        w_att, w_msg = self.w_att.data, self.w_msg.data
        prior = self.rel_prior.data
        logits = np.empty((len(all_dst), h), dtype=k_all.dtype)
        msgs = np.empty((len(all_dst), h, dk), dtype=k_all.dtype)
        for rel_idx, lo, hi in spans:
            k_t = k_all[lo:hi].swapaxes(0, 1)             # (h, E_r, dk)
            q_t = q_all[lo:hi].swapaxes(0, 1)
            att = ((k_t @ w_att[rel_idx]) * q_t).sum(axis=-1)
            att = att.swapaxes(0, 1)
            att = att * prior[rel_idx] * self.att_scale
            logits[lo:hi] = att
            msgs[lo:hi] = (v_all[lo:hi].swapaxes(0, 1)
                           @ w_msg[rel_idx]).swapaxes(0, 1)

        # Softmax over each target's in-neighbourhood with cached sort.
        order, starts, uniq = dst_sort
        seg_max = np.full((n, h), -np.inf, dtype=logits.dtype)
        seg_max[uniq] = np.maximum.reduceat(logits[order], starts, axis=0)
        exp = np.exp(logits - seg_max[all_dst])
        denom = np.zeros((n, h), dtype=logits.dtype)
        scatter_add_rows(denom, all_dst, exp)
        p = exp / np.maximum(denom[all_dst], 1e-12)
        weighted = msgs * p.reshape(-1, h, 1)
        agg = np.zeros((n, d), dtype=weighted.dtype)
        scatter_add_rows(agg, all_dst, weighted.reshape(-1, d))

        out = self.a_linear(Tensor(_gelu_array(agg)), batch.type_ids,
                            sort=sort)
        return self.norm(out + x)


@dataclass
class Graph2ParConfig:
    """Hyper-parameters for :class:`Graph2Par`."""

    dim: int = 64
    heads: int = 4
    layers: int = 2
    num_classes: int = 2
    dropout: float = 0.1
    readout: str = "mean"     # mean pooling over nodes per graph
    seed: int = 0


class Graph2Par(Module):
    """aug-AST → HGT → graph readout → classifier.

    The same class also serves the "HGT-AST" baseline (Table 2/3): feed it
    batches built from :func:`repro.graphs.build_vanilla_ast` instead of
    the aug-AST.
    """

    def __init__(self, vocab: GraphVocab,
                 config: Graph2ParConfig | None = None) -> None:
        super().__init__()
        self.config = config or Graph2ParConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.vocab = vocab
        self.type_emb = Embedding(vocab.num_types, cfg.dim, rng=rng)
        self.text_emb = Embedding(vocab.num_texts, cfg.dim, rng=rng)
        self.pos_emb = Embedding(NODE_POSITIONS, cfg.dim, rng=rng)
        self.leaf_emb = Embedding(2, cfg.dim, rng=rng)
        self.input_norm = LayerNorm(cfg.dim)
        self.layers = [
            HGTLayer(vocab.num_types, cfg.dim, cfg.heads, cfg.dropout, rng=rng)
            for _ in range(cfg.layers)
        ]
        self.head = MLP([cfg.dim, cfg.dim, cfg.num_classes], dropout=cfg.dropout,
                        rng=rng)

    def node_embeddings(self, batch: GraphBatch) -> Tensor:
        if fast_math_enabled():
            x = embedding_sum(
                [self.type_emb.weight, self.text_emb.weight,
                 self.pos_emb.weight, self.leaf_emb.weight],
                [np.asarray(batch.type_ids, dtype=np.int64),
                 np.asarray(batch.text_ids, dtype=np.int64),
                 np.asarray(batch.position_ids, dtype=np.int64),
                 batch.is_leaf.astype(np.int64)],
            )
        else:
            x = (
                self.type_emb(batch.type_ids)
                + self.text_emb(batch.text_ids)
                + self.pos_emb(batch.position_ids)
                + self.leaf_emb(batch.is_leaf.astype(np.int64))
            )
        return self.input_norm(x)

    def encode(self, batch: GraphBatch) -> Tensor:
        """Per-graph embeddings ``(B, dim)``."""
        x = self.node_embeddings(batch)
        for layer in self.layers:
            x = layer(x, batch)
        return segment_mean(x, batch.graph_ids, batch.num_graphs)

    def forward(self, batch: GraphBatch) -> Tensor:
        """Class logits ``(B, num_classes)``."""
        return self.head(self.encode(batch))
