"""A reverse-mode autodiff tensor on numpy.

Design:每 op builds a closure capturing its inputs; ``backward()`` runs a
topological sort over the tape and accumulates gradients.  All heavy math
is numpy — Python only orchestrates.  Gradients are plain ``np.ndarray``.

Beyond the usual dense ops, three primitives make graph neural networks
efficient here:

- :meth:`Tensor.gather` / fancy ``__getitem__`` — row lookup with
  scatter-add backward;
- :func:`segment_sum` — ``np.add.at`` aggregation of edge messages onto
  target nodes;
- :func:`segment_softmax` — numerically stable softmax over variable-size
  segments (attention over each node's incoming edges), with the closed
  form Jacobian-vector product ``p * (g - seg_sum(p*g))``.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

_GRAD_ENABLED = True

#: When True (the default), layers route through the fused training
#: kernels (:func:`typed_linear`, :func:`fused_layer_norm`,
#: :func:`fused_cross_entropy`) and the optimizers reuse gradient /
#: scratch buffers.  The fused paths replay the composed tape's
#: arithmetic operation-for-operation, so results are bit-identical;
#: flipping this off restores the original composed tape for
#: benchmarking and parity tests.
_FAST_MATH = True


def fast_math_enabled() -> bool:
    return _FAST_MATH


def set_fast_math(enabled: bool) -> None:
    global _FAST_MATH
    _FAST_MATH = bool(enabled)


@contextlib.contextmanager
def use_fast_math(enabled: bool):
    """Temporarily enable/disable the fused training fast path."""
    global _FAST_MATH
    prev = _FAST_MATH
    _FAST_MATH = bool(enabled)
    try:
        yield
    finally:
        _FAST_MATH = prev

#: Default floating dtype; float32 for speed.  Tests flip this to float64
#: for tight numerical gradient checks.
DEFAULT_DTYPE = np.float32


def set_default_dtype(dtype) -> None:
    global DEFAULT_DTYPE
    DEFAULT_DTYPE = dtype


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Disable tape recording (inference / metric computation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _as_array(value, dtype=None) -> np.ndarray:
    dtype = dtype or DEFAULT_DTYPE
    if isinstance(value, np.ndarray):
        if value.dtype == dtype:
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


def scatter_add_rows(target: np.ndarray, idx: np.ndarray,
                     values: np.ndarray) -> None:
    """``np.add.at(target, idx, values)`` for 1-D integer row indices.

    2-D scatters (the message-aggregation hot path) go through a flat
    ``np.bincount``, which profiled ~2× faster than ``ufunc.at`` on
    batched graphs.  It is used at *every* size so single-graph and
    block-diagonal batched forwards accumulate identically (same
    per-bucket contribution order, same float64 accumulator).
    """
    idx = np.asarray(idx)
    if values.ndim == 2 and idx.ndim == 1:
        n, d = target.shape
        flat = idx[:, None] * d + np.arange(d)
        target += np.bincount(
            flat.ravel(), weights=values.ravel(), minlength=n * d,
        ).reshape(n, d).astype(target.dtype, copy=False)
        return
    np.add.at(target, idx, values)


def scatter_rounds(idx: np.ndarray, max_rounds: int = 64):
    """Duplicate-index decomposition for a bit-exact fast ``np.add.at``.

    ``np.add.at`` applies row updates strictly in occurrence order,
    one element at a time — correct, and painfully slow.  Splitting the
    positions into *rounds*, where round ``r`` holds the ``r``-th
    occurrence of every distinct index, lets each round run as one
    vectorised fancy-index ``+=`` (its targets are unique), while each
    target position still receives its contributions in occurrence
    order — so the result is bit-identical to ``np.add.at``.

    Returns ``[(targets, positions)]`` per round (``positions is None``
    for the all-unique single round), or ``None`` when the deepest
    duplicate chain exceeds ``max_rounds`` and the per-round overhead
    would lose to ``np.add.at`` (callers fall back).  The decomposition
    depends only on ``idx``, so batches cache it across layers, models
    and epochs.
    """
    idx = np.asarray(idx)
    n = idx.shape[0]
    if n == 0:
        return []
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_idx[1:] != sorted_idx[:-1])))
    counts = np.diff(np.append(starts, n))
    max_dup = int(counts.max())
    if max_dup == 1:
        return [(idx, None)]
    if max_dup > max_rounds:
        return None
    ranks = np.arange(n) - np.repeat(starts, counts)
    rank_order = np.argsort(ranks, kind="stable")
    bounds = np.flatnonzero(np.diff(ranks[rank_order])) + 1
    rounds = []
    for piece in np.split(rank_order, bounds):
        sel = order[piece]
        rounds.append((idx[sel], sel))
    return rounds


def scatter_add_exact(target: np.ndarray, idx: np.ndarray,
                      values: np.ndarray, rounds=None) -> None:
    """``np.add.at(target, idx, values)``, bit for bit, via
    :func:`scatter_rounds` when a decomposition is available.

    ``rounds=None`` computes the decomposition here; ``rounds=False``
    is the cached "no decomposition wins" verdict and goes straight to
    ``np.add.at`` without re-deriving it.
    """
    if rounds is None:
        rounds = scatter_rounds(idx)
    if rounds is None or rounds is False:
        np.add.at(target, idx, values)
        return
    for tgt, sel in rounds:
        if sel is None:
            target[tgt] += values
        else:
            target[tgt] += values[sel]


def segment_max_rows(idx: np.ndarray, values: np.ndarray,
                     num_segments: int) -> np.ndarray:
    """Per-segment maximum over rows."""
    out_shape = (num_segments,) + values.shape[1:]
    out = np.full(out_shape, -np.inf, dtype=values.dtype)
    np.maximum.at(out, np.asarray(idx), values)
    return out


class Tensor:
    """A numpy array with a gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # keep numpy from hijacking right-ops

    def __init__(self, data, requires_grad: bool = False, name: str = "") -> None:
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """:meth:`_accumulate` for a gradient array the caller hands
        over (freshly allocated, never reused): adopting it in place
        skips the defensive first-accumulation copy.  Values are
        unchanged — a copy of ``grad`` is ``grad``."""
        if (self.grad is None and grad.dtype == self.data.dtype
                and grad.shape == self.data.shape):
            self.grad = grad
        else:
            self._accumulate(grad)

    # -- backprop driver ------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (default seed: ones)."""
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(g)

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / other.data)
            if other.requires_grad:
                other._accumulate(-g * self.data / (other.data ** 2))

        return self._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data ** exponent

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return self._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        """Matrix product; operands must be >= 2-D (batch dims broadcast)."""
        other = self._lift(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError("matmul operands must be at least 2-D")
        data = self.data @ other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                ga = g @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(ga, self.data.shape))
            if other.requires_grad:
                gb = np.swapaxes(self.data, -1, -2) @ g
                other._accumulate(_unbroadcast(gb, other.data.shape))

        return self._make(data, (self, other), backward)

    # -- elementwise functions ---------------------------------------------------

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * data)

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(g / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * 0.5 / data)

        return self._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * (1.0 - data ** 2))

        return self._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * data * (1.0 - data))

        return self._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * mask)

        return self._make(data, (self,), backward)

    def gelu(self) -> "Tensor":
        """tanh-approximation GELU (what HGT/transformers use).

        ``x ** 3`` is spelled as repeated multiplication: numpy routes
        float array powers through ``pow``, which profiled ~20× slower
        than two in-place multiplies and dominated batched inference.
        """
        c = self.data.dtype.type(np.sqrt(2.0 / np.pi))
        x = self.data
        x_sq = x * x
        inner = x_sq * x
        inner *= 0.044715
        inner += x
        inner *= c
        t = np.tanh(inner)
        data = 1.0 + t
        data *= x
        data *= 0.5

        def backward(g: np.ndarray) -> None:
            # staged in place, operation order unchanged:
            # dt = (1 - t²)·c·(1 + 3·0.044715·x²)
            dt = t * t
            np.subtract(1.0, dt, out=dt)
            dt *= c
            w = x_sq * (3 * 0.044715)
            w += 1.0
            dt *= w
            # g · (0.5·(1 + t) + (0.5·x)·dt), keeping the original
            # multiply grouping
            out_g = 1.0 + t
            out_g *= 0.5
            v = x * 0.5
            v *= dt
            out_g += v
            out_g *= g
            self._accumulate_owned(out_g)

        return self._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * sign)

        return self._make(np.abs(self.data), (self,), backward)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return self._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            grad = np.asarray(g)
            expanded = data
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
                expanded = np.expand_dims(data, axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask /= (mask.sum(axis=axis, keepdims=True)
                     if axis is not None else mask.sum())
            self._accumulate(grad * mask)

        return self._make(data, (self,), backward)

    # -- shape ops --------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(self.data.shape))

        return self._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.transpose(inverse))

        return self._make(data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        data = np.swapaxes(self.data, a, b)

        def backward(g: np.ndarray) -> None:
            self._accumulate(np.swapaxes(g, a, b))

        return self._make(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(g: np.ndarray) -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, g)
            self._accumulate(grad)

        return self._make(data, (self,), backward)

    def gather(self, indices: np.ndarray) -> "Tensor":
        """Row lookup ``self[indices]`` with scatter-add backward."""
        return self[np.asarray(indices)]

    # -- normalisation helpers -----------------------------------------------------

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Replace entries where ``mask`` is True with ``value`` (no grad there)."""
        data = np.where(mask, self.data.dtype.type(value), self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(np.where(mask, 0.0, g))

        return self._make(data, (self,), backward)


# ---------------------------------------------------------------------------
# Free functions
# ---------------------------------------------------------------------------


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along ``axis`` with split backward."""
    tensors = list(tensors)
    datas = [t.data for t in tensors]
    data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets, offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(start, stop)
                t._accumulate(g[tuple(idx)])

    out = Tensor(data)
    if _GRAD_ENABLED and any(t.requires_grad for t in tensors):
        out.requires_grad = True
        out._parents = tuple(t for t in tensors if t.requires_grad)
        out._backward = backward
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (reshape + concat)."""
    expanded = []
    for t in tensors:
        new_shape = list(t.shape)
        new_shape.insert(axis if axis >= 0 else axis + t.ndim + 1, 1)
        expanded.append(t.reshape(*new_shape))
    return concat(expanded, axis=axis)


def segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets.

    ``segment_ids`` has one entry per row of ``x``; backward is a gather.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_shape = (num_segments,) + x.data.shape[1:]
    data = np.zeros(out_shape, dtype=x.data.dtype)
    scatter_add_rows(data, segment_ids, x.data)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g[segment_ids])

    return x._make(data, (x,), backward)


def segment_mean(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean-pool rows into segments (graph readout)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(x.data.dtype)
    counts = np.maximum(counts, 1.0).reshape((num_segments,) + (1,) * (x.ndim - 1))
    total = segment_sum(x, segment_ids, num_segments)
    return total * Tensor(1.0 / counts)


def segment_softmax(logits: Tensor, segment_ids: np.ndarray,
                    num_segments: int) -> Tensor:
    """Softmax over variable-size segments (edge attention).

    ``logits`` is 1-D or 2-D ``(E, H)`` (per-head).  Stability comes from
    subtracting the per-segment max.  Backward uses the softmax JVP
    restricted to segments: ``dL/dz = p * (g - Σ_seg p·g)``.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    z = logits.data
    seg_shape = (num_segments,) + z.shape[1:]
    seg_max = segment_max_rows(segment_ids, z, num_segments)
    shifted = z - seg_max[segment_ids]
    exp = np.exp(shifted)
    denom = np.zeros(seg_shape, dtype=z.dtype)
    scatter_add_rows(denom, segment_ids, exp)
    p = exp / np.maximum(denom[segment_ids], 1e-12)

    def backward(g: np.ndarray) -> None:
        pg = p * g
        seg_pg = np.zeros(seg_shape, dtype=z.dtype)
        scatter_add_rows(seg_pg, segment_ids, pg)
        logits._accumulate(pg - p * seg_pg[segment_ids])

    return logits._make(p.astype(z.dtype), (logits,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Dense softmax along ``axis`` with fused backward."""
    z = x.data
    shifted = z - z.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    p = exp / exp.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        pg = p * g
        x._accumulate(pg - p * pg.sum(axis=axis, keepdims=True))

    return x._make(p.astype(z.dtype), (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data
    shifted = z - z.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    p = np.exp(out)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g - p * g.sum(axis=axis, keepdims=True))

    return x._make(out.astype(z.dtype), (x,), backward)


# ---------------------------------------------------------------------------
# Fused training kernels
#
# Each op below collapses a chain of tape nodes into a single node whose
# forward and backward replay the composed chain's numpy expressions in
# the same order, so losses, gradients, and therefore optimizer states
# are bit-identical to the composed path (the only tolerated divergence
# is the sign of exactly-zero gradient entries, which no optimizer
# update can observe).  The payoff is tape length: one closure instead
# of dozens, no per-node zeros_like/scatter churn on the hot path.
# ---------------------------------------------------------------------------


def type_sort(type_ids: np.ndarray) -> tuple:
    """``(order, sorted_types, group_starts, group_ends)`` for a type array.

    The structural half of :func:`typed_linear`: rows grouped by type via
    one stable argsort.  Batches cache it (``GraphBatch.struct_cache``)
    so repeated forwards over one batch sort exactly once.
    """
    order = np.argsort(type_ids, kind="stable")
    sorted_types = type_ids[order]
    boundaries = np.flatnonzero(np.diff(sorted_types)) + 1
    group_starts = np.concatenate(([0], boundaries))
    group_ends = np.concatenate((boundaries, [len(sorted_types)]))
    return order, sorted_types, group_starts, group_ends


def typed_linear(x: Tensor, weight: Tensor, bias: Tensor,
                 type_ids: np.ndarray, sort: tuple | None = None,
                 out_shape: tuple[int, ...] | None = None) -> Tensor:
    """Per-row typed affine map ``x_i @ weight[type_ids[i]] + bias[type_ids[i]]``.

    One autograd node for what the composed tape spells as, per present
    type, a row gather + matmul + bias add, then a concat and an
    un-permute (~3G+2 nodes for G types).  Forward gathers rows into
    type order once and runs one contiguous matmul per present type;
    the fused backward runs the per-type transposed matmuls and writes
    weight/bias gradients straight into their type slots (types
    partition the rows, so no scatter conflicts exist), and row
    gradients through a single inverse permutation.  ``out_shape``
    folds a following reshape (e.g. the per-head split) into the same
    node — a free view instead of one more tape node and gradient copy.
    """
    if sort is None:
        sort = type_sort(np.asarray(type_ids, dtype=np.int64))
    order, sorted_types, group_starts, group_ends = sort
    groups = list(zip(sorted_types[group_starts].tolist(),
                      group_starts.tolist(), group_ends.tolist()))
    xd, wd, bd = x.data, weight.data, bias.data
    xs = xd[order]
    out_sorted = np.empty((xd.shape[0], wd.shape[2]), dtype=xd.dtype)
    for t, start, end in groups:
        np.matmul(xs[start:end], wd[t], out=out_sorted[start:end])
        out_sorted[start:end] += bd[t]
    out = np.empty_like(out_sorted)
    out[order] = out_sorted
    flat_shape = out_sorted.shape      # the closure needs only the shape
    if out_shape is not None:
        out = out.reshape(out_shape)

    def backward(g: np.ndarray) -> None:
        if out_shape is not None:
            g = g.reshape(flat_shape)
        gs = g[order]
        if weight.requires_grad:
            gw = np.zeros_like(wd)
            for t, start, end in groups:
                np.matmul(xs[start:end].T, gs[start:end], out=gw[t])
            weight._accumulate_owned(gw)
        if bias.requires_grad:
            gb = np.zeros_like(bd)
            for t, start, end in groups:
                gs[start:end].sum(axis=0, out=gb[t])
            bias._accumulate_owned(gb)
        if x.requires_grad:
            gx_sorted = np.empty_like(xs)
            for t, start, end in groups:
                np.matmul(gs[start:end], wd[t].T, out=gx_sorted[start:end])
            gx = np.empty_like(gx_sorted)
            gx[order] = gx_sorted
            x._accumulate_owned(gx)

    return x._make(out, (x, weight, bias), backward)


def embedding_sum(weights: list[Tensor], ids_list: list[np.ndarray]) -> Tensor:
    """``sum(w[ids] for w, ids in zip(...))`` as one tape node.

    The composed chain spells this as one gather node per table plus a
    cascade of adds, each copying a full ``(N, D)`` gradient; the fused
    backward scatters the single upstream gradient straight into each
    table (the same ``np.add.at`` calls, so values are bit-identical).
    """
    # integer-array gathers always return fresh arrays, so the
    # accumulation below never writes into a table
    out = weights[0].data[np.asarray(ids_list[0])]
    for w, ids in zip(weights[1:], ids_list[1:]):
        out += w.data[ids]

    def backward(g: np.ndarray) -> None:
        for w, ids in zip(weights, ids_list):
            if w.requires_grad:
                gw = np.zeros_like(w.data)
                np.add.at(gw, ids, g)
                w._accumulate_owned(gw)

    first = weights[0]
    node = first._make(out, tuple(weights), backward)
    return node


def fused_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor,
                     eps: float) -> Tensor:
    """LayerNorm forward/backward as one tape node.

    Mirrors the composed ``mean → center → var → rsqrt → scale/shift``
    chain expression-for-expression (including the two separate row
    gradient contributions the chain delivers to ``x``), so values and
    gradients match it bit-for-bit.
    """
    xd = x.data
    inv_count = _as_array(1.0 / xd.shape[-1])
    eps_arr = _as_array(eps)
    mu = xd.sum(axis=-1, keepdims=True) * inv_count
    centered = xd - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_count
    inv_std = (var + eps_arr) ** -0.5
    normed = centered * inv_std
    out = normed * gamma.data + beta.data

    def backward(g: np.ndarray) -> None:
        if beta.requires_grad:
            beta._accumulate(g)
        g_normed = g * gamma.data
        if gamma.requires_grad:
            gamma._accumulate(g * normed)
        # centered receives three composed contributions in tape order:
        # through normed, then twice through the squared term of var.
        g_centered = (g_normed * inv_std).astype(xd.dtype, copy=True)
        g_inv_std = _unbroadcast(g_normed * centered, inv_std.shape)
        g_var = g_inv_std * -0.5 * (var + eps_arr) ** -1.5
        g_sq = np.broadcast_to(g_var * inv_count, xd.shape)
        g_sq_centered = g_sq * centered
        g_centered += g_sq_centered
        g_centered += g_sq_centered
        if x.requires_grad:
            # the composed chain accumulates into x twice: once through
            # centered (x - mu), once through the mean's sum node — and
            # the broadcast add sums the row grad to (N, 1) *before*
            # the 1/D scale, exactly as the chain's unbroadcast does
            x._accumulate_owned(g_centered)
            g_mu = _unbroadcast(g_centered, inv_std.shape)
            x._accumulate(np.broadcast_to(-g_mu * inv_count, xd.shape))

    return x._make(out, (x, gamma, beta), backward)
