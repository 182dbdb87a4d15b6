"""Modules: parameter containers and standard layers."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.tensor import Tensor, fast_math_enabled, fused_layer_norm


class Parameter(Tensor):
    """A tensor registered for optimisation."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class: attribute registration, parameter traversal, train/eval."""

    def __init__(self) -> None:
        self.training = True

    # -- parameter traversal -------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}.")
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Parameter):
                        yield f"{full}.{key}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{key}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- mode ----------------------------------------------------------------

    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in vars(self).values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)
            elif isinstance(value, dict):
                for item in value.values():
                    if isinstance(item, Module):
                        item._set_mode(training)

    # -- state ---------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(f"state mismatch: missing={sorted(missing)[:5]}, "
                           f"extra={sorted(extra)[:5]}")
        # validate every shape before touching any parameter: a
        # mid-loop failure must not leave the module half-loaded
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {p.data.shape} vs "
                    f"{state[name].shape}"
                )
        for name, p in own.items():
            p.data = state[name].astype(np.float32).copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class ParameterList(Module):
    """A plain list of parameters/modules that registers its items."""

    def __init__(self, items=None) -> None:
        super().__init__()
        self.items = list(items or [])

    def __getitem__(self, i):
        return self.items[i]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def append(self, item) -> None:
        self.items.append(item)


class ParameterDict(Module):
    """A string-keyed collection of parameters/modules."""

    def __init__(self, items=None) -> None:
        super().__init__()
        self.items = dict(items or {})

    def __getitem__(self, key):
        return self.items[key]

    def __setitem__(self, key, value) -> None:
        self.items[key] = value

    def __contains__(self, key) -> bool:
        return key in self.items

    def keys(self):
        return self.items.keys()

    def values(self):
        return self.items.values()


def _xavier(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)


_default_rng = np.random.default_rng(0)


def set_default_rng(seed: int) -> None:
    """Re-seed layer initialisation (used by training seeding)."""
    global _default_rng
    _default_rng = np.random.default_rng(seed)


class Linear(Module):
    """Affine map ``x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or _default_rng
        self.weight = Parameter(_xavier(in_features, out_features, rng))
        self.bias = (Parameter(np.zeros(out_features, dtype=np.float32))
                     if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Integer ids → dense vectors."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or _default_rng
        scale = 1.0 / np.sqrt(dim)
        self.weight = Parameter(
            rng.normal(0.0, scale, size=(num_embeddings, dim)).astype(np.float32)
        )

    def forward(self, ids: np.ndarray) -> Tensor:
        return self.weight.gather(np.asarray(ids, dtype=np.int64))


class LayerNorm(Module):
    """Per-row normalisation with learned scale/shift.

    The default fused kernel runs the whole normalise-scale-shift as a
    single tape node; values and gradients are bit-identical to the
    composed chain below, which ``use_fast_math(False)`` restores.
    """

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.gamma = Parameter(np.ones(dim, dtype=np.float32))
        self.beta = Parameter(np.zeros(dim, dtype=np.float32))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        if fast_math_enabled():
            return fused_layer_norm(x, self.gamma, self.beta, self.eps)
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * ((var + self.eps) ** -0.5)
        return normed * self.gamma + self.beta


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng or np.random.default_rng(1234)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self.rng.random(x.shape) < keep).astype(np.float32) / keep
        return x * Tensor(mask)


class Sequential(Module):
    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


class _GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class _ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class MLP(Module):
    """Linear → activation → (dropout) → ... → Linear."""

    def __init__(self, dims: list[int], activation: str = "gelu",
                 dropout: float = 0.0,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least in/out dims")
        act = _GELU if activation == "gelu" else _ReLU
        layers: list[Module] = []
        for i, (a, b) in enumerate(zip(dims, dims[1:])):
            layers.append(Linear(a, b, rng=rng))
            if i < len(dims) - 2:
                layers.append(act())
                if dropout:
                    layers.append(Dropout(dropout))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
