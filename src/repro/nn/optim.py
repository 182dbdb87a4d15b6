"""Optimizers, gradient clipping, learning-rate schedules."""

from __future__ import annotations

import math

import numpy as np

from repro.nn.module import Parameter
from repro.nn.tensor import fast_math_enabled


class Optimizer:
    """Base optimizer over a parameter list."""

    def __init__(self, params: list[Parameter], lr: float) -> None:
        self.params = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        """Drop gradients before the next backward pass.

        ``grad is None`` is load-bearing: ``step()`` skips parameters
        that received no gradient, exactly as the seed path did — a
        zero-filled buffer would instead decay their momenta.  The
        fused kernels avoid per-step gradient reallocation anyway by
        handing freshly built arrays over to
        :meth:`Tensor._accumulate_owned`.
        """
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with optional momentum and weight decay."""

    def __init__(self, params, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction.

    The fast-math step reuses two scratch arrays per parameter for the
    intermediate products instead of allocating ~6 temporaries per
    parameter per step; every arithmetic operation (and its order) is
    the same as the allocating path, so parameter trajectories are
    bit-identical.
    """

    def __init__(self, params, lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0
        self._scratch: list[tuple[np.ndarray, np.ndarray]] | None = None

    def __getstate__(self) -> dict:
        # scratch buffers hold no state — drop them from pickles
        # (shard-worker spawns) and rebuild lazily on first step
        state = dict(self.__dict__)
        state["_scratch"] = None
        return state

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        if fast_math_enabled():
            self._step_fused(bc1, bc2)
            return
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def _step_fused(self, bc1: float, bc2: float) -> None:
        scratch = self._scratch
        if scratch is None or any(
            s.shape != p.data.shape or s.dtype != p.data.dtype
            for (s, _), p in zip(scratch, self.params)
        ):
            scratch = self._scratch = [
                (np.empty_like(p.data), np.empty_like(p.data))
                for p in self.params
            ]
        for p, m, v, (s1, s2) in zip(self.params, self.m, self.v, scratch):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=s1)
                s1 += g
                g = s1
            np.multiply(g, 1.0 - self.beta1, out=s2)
            m *= self.beta1
            m += s2
            np.multiply(g, 1.0 - self.beta2, out=s2)
            s2 *= g
            v *= self.beta2
            v += s2
            # p.data -= lr * (m / bc1) / (sqrt(v / bc2) + eps), staged
            # through the scratch buffers in the same operation order
            np.divide(v, bc2, out=s1)
            np.sqrt(s1, out=s1)
            s1 += self.eps
            np.divide(m, bc1, out=s2)
            s2 *= self.lr
            s2 /= s1
            p.data -= s2


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter)."""

    def step(self) -> None:
        if self.weight_decay:
            for p in self.params:
                if p.grad is not None:
                    p.data -= self.lr * self.weight_decay * p.data
        decay, self.weight_decay = self.weight_decay, 0.0
        try:
            super().step()
        finally:
            self.weight_decay = decay


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def cosine_schedule(step: int, total_steps: int, base_lr: float,
                    warmup: int = 0, floor: float = 0.0) -> float:
    """Linear warmup followed by cosine decay to ``floor``."""
    if warmup and step < warmup:
        return base_lr * (step + 1) / warmup
    if total_steps <= warmup:
        return base_lr
    progress = (step - warmup) / max(1, total_steps - warmup)
    progress = min(max(progress, 0.0), 1.0)
    return floor + (base_lr - floor) * 0.5 * (1.0 + math.cos(math.pi * progress))
