"""Tests for modules, losses, optimizers and serialization."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    AdamW,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    MLP,
    Parameter,
    SGD,
    Sequential,
    Tensor,
    clip_grad_norm,
    cosine_schedule,
    functional as F,
    load_state,
    save_state,
)
from tests.nn.gradcheck import check_gradient

rng = np.random.default_rng(7)


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(4, 6)
        out = layer(Tensor(rng.normal(size=(3, 4))))
        assert out.shape == (3, 6)

    def test_linear_no_bias(self):
        layer = Linear(4, 2, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_embedding_lookup(self):
        emb = Embedding(10, 5)
        out = emb(np.array([1, 1, 3]))
        assert out.shape == (3, 5)
        assert np.allclose(out.data[0], out.data[1])

    def test_layernorm_normalises(self):
        ln = LayerNorm(8)
        out = ln(Tensor(rng.normal(size=(4, 8)) * 10 + 3))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-4)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_layernorm_grad(self):
        x = rng.normal(size=(3, 6))

        def loss(t):
            mu = t.mean(axis=-1, keepdims=True)
            centered = t - mu
            var = (centered * centered).mean(axis=-1, keepdims=True)
            return ((centered * ((var + 1e-5) ** -0.5)) ** 2).sum()

        check_gradient(loss, x)

    def test_dropout_train_vs_eval(self):
        drop = Dropout(0.5)
        x = Tensor(np.ones((100, 10)))
        out_train = drop(x)
        assert (out_train.data == 0).any()
        drop.eval()
        out_eval = drop(x)
        assert np.allclose(out_eval.data, 1.0)

    def test_dropout_preserves_expectation(self):
        drop = Dropout(0.3, rng=np.random.default_rng(0))
        x = Tensor(np.ones((200, 50)))
        out = drop(x)
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_dropout_rate_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_mlp_forward(self):
        mlp = MLP([4, 8, 2])
        out = mlp(Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 2)

    def test_mlp_needs_two_dims(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_sequential(self):
        net = Sequential(Linear(3, 5), Linear(5, 2))
        assert net(Tensor(np.ones((1, 3)))).shape == (1, 2)


class TestModuleInfrastructure:
    def test_named_parameters_nested(self):
        mlp = MLP([3, 4, 2])
        names = [n for n, _ in mlp.named_parameters()]
        assert any("net.layers.0.weight" in n for n in names)
        assert len(names) == 4  # two Linears x (weight, bias)

    def test_num_parameters(self):
        layer = Linear(3, 4)
        assert layer.num_parameters() == 3 * 4 + 4

    def test_zero_grad(self):
        layer = Linear(2, 2)
        (layer(Tensor(np.ones((1, 2)))).sum()).backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_train_eval_propagates(self):
        net = Sequential(Linear(2, 2), Dropout(0.5))
        net.eval()
        assert not net.layers[1].training
        net.train()
        assert net.layers[1].training

    def test_state_dict_round_trip(self):
        a = MLP([3, 5, 2])
        b = MLP([3, 5, 2])
        b.load_state_dict(a.state_dict())
        x = Tensor(rng.normal(size=(2, 3)))
        assert np.allclose(a(x).data, b(x).data)

    def test_load_state_dict_rejects_mismatch(self):
        a = Linear(2, 3)
        b = Linear(3, 3)
        with pytest.raises((KeyError, ValueError)):
            b.load_state_dict(a.state_dict())

    def test_save_load_file(self, tmp_path):
        a = MLP([4, 6, 3])
        path = tmp_path / "model.npz"
        save_state(a, path)
        b = MLP([4, 6, 3])
        load_state(b, path)
        x = Tensor(rng.normal(size=(2, 4)))
        assert np.allclose(a(x).data, b(x).data)


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.5, -1.0], [0.0, 1.0, 0.0]]))
        labels = np.array([0, 1])
        loss = F.cross_entropy(logits, labels)
        p = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        expected = -np.log(p[[0, 1], labels]).mean()
        assert np.isclose(loss.item(), expected, atol=1e-5)

    def test_cross_entropy_grad(self):
        x = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        check_gradient(lambda t: F.cross_entropy(t, labels), x)

    def test_weighted_cross_entropy_prefers_weighted_class(self):
        logits = Tensor(np.zeros((2, 2)))
        labels = np.array([0, 1])
        base = F.cross_entropy(logits, labels).item()
        weighted = F.cross_entropy(logits, labels, weight=np.array([1.0, 1.0])).item()
        assert np.isclose(base, weighted, atol=1e-6)

    def test_bce_with_logits_matches_manual(self):
        x = np.array([0.5, -1.5, 2.0])
        t = np.array([1.0, 0.0, 1.0])
        loss = F.binary_cross_entropy_with_logits(Tensor(x), t)
        p = 1 / (1 + np.exp(-x))
        expected = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
        assert np.isclose(loss.item(), expected, atol=1e-5)

    def test_bce_grad(self):
        x = rng.normal(size=(6,))
        t = (rng.random(6) > 0.5).astype(np.float64)
        check_gradient(lambda z: F.binary_cross_entropy_with_logits(z, t), x)

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        assert F.accuracy(Tensor(logits), np.array([0, 1, 1])) == pytest.approx(2 / 3)


class TestOptimizers:
    def _quadratic_problem(self):
        target = np.array([3.0, -2.0], dtype=np.float32)
        p = Parameter(np.zeros(2, dtype=np.float32))

        def loss_fn():
            diff = p - Tensor(target)
            return (diff * diff).sum()

        return p, loss_fn, target

    @pytest.mark.parametrize("make_opt", [
        lambda p: SGD([p], lr=0.1),
        lambda p: SGD([p], lr=0.05, momentum=0.9),
        lambda p: Adam([p], lr=0.3),
        lambda p: AdamW([p], lr=0.3, weight_decay=0.001),
    ])
    def test_converges_on_quadratic(self, make_opt):
        p, loss_fn, target = self._quadratic_problem()
        opt = make_opt(p)
        for _ in range(200):
            opt.zero_grad()
            loss = loss_fn()
            loss.backward()
            opt.step()
        assert np.allclose(p.data, target, atol=0.05)

    def test_weight_decay_shrinks_weights(self):
        p = Parameter(np.full(3, 5.0, dtype=np.float32))
        opt = AdamW([p], lr=0.01, weight_decay=0.5)
        # No loss gradient at all: pure decay
        for _ in range(10):
            p.grad = np.zeros_like(p.data)
            opt.step()
        assert np.all(np.abs(p.data) < 5.0)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_clip_grad_norm(self):
        p = Parameter(np.zeros(4, dtype=np.float32))
        p.grad = np.full(4, 10.0, dtype=np.float32)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, abs=1e-5)

    def test_clip_noop_under_limit(self):
        p = Parameter(np.zeros(2, dtype=np.float32))
        p.grad = np.array([0.3, 0.4], dtype=np.float32)
        clip_grad_norm([p], max_norm=1.0)
        assert np.allclose(p.grad, [0.3, 0.4])


class TestSchedule:
    def test_warmup_rises(self):
        lrs = [cosine_schedule(s, 100, 1.0, warmup=10) for s in range(10)]
        assert lrs == sorted(lrs)
        assert lrs[-1] <= 1.0

    def test_cosine_decays_to_floor(self):
        end = cosine_schedule(99, 100, 1.0, warmup=0, floor=0.1)
        assert end == pytest.approx(0.1, abs=0.01)

    def test_peak_after_warmup(self):
        assert cosine_schedule(10, 100, 1.0, warmup=10) == pytest.approx(1.0, abs=0.02)
