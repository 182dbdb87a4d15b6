"""Bench: the fused training fast path vs the seed (composed) tape.

The training hot path was overhauled end to end: a fused
``typed_linear`` autograd op (one tape node instead of ~3 per node
type), fused relation-attention / message / softmax-aggregate /
LayerNorm / cross-entropy kernels, round-decomposed bit-exact
scatters, buffer-reusing ``zero_grad``/Adam steps, and
epoch-persistent batch collation.  ``use_fast_math(False)`` restores
the seed path, so both generations stay benchmarkable side by side.

Two claims are measured on the fast experiment profile:

- *speed*: the fused path's ``speedup`` over the seed path
  (best-of-``ROUNDS`` per side) — recorded, and gated by
  ``check_regression.py`` against its baseline rather than asserted
  here, because a wall-clock ratio depends on the host;
- *grounding*: the speedup is free — per-epoch loss history, final
  state dict, and test-set predictions are byte-identical between the
  two paths for the same seed.

Emits the ``BENCH_train.json`` perf-trajectory artifact.
"""

import os
import time

import numpy as np

from conftest import run_once, write_bench_artifact

from repro.models import Graph2Par, Graph2ParConfig
from repro.nn.tensor import use_fast_math
from repro.train import GraphTrainer, TrainConfig, prepare_graph_data

ROUNDS = 3


def _train(fast: bool, data, val, vocab, config):
    """One full training run; returns (fit_seconds, history, state, preds)."""
    with use_fast_math(fast):
        model = Graph2Par(vocab, Graph2ParConfig(
            dim=config.dim, heads=config.heads, layers=config.layers,
            dropout=config.dropout, seed=config.seed,
        ))
        trainer = GraphTrainer(model, TrainConfig(
            epochs=config.epochs, batch_size=config.batch_size,
            lr=config.lr, seed=config.seed,
        ))
        start = time.perf_counter()
        history = trainer.fit(data)
        elapsed = time.perf_counter() - start
        preds = trainer.predict(val)
    return elapsed, history, model.state_dict(), preds


def _fast_vs_seed(context) -> dict:
    config = context.config
    train, test = context.split
    data, vocab = prepare_graph_data(
        train, representation="aug", label_fn=lambda s: int(s.parallel))
    val, _ = prepare_graph_data(
        test, representation="aug", vocab=vocab,
        label_fn=lambda s: int(s.parallel))

    _train(True, data, val, vocab, config)       # warm numpy/BLAS once
    seed_s, fast_s = float("inf"), float("inf")
    seed_run = fast_run = None
    for _ in range(ROUNDS):                      # best-of-N per side
        elapsed, *rest = _train(False, data, val, vocab, config)
        if elapsed < seed_s:
            seed_s, seed_run = elapsed, rest
        elapsed, *rest = _train(True, data, val, vocab, config)
        if elapsed < fast_s:
            fast_s, fast_run = elapsed, rest

    seed_hist, seed_state, seed_preds = seed_run
    fast_hist, fast_state, fast_preds = fast_run
    state_identical = set(seed_state) == set(fast_state) and all(
        seed_state[k].tobytes() == fast_state[k].tobytes()
        for k in seed_state
    )
    return {
        "samples": len(data),
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "dim": config.dim,
        "cpus": os.cpu_count(),
        "seed_s": round(seed_s, 4),
        "fast_s": round(fast_s, 4),
        "speedup": round(seed_s / fast_s, 2) if fast_s else 0.0,
        "identical_state": state_identical,
        "identical_history": seed_hist == fast_hist,
        "identical_preds": bool(np.array_equal(seed_preds, fast_preds)),
    }


def test_train_speed(benchmark, context):
    result = run_once(benchmark, _fast_vs_seed, context)
    path = write_bench_artifact("train", result)
    print(f"\ntrain speed: {result['samples']} graphs x {result['epochs']} "
          f"epochs, seed tape {result['seed_s']}s vs fused "
          f"{result['fast_s']}s ({result['speedup']}x, "
          f"{result['cpus']} cpus) -> {path}")

    # the fused path must change nothing but the clock
    assert result["identical_state"]
    assert result["identical_history"]
    assert result["identical_preds"]
