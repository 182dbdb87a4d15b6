"""§6.5: aug-AST construction overhead.

The paper reports that building the representation (Clang parse +
tree-sitter traversal) costs on the order of milliseconds per loop for
the ~7-LOC loops of OMP_Serial.  Here the pipeline is parse → CFG →
aug-AST → encode; we time each stage per loop.
"""

from __future__ import annotations

import time

from repro.cfront import parse_loop
from repro.eval.config import ExperimentConfig
from repro.eval.context import get_context
from repro.eval.result import ExperimentResult
from repro.graphs import build_aug_ast, build_graph_vocab, encode_graph

PAPER_OVERHEAD = [
    {"stage": "total per loop", "avg_ms": "order of milliseconds"},
]


def run(config: ExperimentConfig | None = None,
        max_loops: int = 200) -> ExperimentResult:
    ctx = get_context(config)
    samples = ctx.dataset.samples[:max_loops]

    t0 = time.perf_counter()
    loops = [parse_loop(s.source) for s in samples]
    t_parse = time.perf_counter() - t0

    t0 = time.perf_counter()
    graphs = [build_aug_ast(loop) for loop in loops]
    t_build = time.perf_counter() - t0

    vocab = build_graph_vocab(graphs)
    t0 = time.perf_counter()
    for g in graphs:
        encode_graph(g, vocab)
    t_encode = time.perf_counter() - t0

    n = len(samples)
    rows = [
        {"stage": "parse", "avg_ms": round(1000 * t_parse / n, 3)},
        {"stage": "aug-AST build (CFG + lexical)",
         "avg_ms": round(1000 * t_build / n, 3)},
        {"stage": "encode", "avg_ms": round(1000 * t_encode / n, 3)},
        {"stage": "total per loop",
         "avg_ms": round(1000 * (t_parse + t_build + t_encode) / n, 3)},
    ]
    return ExperimentResult(
        name="Overhead: aug-AST construction per loop",
        rows=rows,
        paper_reference=PAPER_OVERHEAD,
        notes=f"measured over {n} loops; expectation: a few ms per loop.",
    )
