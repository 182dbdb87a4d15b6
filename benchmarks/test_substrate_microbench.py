"""Microbenchmarks for the substrate hot paths.

These are latency regression guards for the pieces profiling showed to
dominate end-to-end time: the C frontend, aug-AST construction, graph
batching, the HGT layer, and the segment primitives.
"""

import numpy as np

from repro.cfront import parse_loop, parse_source
from repro.graphs import build_aug_ast, build_graph_vocab, collate, encode_graph
from repro.models import Graph2Par, Graph2ParConfig
from repro.nn import functional as F
from repro.nn.tensor import Tensor, segment_softmax, segment_sum

LOOP_SRC = (
    "for (i = 0; i < n; i++) {\n"
    "    t = a[i] * 2;\n"
    "    b[i] = t + fabs(c[i] - c[i+1]);\n"
    "    d[i] = b[i] > 0 ? b[i] : -b[i];\n"
    "}"
)

PROGRAM_SRC = "\n".join(
    f"double arr{k}[1024];\n"
    f"void kernel{k}(void) {{\n"
    f"    int i;\n"
    f"    for (i = 0; i < 1024; i++) arr{k}[i] = arr{k}[i] * {k + 1};\n"
    f"}}"
    for k in range(20)
)


def test_parse_loop_latency(benchmark):
    loop = benchmark(parse_loop, LOOP_SRC)
    assert loop.kind == "ForStmt"


def test_parse_file_latency(benchmark):
    tu = benchmark(parse_source, PROGRAM_SRC)
    assert len(tu.functions()) == 20


def test_augast_build_latency(benchmark):
    loop = parse_loop(LOOP_SRC)
    graph = benchmark(build_aug_ast, loop)
    assert graph.num_edges > graph.num_nodes


def test_collate_latency(benchmark):
    loop = parse_loop(LOOP_SRC)
    graph = build_aug_ast(loop)
    vocab = build_graph_vocab([graph])
    encs = [encode_graph(graph, vocab) for _ in range(64)]
    batch = benchmark(collate, encs)
    assert batch.num_graphs == 64


def test_hgt_forward_latency(benchmark):
    loop = parse_loop(LOOP_SRC)
    graph = build_aug_ast(loop)
    vocab = build_graph_vocab([graph])
    encs = [encode_graph(graph, vocab) for _ in range(64)]
    batch = collate(encs)
    model = Graph2Par(vocab, Graph2ParConfig(dim=48, heads=4, layers=2))
    model.eval()

    def forward():
        from repro.nn.tensor import no_grad
        with no_grad():
            return model(batch)

    logits = benchmark(forward)
    assert logits.shape == (64, 2)


def test_hgt_train_step_latency(benchmark):
    loop = parse_loop(LOOP_SRC)
    graph = build_aug_ast(loop)
    vocab = build_graph_vocab([graph])
    encs = [encode_graph(graph, vocab, label=k % 2) for k in range(32)]
    batch = collate(encs)
    model = Graph2Par(vocab, Graph2ParConfig(dim=48, heads=4, layers=2))
    from repro.nn import Adam
    opt = Adam(model.parameters(), lr=1e-3)

    def step():
        opt.zero_grad()
        loss = F.cross_entropy(model(batch), batch.labels)
        loss.backward()
        opt.step()
        return loss

    loss = benchmark(step)
    assert np.isfinite(loss.item())


def test_segment_softmax_latency(benchmark):
    rng = np.random.default_rng(0)
    logits = Tensor(rng.normal(size=(20_000, 4)).astype(np.float32))
    seg = np.sort(rng.integers(0, 4_000, size=20_000))

    p = benchmark(segment_softmax, logits, seg, 4_000)
    assert np.isfinite(p.data).all()


def test_segment_sum_latency(benchmark):
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(20_000, 48)).astype(np.float32))
    seg = rng.integers(0, 4_000, size=20_000)

    out = benchmark(segment_sum, x, seg, 4_000)
    assert out.shape == (4_000, 48)
