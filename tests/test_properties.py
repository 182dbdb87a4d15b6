"""Property-based tests (hypothesis) on the core invariants.

Covers: frontend round-trips over generated C, affine-analysis
linearity, heterogeneous-graph structural invariants, autodiff algebra,
segment-op equivalences, tool soundness against the labelling oracle,
and metric identities.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cfront import parse_loop, parse_statements, unparse
from repro.cfront.lexer import Lexer
from repro.cfront.parser import Parser
from repro.dataset.oracle import oracle_parallel
from repro.dataset.recipes import RecipeGenerator
from repro.graphs import EdgeType, build_aug_ast, build_vanilla_ast
from repro.nn.tensor import Tensor, segment_sum
from repro.tools import make_tool
from repro.tools.affine import to_affine
from repro.train.metrics import confusion_counts

# ---------------------------------------------------------------------------
# C expression generator
# ---------------------------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "x", "y", "i", "j", "n", "tmp"])
_ints = st.integers(min_value=0, max_value=999).map(str)
_binops = st.sampled_from(["+", "-", "*", "/", "%", "<", ">", "==", "&&",
                           "||", "&", "|", "^", "<<", ">>"])
_unops = st.sampled_from(["-", "!", "~"])


def _exprs():
    atoms = st.one_of(
        _names,
        _ints,
        st.tuples(_names, _names).map(lambda t: f"{t[0]}[{t[1]}]"),
    )
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.tuples(children, _binops, children).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            st.tuples(_unops, children).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(_names, children).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(children, children, children).map(
                lambda t: f"({t[0]} ? {t[1]} : {t[2]})"
            ),
        ),
        max_leaves=12,
    )


def _unparse_stmts(source: str) -> str:
    block = parse_statements(source)
    return "\n".join(unparse(s) for s in block.stmts)


class TestFrontendProperties:
    @given(_exprs())
    @settings(max_examples=120, deadline=None)
    def test_expression_unparse_parse_fixed_point(self, expr):
        """parse∘unparse is idempotent on arbitrary generated expressions."""
        snippet = f"x = {expr};"
        once = _unparse_stmts(snippet)
        twice = _unparse_stmts(once)
        assert once == twice

    @given(_exprs())
    @settings(max_examples=60, deadline=None)
    def test_lexer_token_count_stable(self, expr):
        """Lexing the unparsed form reproduces an identical token stream."""
        once = _unparse_stmts(f"x = {expr};")
        toks1 = [t.text for t in Lexer(once).lex().tokens]
        toks2 = [t.text for t in Lexer(_unparse_stmts(once)).lex().tokens]
        assert toks1 == toks2

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_recipe_loops_roundtrip(self, seed):
        """Every generated recipe parses, unparses, and reparses stably."""
        gen = RecipeGenerator(seed=seed)
        cat = [None, "reduction", "private", "simd", "target", "parallel"][
            seed % 6
        ]
        recipe = gen.generate(cat)
        loop = parse_loop(recipe.body)
        once = unparse(loop)
        assert unparse(parse_loop(once)) == once


class TestAffineProperties:
    @given(
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-99, max_value=99),
    )
    @settings(max_examples=80, deadline=None)
    def test_affine_recovers_coefficients(self, ci, cj, const):
        """to_affine inverts the textual linear form exactly."""
        def term(c, v):
            if c == 0:
                return None
            return f"{c} * {v}"
        parts = [p for p in (term(ci, "i"), term(cj, "j"), str(const)) if p]
        text = " + ".join(parts) if parts else "0"
        toks = Lexer(text).lex().tokens
        expr = Parser(toks)._parse_expr()
        aff = to_affine(expr, {"i", "j"})
        assert aff is not None
        assert aff.coeff("i") == ci
        assert aff.coeff("j") == cj
        assert aff.const == const


class TestGraphProperties:
    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=40, deadline=None)
    def test_augast_structural_invariants(self, seed):
        gen = RecipeGenerator(seed=seed)
        cat = [None, "reduction", "private", "simd", "target", "parallel"][
            seed % 6
        ]
        loop = parse_loop(gen.generate(cat).body)
        graph = build_aug_ast(loop)
        graph.validate()
        # Same node set regardless of augmentation; edges monotone.
        vanilla = build_vanilla_ast(loop)
        assert graph.num_nodes == vanilla.num_nodes
        assert graph.num_edges >= vanilla.num_edges
        # Reverse-edge pairing per forward type.
        for fwd, rev in ((EdgeType.AST, EdgeType.AST_REV),
                         (EdgeType.CFG, EdgeType.CFG_REV),
                         (EdgeType.LEX, EdgeType.LEX_REV)):
            fwd_set = {(s, d) for s, d in graph.edges_of_type(fwd)}
            rev_set = {(d, s) for s, d in graph.edges_of_type(rev)}
            assert fwd_set == rev_set


class TestAutodiffProperties:
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_gradient_of_linear_form_is_coefficients(self, n, m, seed):
        """d/dx of sum(a ⊙ x) is exactly a."""
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, m)).astype(np.float32)
        x = Tensor(rng.normal(size=(n, m)), requires_grad=True)
        (x * a).sum().backward()
        np.testing.assert_allclose(x.grad, a, rtol=1e-5)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_segment_sum_equals_matmul(self, rows, segs, seed):
        """segment_sum(x, ids, S) == M @ x for the indicator matrix M."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, 3)).astype(np.float32)
        ids = rng.integers(0, segs, size=rows)
        dense = np.zeros((segs, rows), dtype=np.float32)
        dense[ids, np.arange(rows)] = 1.0
        out = segment_sum(Tensor(x), ids, segs)
        np.testing.assert_allclose(out.data, dense @ x, rtol=1e-5, atol=1e-6)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_backward_linearity(self, seed):
        """grad(αf) == α·grad(f) for scalar α."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(4, 4))
        alpha = float(rng.uniform(0.5, 3.0))

        def grad_of(scale):
            x = Tensor(data, requires_grad=True)
            ((x * x).sum() * scale).backward()
            return x.grad.copy()

        np.testing.assert_allclose(grad_of(alpha), alpha * grad_of(1.0),
                                   rtol=1e-4)


class TestToolSoundnessProperty:
    """The zero-false-positive contract, as a generative property."""

    @given(st.integers(min_value=0, max_value=20_000))
    @settings(max_examples=40, deadline=None)
    def test_tool_parallel_implies_oracle_parallel(self, seed):
        gen = RecipeGenerator(seed=seed)
        cat = [None, "reduction", "private", "simd", "target", "parallel",
               None, None][seed % 8]
        recipe = gen.generate(cat)
        loop = parse_loop(recipe.body)
        for name in ("pluto", "autopar", "discopop"):
            result = make_tool(name).analyze_loop(loop)
            if result.parallel:
                assert oracle_parallel(loop), (
                    f"{name} claims parallel on a loop the oracle rejects:"
                    f"\n{recipe.body}"
                )


class TestMetricsProperties:
    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                 min_size=1, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_confusion_partitions_population(self, pairs):
        preds = np.array([p for p, _ in pairs])
        labels = np.array([l for _, l in pairs])
        m = confusion_counts(preds, labels)
        assert m.tp + m.tn + m.fp + m.fn == len(pairs)
        assert 0.0 <= m.accuracy <= 1.0
        if m.precision and m.recall:
            assert min(m.precision, m.recall) - 1e-9 <= m.f1 \
                <= max(m.precision, m.recall) + 1e-9
