"""Tests for the augmented heterogeneous AST builder."""

from repro.cfront import parse_loop
from repro.graphs import EdgeType, build_aug_ast, build_vanilla_ast

LISTING1 = (
    "for (i = 0; i < 30000000; i++)\n"
    "    error = error + fabs(a[i] - a[i+1]);"
)


class TestVanillaAST:
    def test_one_graph_node_per_ast_node(self):
        loop = parse_loop("for (i = 0; i < n; i++) s += i;")
        graph = build_vanilla_ast(loop)
        assert graph.num_nodes == sum(1 for _ in loop.walk())

    def test_ast_edges_form_spanning_tree(self):
        loop = parse_loop(LISTING1)
        graph = build_vanilla_ast(loop)
        graph.validate()  # raises if the AST edges are not a spanning tree
        ast_edges = graph.edges_of_type(EdgeType.AST)
        assert len(ast_edges) == graph.num_nodes - 1

    def test_reverse_edge_per_ast_edge(self):
        graph = build_vanilla_ast(parse_loop(LISTING1))
        assert len(graph.edges_of_type(EdgeType.AST_REV)) == len(
            graph.edges_of_type(EdgeType.AST)
        )

    def test_no_cfg_or_lexical_edges(self):
        graph = build_vanilla_ast(parse_loop(LISTING1))
        assert not graph.edges_of_type(EdgeType.CFG)
        assert not graph.edges_of_type(EdgeType.LEX)

    def test_root_is_for_stmt(self):
        graph = build_vanilla_ast(parse_loop(LISTING1))
        assert graph.node_types[0] == "ForStmt"

    def test_heterogeneous_types_present(self):
        graph = build_vanilla_ast(parse_loop(LISTING1))
        assert {"ForStmt", "BinaryOperator", "DeclRefExpr", "CallExpr"} <= (
            graph.type_set()
        )


class TestAlphaRenaming:
    def test_variables_renamed_in_first_occurrence_order(self):
        loop = parse_loop("for (i = 0; i < n; i++) s += a[i];")
        graph = build_vanilla_ast(loop)
        ref_texts = [
            graph.node_texts[k]
            for k in range(graph.num_nodes)
            if graph.node_types[k] == "DeclRefExpr"
        ]
        # i first, then n, s, a
        assert ref_texts == ["v0", "v0", "v1", "v0", "v2", "v3", "v0"]

    def test_function_names_in_f_namespace(self):
        graph = build_aug_ast(parse_loop(LISTING1))
        texts = set(graph.node_texts)
        assert "f0" in texts  # fabs
        assert all(not t.startswith("f") or t in ("f0",) or not t[1:].isdigit()
                   for t in texts if t)

    def test_same_variable_same_text(self):
        loop = parse_loop("for (i = 0; i < 3; i++) x = x + 1;")
        graph = build_vanilla_ast(loop)
        x_ids = [
            graph.node_texts[k]
            for k in range(graph.num_nodes)
            if graph.node_types[k] == "DeclRefExpr"
            and graph.node_texts[k].startswith("v")
        ]
        # x appears twice, both occurrences share a rename
        assert x_ids.count("v1") == 2

    def test_literals_bucketed(self):
        loop = parse_loop("for (i = 0; i < 30000000; i += 2) s += 0.0;")
        graph = build_vanilla_ast(loop)
        texts = set(graph.node_texts)
        assert "int:0" in texts
        assert "int:large" in texts
        assert "int:2" in texts
        assert "float:zero" in texts

    def test_operator_text_preserved(self):
        loop = parse_loop("for (i = 0; i < n; i++) s += i;")
        graph = build_vanilla_ast(loop)
        assert "+=" in set(graph.node_texts)
        assert "<" in set(graph.node_texts)


class TestCFGEdges:
    def test_cfg_edges_present(self):
        graph = build_aug_ast(parse_loop(LISTING1))
        assert graph.edges_of_type(EdgeType.CFG)

    def test_cfg_edges_absent_when_disabled(self):
        graph = build_aug_ast(parse_loop(LISTING1), with_cfg=False)
        assert not graph.edges_of_type(EdgeType.CFG)

    def test_call_node_in_cfg_edges(self):
        """Figure 3: the fabs call node receives a CFG edge."""
        loop = parse_loop(LISTING1)
        graph = build_aug_ast(loop)
        call_gid = next(
            k for k in range(graph.num_nodes)
            if graph.node_types[k] == "CallExpr"
        )
        cfg_dsts = {d for s, d in graph.edges_of_type(EdgeType.CFG)}
        assert call_gid in cfg_dsts

    def test_cfg_edges_are_within_range(self):
        graph = build_aug_ast(parse_loop(LISTING1))
        graph.validate()


class TestLexicalEdges:
    def test_lexical_chain_over_leaves(self):
        loop = parse_loop("for (i = 0; i < n; i++) s += a[i];")
        graph = build_aug_ast(loop)
        lex = graph.edges_of_type(EdgeType.LEX)
        leaves = [k for k in range(graph.num_nodes) if graph.node_is_leaf[k]]
        # A chain over L leaves has L-1 edges; only token-bearing leaves
        # (identifiers/literals) participate.
        token_leaves = [
            k for k in leaves
            if graph.node_types[k] in (
                "DeclRefExpr", "IntegerLiteral", "FloatingLiteral",
                "CharLiteral", "StringLiteral",
            )
        ]
        assert len(lex) == len(token_leaves) - 1

    def test_lexical_edges_follow_source_order(self):
        loop = parse_loop("for (i = 0; i < n; i++) s += a[i];")
        graph = build_aug_ast(loop)
        lex = graph.edges_of_type(EdgeType.LEX)
        # First lexical edge starts at the first token: 'i' (v0)
        first_src = lex[0][0]
        assert graph.node_texts[first_src] == "v0"

    def test_disabled_lexical(self):
        graph = build_aug_ast(parse_loop(LISTING1), with_lexical=False)
        assert not graph.edges_of_type(EdgeType.LEX)


class TestGraphShape:
    def test_aug_ast_strictly_richer_than_vanilla(self):
        loop = parse_loop(LISTING1)
        vanilla = build_vanilla_ast(loop)
        aug = build_aug_ast(loop)
        assert aug.num_nodes == vanilla.num_nodes
        assert aug.num_edges > vanilla.num_edges

    def test_meta_carried(self):
        graph = build_aug_ast(parse_loop(LISTING1), meta={"category": "reduction"})
        assert graph.meta["category"] == "reduction"

    def test_positions_reflect_child_order(self):
        loop = parse_loop("for (i = 0; i < n; i++) s += i;")
        graph = build_aug_ast(loop)
        # Root children: init(0), cond(1), inc(2), body(3)
        root_children = [d for s, d in graph.edges_of_type(EdgeType.AST) if s == 0]
        positions = [graph.node_positions[c] for c in root_children]
        assert positions == [0, 1, 2, 3]

    def test_while_loop_graph(self):
        graph = build_aug_ast(parse_loop("while (k < 5000) k++;"))
        assert graph.node_types[0] == "WhileStmt"
        assert graph.edges_of_type(EdgeType.CFG)

    def test_to_dot_contains_nodes_and_colors(self):
        dot = build_aug_ast(parse_loop(LISTING1)).to_dot()
        assert "digraph" in dot and "color=red" in dot and "color=orange" in dot
