"""Tests for CFG construction."""

import networkx as nx

from repro.cfg import EdgeLabel, build_cfg
from repro.cfront import parse_statements, parse_loop
from repro.cfront.nodes import CallExpr


def cfg_of(source):
    return build_cfg(parse_statements(source))


def labels_between(cfg, src_role, dst_role):
    roles = {n.nid: n.role for n in cfg.nodes}
    return [
        e.label
        for e in cfg.edges
        if roles[e.src] == src_role and roles[e.dst] == dst_role
    ]


class TestStraightLine:
    def test_sequential_statements_chain(self):
        cfg = cfg_of("a = 1; b = 2; c = 3;")
        # entry -> a -> b -> c -> exit
        stmt_ids = [n.nid for n in cfg.nodes if n.role == "stmt"]
        assert len(stmt_ids) == 3
        g = cfg.to_networkx()
        assert nx.has_path(g, cfg.entry, cfg.exit)
        assert g.number_of_edges() == 4

    def test_empty_block(self):
        cfg = cfg_of("")
        g = cfg.to_networkx()
        assert g.has_edge(cfg.entry, cfg.exit)

    def test_all_nodes_reachable(self):
        cfg = cfg_of("x = 1; if (x) y = 2; else y = 3; z = 4;")
        assert cfg.reachable_from_entry() >= {
            n.nid for n in cfg.nodes if n.role != "exit"}


class TestIf:
    def test_if_true_false_edges(self):
        cfg = cfg_of("if (a) x = 1; else x = 2;")
        cond = next(n for n in cfg.nodes if n.role == "cond")
        out_labels = {label for _, label in cfg.succ(cond.nid)}
        assert EdgeLabel.TRUE in out_labels and EdgeLabel.FALSE in out_labels

    def test_if_without_else_falls_through(self):
        cfg = cfg_of("if (a) x = 1; y = 2;")
        cond = next(n for n in cfg.nodes if n.role == "cond")
        # FALSE edge must reach the following statement
        false_dsts = [d for d, lab in cfg.succ(cond.nid) if lab is EdgeLabel.FALSE]
        assert len(false_dsts) == 1
        assert cfg.nodes[false_dsts[0]].role == "stmt"


class TestLoops:
    def test_for_loop_shape(self):
        cfg = cfg_of("for (i = 0; i < n; i++) s += i;")
        roles = [n.role for n in cfg.nodes]
        assert "init" in roles and "cond" in roles and "inc" in roles
        assert len(cfg.back_edges()) == 1

    def test_for_back_edge_targets_cond(self):
        cfg = cfg_of("for (i = 0; i < n; i++) s += i;")
        cond = next(n for n in cfg.nodes if n.role == "cond")
        back = cfg.back_edges()[0]
        assert back.dst == cond.nid

    def test_while_loop_back_edge(self):
        cfg = cfg_of("while (x > 0) x--;")
        assert len(cfg.back_edges()) == 1

    def test_do_while_executes_body_first(self):
        cfg = cfg_of("do x--; while (x);")
        # entry's successor is the body statement, not the condition
        entry_succs = [d for d, _ in cfg.succ(cfg.entry)]
        assert cfg.nodes[entry_succs[0]].role == "stmt"

    def test_infinite_for(self):
        cfg = cfg_of("for (;;) x++;")
        assert len(cfg.back_edges()) == 1

    def test_nested_loops_two_back_edges(self):
        cfg = cfg_of("for (i = 0; i < n; i++) for (j = 0; j < n; j++) s++;")
        assert len(cfg.back_edges()) == 2

    def test_break_exits_loop(self):
        cfg = cfg_of("while (1) { if (a) break; x++; } y = 1;")
        # The break node's successor should be the final statement.
        brk = next(n for n in cfg.nodes if n.kind == "BreakStmt")
        dsts = [d for d, _ in cfg.succ(brk.nid)]
        assert len(dsts) == 1
        assert cfg.nodes[dsts[0]].ast is not None

    def test_continue_reaches_increment(self):
        cfg = cfg_of("for (i = 0; i < n; i++) { if (a) continue; x++; }")
        cont = next(n for n in cfg.nodes if n.kind == "ContinueStmt")
        dsts = [d for d, _ in cfg.succ(cont.nid)]
        assert cfg.nodes[dsts[0]].role == "inc"

    def test_loop_condition_false_leaves_loop(self):
        cfg = cfg_of("for (i = 0; i < n; i++) s++;\nt = 1;")
        cond = next(n for n in cfg.nodes if n.role == "cond")
        false_dst = next(d for d, lab in cfg.succ(cond.nid) if lab is EdgeLabel.FALSE)
        assert cfg.nodes[false_dst].role == "stmt"


class TestCalls:
    def test_call_gets_cfg_node(self):
        cfg = cfg_of("x = f(a);")
        call = next(n for n in cfg.nodes if n.role == "call")
        assert isinstance(call.ast, CallExpr)
        assert labels_between(cfg, "stmt", "call") == [EdgeLabel.CALL]

    def test_call_in_loop_condition(self):
        cfg = cfg_of("while (more(x)) x = next(x);")
        calls = [n for n in cfg.nodes if n.role == "call"]
        assert len(calls) == 2

    def test_nested_calls_each_get_node(self):
        cfg = cfg_of("y = f(g(x));")
        assert sum(1 for n in cfg.nodes if n.role == "call") == 2


class TestReturnGotoSwitch:
    def test_return_edges_to_exit(self):
        cfg = cfg_of("if (a) return 1; x = 2;")
        ret = next(n for n in cfg.nodes if n.kind == "ReturnStmt")
        assert (cfg.exit, EdgeLabel.NEXT) in cfg.succ(ret.nid)

    def test_goto_connects_to_label(self):
        cfg = cfg_of("top: x++; if (x < 10) goto top;")
        gt = next(n for n in cfg.nodes if n.kind == "GotoStmt")
        lbl = next(n for n in cfg.nodes if n.kind == "LabelStmt")
        assert (lbl.nid, EdgeLabel.NEXT) in cfg.succ(gt.nid)

    def test_switch_cases_from_head(self):
        cfg = cfg_of("switch (x) { case 1: a = 1; break; case 2: a = 2; break; }")
        cond = next(n for n in cfg.nodes if n.role == "cond")
        true_dsts = [d for d, lab in cfg.succ(cond.nid) if lab is EdgeLabel.TRUE]
        assert len(true_dsts) == 2

    def test_switch_without_default_falls_through(self):
        cfg = cfg_of("switch (x) { case 1: a = 1; } b = 2;")
        cond = next(n for n in cfg.nodes if n.role == "cond")
        false_edges = [lab for _, lab in cfg.succ(cond.nid) if lab is EdgeLabel.FALSE]
        assert false_edges


class TestLoopLevelCFG:
    """CFGs built on single loop statements (the aug-AST use case)."""

    def test_paper_listing1(self):
        loop = parse_loop(
            "for (i = 0; i < 30000000; i++)\n"
            "    error = error + fabs(a[i] - a[i+1]);"
        )
        cfg = build_cfg(loop)
        kinds = [n.kind for n in cfg.nodes]
        assert "CallExpr" in kinds  # fabs is a CFG node (Figure 3's f1)
        assert len(cfg.back_edges()) == 1

    def test_ast_nodes_property(self):
        loop = parse_loop("for (i = 0; i < n; i++) s += f(i);")
        cfg = build_cfg(loop)
        shared = cfg.ast_nodes
        assert all(any(n is m for m in loop.walk()) for n in shared)

    def test_node_for_lookup(self):
        loop = parse_loop("for (i = 0; i < n; i++) s += i;")
        cfg = build_cfg(loop)
        assert cfg.node_for(loop.cond) is not None
        assert cfg.node_for(loop) is None  # the loop itself is not a CFG node
