"""Tests for CFG analyses and the lastprivate liveness path."""

import numpy as np

from repro.cfg import (
    build_cfg,
    dominates,
    immediate_dominators,
    scalars_read_after,
    unreachable_nodes,
)
from repro.cfront import parse_statements
from repro.cfront.nodes import LOOP_KINDS


class TestDominators:
    def test_entry_dominates_everything(self):
        cfg = build_cfg(parse_statements("a = 1; if (a) b = 2; c = 3;"))
        for node in cfg.reachable_from_entry():
            assert dominates(cfg, cfg.entry, node)

    def test_branch_does_not_dominate_join(self):
        cfg = build_cfg(parse_statements("if (a) x = 1; else x = 2; y = 3;"))
        # the then-branch statement does not dominate the join statement
        stmts = [n for n in cfg.nodes if n.role == "stmt"]
        then_stmt, else_stmt, join_stmt = stmts[0], stmts[1], stmts[2]
        assert not dominates(cfg, then_stmt.nid, join_stmt.nid)
        assert not dominates(cfg, else_stmt.nid, join_stmt.nid)

    def test_idom_map_covers_reachable(self):
        cfg = build_cfg(parse_statements("while (a) { b = 1; }"))
        idom = immediate_dominators(cfg)
        assert cfg.entry in idom

    def test_unreachable_after_return(self):
        cfg = build_cfg(parse_statements("return 1; x = 2;"))
        assert unreachable_nodes(cfg)

    def test_fully_reachable_graph(self):
        cfg = build_cfg(parse_statements("a = 1; b = 2;"))
        assert unreachable_nodes(cfg) == set()


class TestScalarsReadAfter:
    def _loop_and_body(self, src):
        body = parse_statements(src)
        loop = next(n for n in body.walk() if isinstance(n, LOOP_KINDS))
        return body, loop

    def test_read_after_loop_detected(self):
        body, loop = self._loop_and_body(
            "for (i = 0; i < n; i++) t = a[i];\nresult = t * 2;"
        )
        assert "t" in scalars_read_after(body, loop)

    def test_no_reads_after(self):
        body, loop = self._loop_and_body(
            "x = 0;\nfor (i = 0; i < n; i++) t = a[i];"
        )
        assert scalars_read_after(body, loop) == set()

    def test_write_after_is_not_a_read(self):
        body, loop = self._loop_and_body(
            "for (i = 0; i < n; i++) t = a[i];\nt = 0;"
        )
        assert "t" not in scalars_read_after(body, loop)

    def test_compound_assign_after_is_a_read(self):
        body, loop = self._loop_and_body(
            "for (i = 0; i < n; i++) t = a[i];\nt += 1;"
        )
        assert "t" in scalars_read_after(body, loop)

    def test_subscript_of_written_array_is_a_read(self):
        body, loop = self._loop_and_body(
            "for (i = 0; i < n; i++) t = a[i];\nb[t] = 1;"
        )
        assert "t" in scalars_read_after(body, loop)


class TestLastprivateSuggestion:
    def test_escaping_scalar_gets_lastprivate(self):
        from repro.suggest import PragmaSuggester

        class Yes:
            def predict_samples(self, samples):
                return np.ones(len(samples), dtype=int)

        class No:
            def predict_samples(self, samples):
                return np.zeros(len(samples), dtype=int)

        suggester = PragmaSuggester(Yes(), {
            "reduction": No(), "private": Yes(), "simd": No(), "target": No(),
        })
        source = """
        double a[100], b[100], t;
        void f(void) {
            int i;
            for (i = 0; i < 100; i++) {
                t = a[i] * 2;
                b[i] = t;
            }
            a[0] = t;
        }
        """
        suggestions = suggester.suggest_file(source)
        assert len(suggestions) == 1
        assert "lastprivate(t)" in suggestions[0].pragma

    def test_non_escaping_scalar_stays_private(self):
        from repro.suggest import PragmaSuggester

        class Yes:
            def predict_samples(self, samples):
                return np.ones(len(samples), dtype=int)

        class No:
            def predict_samples(self, samples):
                return np.zeros(len(samples), dtype=int)

        suggester = PragmaSuggester(Yes(), {
            "reduction": No(), "private": Yes(), "simd": No(), "target": No(),
        })
        source = """
        double a[100], b[100], t;
        void f(void) {
            int i;
            for (i = 0; i < 100; i++) {
                t = a[i] * 2;
                b[i] = t;
            }
        }
        """
        suggestions = suggester.suggest_file(source)
        assert "private(t)" in suggestions[0].pragma
        assert "lastprivate" not in suggestions[0].pragma
