"""Structural tests for the experiment harness (tiny config).

These exercise every table/figure module end to end with a minimal
dataset and 1-epoch models — asserting row structure and invariants, not
model quality (quality shapes are asserted by benchmarks/).
"""

import pytest

from repro.eval import (
    ExperimentConfig,
    ExperimentResult,
    casestudy,
    coverage,
    figure2,
    get_context,
    overhead,
    render_table,
    table1,
    table3,
    table4,
)

TINY = ExperimentConfig(scale=0.006, seed=11, epochs=1, dim=16, heads=2,
                        layers=1, batch_size=16)


@pytest.fixture(scope="module")
def ctx():
    return get_context(TINY)


class TestResultContainer:
    def test_render_table_alignment(self):
        text = render_table([{"a": 1, "bb": "xy"}, {"a": 222, "bb": "z"}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_render_empty(self):
        assert render_table([]) == "(empty)"

    def test_row_for(self):
        r = ExperimentResult(name="t", rows=[{"k": 1, "v": "x"},
                                             {"k": 2, "v": "y"}])
        assert r.row_for(k=2)["v"] == "y"
        assert r.row_for(k=9) is None

    def test_column(self):
        r = ExperimentResult(name="t", rows=[{"k": 1}, {"k": 2}])
        assert r.column("k") == [1, 2]

    def test_render_includes_paper_reference(self):
        r = ExperimentResult(name="T", rows=[{"x": 1}],
                             paper_reference=[{"x": 99}])
        out = r.render()
        assert "paper reported" in out and "99" in out


class TestConfig:
    def test_profiles(self):
        assert ExperimentConfig.fast().scale < ExperimentConfig.paper().scale

    def test_with_override(self):
        cfg = ExperimentConfig.fast().with_(scale=0.5)
        assert cfg.scale == 0.5

    def test_frozen_hashable(self):
        assert hash(ExperimentConfig.fast()) == hash(ExperimentConfig.fast())


class TestContextCaching:
    def test_same_config_same_context(self):
        assert get_context(TINY) is get_context(TINY)

    def test_dataset_cached(self, ctx):
        assert ctx.dataset is ctx.dataset

    def test_split_is_stable(self, ctx):
        a = ctx.split
        b = ctx.split
        assert a is b

    def test_tool_verdicts_aligned_with_dataset(self, ctx):
        verdicts = ctx.tool_verdicts("pluto")
        assert len(verdicts) == len(ctx.dataset)

    def test_graph_model_cached(self, ctx):
        m1 = ctx.graph_model(representation="aug", task="parallel")
        m2 = ctx.graph_model(representation="aug", task="parallel")
        assert m1 is m2


class TestExperimentsStructure:
    def test_table1(self, ctx):
        result = table1.run(TINY)
        assert result.rows
        assert all("loops" in r for r in result.rows)
        assert result.paper_reference

    def test_figure2(self, ctx):
        result = figure2.run(TINY)
        assert {r["tool"] for r in result.rows} == {"pluto", "autopar",
                                                    "discopop"}
        for row in result.rows:
            assert all(v >= 0 for k, v in row.items() if k != "tool")

    def test_table3_counts_bounded(self, ctx):
        result = table3.run(TINY)
        n_parallel = len(ctx.dataset.parallel_loops())
        for row in result.rows:
            assert 0 <= row["detected_parallel_loops"] <= n_parallel

    def test_table4_tool_soundness(self, ctx):
        result = table4.run(TINY)
        for row in result.rows:
            if row["approach"] in ("PLUTO", "autoPar", "DiscoPoP"):
                assert row["FP"] == 0

    def test_coverage_fractions(self, ctx):
        result = coverage.run(TINY)
        for row in result.rows:
            assert 0.0 <= row["file_gated_loop_coverage"] <= 1.0
            assert row["file_gated_loop_coverage"] <= row["loop_level_only"]

    def test_overhead_rows(self, ctx):
        result = overhead.run(TINY, max_loops=30)
        stages = {r["stage"] for r in result.rows}
        assert "total per loop" in stages
        total = result.row_for(stage="total per loop")
        assert total["avg_ms"] > 0

    def test_casestudy_listings_structure(self):
        rows = casestudy.run_listings()
        assert len(rows) == 8
        listing1 = next(r for r in rows if r["listing"] == "listing1")
        assert listing1["matches_paper"] is True


class TestFigure2Classifier:
    def test_classify_priorities(self):
        from repro.dataset.sample import LoopSample

        red_call = LoopSample(source="", parallel=True, category="reduction",
                              has_call=True)
        assert figure2.classify(red_call) == \
            "loops_with_reduction_and_function_call"
        red = LoopSample(source="", parallel=True, category="reduction")
        assert figure2.classify(red) == "loops_with_reduction"
        call = LoopSample(source="", parallel=True, category="private",
                          has_call=True)
        assert figure2.classify(call) == "loops_with_function_call"
        nested = LoopSample(source="", parallel=True, category="private",
                            nested=True)
        assert figure2.classify(nested) == "nested_loops"
        plain = LoopSample(source="", parallel=True, category="parallel")
        assert figure2.classify(plain) == "others"
