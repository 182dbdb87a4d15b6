"""Tests for the static dependence analysis."""

from repro.cfront import parse_loop
from repro.tools.access import collect_accesses
from repro.tools import deps as deps_module
from repro.tools.deps import analyze_loop, cache_stats, clear_cache


def deps(src):
    return analyze_loop(parse_loop(src))


class TestAnalyzeLoopMemo:
    """analyze_loop memoizes by structural loop hash."""

    def test_identical_structure_shares_one_analysis(self):
        clear_cache()
        first = analyze_loop(parse_loop("for (i = 0; i < n; i++) s += a[i];"))
        # a fresh parse of the same loop, modulo formatting
        second = analyze_loop(
            parse_loop("for (i = 0; i < n; i++)   s  +=  a[i] ;")
        )
        assert second is first
        assert cache_stats()["hits"] == 1
        assert cache_stats()["misses"] == 1

    def test_flag_is_part_of_the_key(self):
        clear_cache()
        loop = parse_loop("for (i = 0; i < n; i++) { if (c) s += a[i]; }")
        plain = analyze_loop(loop)
        widened = analyze_loop(loop, conditional_reductions=True)
        assert plain is not widened
        assert not plain.reductions
        assert [r.var for r in widened.reductions] == ["s"]

    def test_distinct_loops_miss(self):
        clear_cache()
        analyze_loop(parse_loop("for (i = 0; i < n; i++) a[i] = b[i];"))
        analyze_loop(parse_loop("for (i = 0; i < n; i++) a[i] = c[i];"))
        assert cache_stats() == {"hits": 0, "misses": 2, "entries": 2}

    def test_memoized_equals_fresh(self):
        sources = [
            "for (i = 0; i < n; i++) s += a[i];",
            "for (i = 0; i < n; i++) a[i] = a[i - 1];",
            "for (i = 0; i < n; i++) { t = a[i]; b[i] = t * t; }",
        ]
        for src in sources:
            clear_cache()
            fresh = deps_module._analyze_loop_uncached(parse_loop(src), False)
            memo = analyze_loop(parse_loop(src))
            assert memo.is_doall() == fresh.is_doall()
            assert [r.var for r in memo.reductions] == \
                [r.var for r in fresh.reductions]
            assert memo.privatizable == fresh.privatizable
            assert len(memo.array_deps) == len(fresh.array_deps)

    def test_capacity_is_bounded(self):
        clear_cache()
        old_max = deps_module._DEPS_CACHE_MAX
        deps_module._DEPS_CACHE_MAX = 4
        try:
            for k in range(8):
                analyze_loop(
                    parse_loop(f"for (i = 0; i < {k + 1}; i++) s += a[i];")
                )
            assert cache_stats()["entries"] == 4
        finally:
            deps_module._DEPS_CACHE_MAX = old_max
            clear_cache()


class TestAccessCollection:
    def test_read_write_classification(self):
        loop = parse_loop("for (i = 0; i < n; i++) a[i] = b[i] + c;")
        summary = collect_accesses(loop.body)
        assert {a.base for a in summary.writes()} == {"a"}
        assert {"b", "c", "i"} <= {a.base for a in summary.reads()}

    def test_compound_assign_reads_and_writes(self):
        loop = parse_loop("for (i = 0; i < n; i++) s += a[i];")
        summary = collect_accesses(loop.body)
        assert len(summary.writes("s")) == 1
        assert len(summary.reads("s")) == 1

    def test_incdec_reads_and_writes(self):
        loop = parse_loop("for (i = 0; i < n; i++) counter++;")
        summary = collect_accesses(loop.body)
        assert len(summary.writes("counter")) == 1
        assert len(summary.reads("counter")) == 1

    def test_subscripts_recorded(self):
        loop = parse_loop("for (i = 0; i < n; i++) a[i][j] = 0;")
        summary = collect_accesses(loop.body)
        w = summary.writes("a")[0]
        assert len(w.subscripts) == 2

    def test_member_arrow_inexact(self):
        loop = parse_loop("for (i = 0; i < n; i++) p->x = i;")
        summary = collect_accesses(loop.body)
        assert not summary.writes("p")[0].exact

    def test_pointer_deref_inexact(self):
        loop = parse_loop("for (i = 0; i < n; i++) *p = i;")
        summary = collect_accesses(loop.body)
        assert not summary.writes("p")[0].exact

    def test_calls_recorded(self):
        loop = parse_loop("for (i = 0; i < n; i++) a[i] = f(b[i]);")
        summary = collect_accesses(loop.body)
        assert summary.has_calls

    def test_address_of_arg_is_unknown_write(self):
        loop = parse_loop("for (i = 0; i < n; i++) update(&x);")
        summary = collect_accesses(loop.body)
        assert any(a.is_write and a.base == "x" for a in summary.accesses)

    def test_local_decl_tracked(self):
        loop = parse_loop("for (i = 0; i < n; i++) { int t = a[i]; b[i] = t; }")
        summary = collect_accesses(loop.body)
        assert "t" in summary.local_decls

    def test_conditional_flag(self):
        loop = parse_loop("for (i = 0; i < n; i++) { if (a[i]) t = 1; }")
        summary = collect_accesses(loop.body)
        assert summary.writes("t")[0].conditional

    def test_inner_loop_detected(self):
        loop = parse_loop(
            "for (i = 0; i < n; i++) for (j = 0; j < n; j++) s += 1;"
        )
        summary = collect_accesses(loop.body)
        assert summary.has_inner_loop


class TestScalarClassification:
    def test_single_statement_reduction(self):
        d = deps("for (i = 0; i < n; i++) s += a[i];")
        assert [r.var for r in d.reductions] == ["s"]
        assert d.reductions[0].op == "+"

    def test_expanded_reduction_form(self):
        d = deps("for (i = 0; i < n; i++) s = s + a[i];")
        assert [r.var for r in d.reductions] == ["s"]

    def test_commuted_reduction_form(self):
        d = deps("for (i = 0; i < n; i++) s = a[i] + s;")
        assert [r.var for r in d.reductions] == ["s"]

    def test_product_reduction(self):
        d = deps("for (i = 0; i < n; i++) p *= a[i];")
        assert d.reductions[0].op == "*"

    def test_counting_reduction(self):
        d = deps("for (i = 0; i < n; i++) count++;")
        assert [r.var for r in d.reductions] == ["count"]

    def test_multi_statement_reduction_listing4(self):
        d = deps("for (int i = 0; i < N; i += step) { v += 2; v = v + step; }")
        assert [r.var for r in d.reductions] == ["v"]
        assert d.reductions[0].statements == 2

    def test_mixed_op_updates_not_reduction(self):
        d = deps("for (i = 0; i < n; i++) { s += a[i]; s *= 2; }")
        assert not d.reductions
        assert "s" in d.shared_scalar_writes

    def test_reduction_var_also_read_elsewhere_disqualified(self):
        d = deps("for (i = 0; i < n; i++) { s += a[i]; b[i] = s; }")
        assert not d.reductions
        assert "s" in d.shared_scalar_writes

    def test_minus_maps_to_plus_family(self):
        d = deps("for (i = 0; i < n; i++) s -= a[i];")
        assert d.reductions and d.reductions[0].op == "+"

    def test_local_decl_private(self):
        d = deps("for (i = 0; i < n; i++) { int t = a[i] * 2; b[i] = t; }")
        assert "t" in d.privatizable

    def test_write_first_scalar_private(self):
        d = deps("for (i = 0; i < n; i++) { t = a[i] * 2; b[i] = t; }")
        assert "t" in d.privatizable

    def test_read_first_scalar_shared(self):
        d = deps("for (i = 0; i < n; i++) { b[i] = t; t = a[i]; }")
        assert "t" in d.shared_scalar_writes

    def test_conditional_write_not_private(self):
        d = deps("for (i = 0; i < n; i++) { if (a[i]) t = 1; b[i] = t; }")
        assert "t" in d.shared_scalar_writes

    def test_loop_var_not_classified(self):
        d = deps("for (i = 0; i < n; i++) a[i] = i;")
        assert "i" not in d.privatizable
        assert "i" not in d.shared_scalar_writes


class TestArrayDependence:
    def test_elementwise_no_dep(self):
        d = deps("for (i = 0; i < n; i++) a[i] = b[i] + 1;")
        assert not d.array_deps

    def test_flow_dependence(self):
        d = deps("for (i = 1; i < n; i++) a[i] = a[i-1] + 1;")
        assert any(dep.base == "a" for dep in d.array_deps)

    def test_anti_dependence(self):
        d = deps("for (i = 0; i < n; i++) a[i] = a[i+1];")
        assert any(dep.base == "a" for dep in d.array_deps)

    def test_same_cell_output_dependence(self):
        d = deps("for (i = 0; i < n; i++) a[0] = i;")
        assert any(dep.kind == "output" for dep in d.array_deps)

    def test_even_odd_writes_independent(self):
        d = deps("for (i = 0; i < n; i++) a[2*i] = a[2*i+1];")
        assert not d.array_deps

    def test_read_only_array_no_dep(self):
        d = deps("for (i = 0; i < n; i++) s += a[i] + a[i+1];")
        assert not d.array_deps  # a never written

    def test_multidim_independent_in_one_dim(self):
        d = deps("for (i = 0; i < n; i++) a[i][0] = a[i][1] + 1;")
        assert not d.array_deps

    def test_multidim_dependent(self):
        d = deps("for (i = 1; i < n; i++) a[i][0] = a[i-1][0];")
        assert d.array_deps

    def test_nonaffine_subscript_flagged(self):
        d = deps("for (i = 0; i < n; i++) a[b[i]] = i;")
        assert d.non_affine

    def test_symbolic_offset_same_both_sides(self):
        d = deps("for (i = 0; i < n; i++) a[i + off] = b[i];")
        assert not d.array_deps

    def test_inner_loop_var_subscript(self):
        d = deps(
            "for (i = 0; i < n; i++) "
            "for (j = 0; j < m; j++) a[i][j] = b[i][j];"
        )
        assert not d.array_deps


class TestIsDoall:
    def test_clean_doall(self):
        assert deps("for (i = 0; i < n; i++) a[i] = b[i];").is_doall()

    def test_reduction_needs_flag(self):
        d = deps("for (i = 0; i < n; i++) s += a[i];")
        assert not d.is_doall()
        assert d.is_doall(allow_reductions=True)

    def test_calls_block_by_default(self):
        d = deps("for (i = 0; i < n; i++) a[i] = f(i);")
        assert not d.is_doall()
        assert d.is_doall(assume_calls_pure=True)

    def test_non_canonical_never_doall(self):
        assert not deps("while (x > 0) x--;").is_doall()


def cond_deps(src):
    return analyze_loop(parse_loop(src), conditional_reductions=True)


class TestConditionalReductions:
    """The clause synthesizer leans on conditional-update handling."""

    def test_guarded_sum_needs_flag(self):
        src = "for (i = 0; i < n; i++) if (a[i] > 0) s += a[i];"
        assert not deps(src).reductions
        r = cond_deps(src).reductions
        assert [(x.var, x.op) for x in r] == [("s", "+")]

    def test_guarded_sum_not_shared_with_flag(self):
        src = "for (i = 0; i < n; i++) if (a[i] > 0) s += a[i];"
        assert "s" in deps(src).shared_scalar_writes
        assert "s" not in cond_deps(src).shared_scalar_writes

    def test_else_branch_update_counts(self):
        src = ("for (i = 0; i < n; i++)"
               "  if (a[i] > 0) s += a[i]; else s += 1;")
        r = cond_deps(src).reductions
        assert [(x.var, x.op) for x in r] == [("s", "+")]

    def test_guarded_mixed_ops_still_disqualified(self):
        src = ("for (i = 0; i < n; i++)"
               "  if (a[i] > 0) s += a[i]; else s *= 2;")
        assert not cond_deps(src).reductions
        assert "s" in cond_deps(src).shared_scalar_writes


class TestCountingUpdates:
    def test_increment_is_plus_reduction(self):
        r = deps("for (i = 0; i < n; i++) count++;").reductions
        assert [(x.var, x.op) for x in r] == [("count", "+")]

    def test_decrement_is_plus_reduction(self):
        r = deps("for (i = 0; i < n; i++) count--;").reductions
        assert [(x.var, x.op) for x in r] == [("count", "+")]

    def test_guarded_increment_needs_flag(self):
        src = "for (i = 0; i < n; i++) if (a[i] > 0) count++;"
        assert not deps(src).reductions
        r = cond_deps(src).reductions
        assert [(x.var, x.op) for x in r] == [("count", "+")]

    def test_prefix_and_postfix_equivalent(self):
        post = deps("for (i = 0; i < n; i++) hits++;").reductions
        pre = deps("for (i = 0; i < n; i++) ++hits;").reductions
        assert ([(x.var, x.op) for x in post]
                == [(x.var, x.op) for x in pre])


class TestChainedReductionOps:
    def test_two_updates_same_op(self):
        r = deps("for (i = 0; i < n; i++)"
                 "  { s += a[i]; s += b[i]; }").reductions
        assert [(x.var, x.op) for x in r] == [("s", "+")]
        assert r[0].statements == 2

    def test_three_updates_same_op(self):
        r = deps("for (i = 0; i < n; i++)"
                 "  { s += a[i]; s += b[i]; s += c[i]; }").reductions
        assert [(x.var, x.op) for x in r] == [("s", "+")]

    def test_chained_mixed_ops_disqualified(self):
        d = deps("for (i = 0; i < n; i++) { s += a[i]; s *= b[i]; }")
        assert not d.reductions
        assert "s" in d.shared_scalar_writes

    def test_independent_vars_chain_separately(self):
        r = deps("for (i = 0; i < n; i++)"
                 "  { s += a[i]; p *= b[i]; }").reductions
        assert sorted((x.var, x.op) for x in r) == [("p", "*"),
                                                    ("s", "+")]

    def test_minus_then_plus_share_plus_family(self):
        r = deps("for (i = 0; i < n; i++)"
                 "  { s -= a[i]; s += b[i]; }").reductions
        assert [(x.var, x.op) for x in r] == [("s", "+")]


class TestPrivatizableVsLiveOut:
    """analyze_loop classifies locally; liveness is the caller's job.

    The rewrite planner (repro.rewrite.clauses) splits privatizable
    into private/lastprivate using scalars_read_after — these tests pin
    the classification it builds on.
    """

    def test_write_first_temporary_privatizable(self):
        d = deps("for (i = 0; i < n; i++) { t = a[i]; b[i] = t * 2; }")
        assert "t" in d.privatizable
        assert "t" not in d.shared_scalar_writes

    def test_block_decl_privatizable(self):
        d = deps("for (i = 0; i < n; i++) { int t = a[i]; b[i] = t; }")
        assert "t" in d.privatizable

    def test_read_before_write_not_privatizable(self):
        d = deps("for (i = 0; i < n; i++) { b[i] = t; t = a[i]; }")
        assert "t" not in d.privatizable
        assert "t" in d.shared_scalar_writes

    def test_conditional_first_write_not_privatizable(self):
        d = deps("for (i = 0; i < n; i++)"
                 "  { if (a[i] > 0) t = a[i]; b[i] = t; }")
        assert "t" not in d.privatizable

    def test_two_temporaries_both_privatizable(self):
        d = deps("for (i = 0; i < n; i++)"
                 "  { u = a[i]; v = u + 1; b[i] = u * v; }")
        assert {"u", "v"} <= d.privatizable

    def test_privatizable_is_not_a_reduction(self):
        d = deps("for (i = 0; i < n; i++) { t = a[i]; b[i] = t; }")
        assert not d.reductions
