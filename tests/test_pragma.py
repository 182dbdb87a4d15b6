"""Tests for OpenMP pragma parsing and the OMP_Serial labelling rule."""

import pytest

from repro.pragma import (
    PragmaError,
    loop_label,
    parse_omp_pragma,
    pragma_category,
)


class TestParsing:
    def test_parallel_for(self):
        p = parse_omp_pragma("pragma omp parallel for")
        assert p.directives == ["parallel", "for"]
        assert p.clauses == []

    def test_leading_hash_accepted(self):
        p = parse_omp_pragma("#pragma omp for")
        assert p.directives == ["for"]

    def test_non_omp_pragma_returns_none(self):
        assert parse_omp_pragma("pragma unroll(4)") is None
        assert parse_omp_pragma("pragma once") is None

    def test_reduction_clause(self):
        p = parse_omp_pragma("pragma omp parallel for reduction(+:sum)")
        assert p.reductions == [("+", "sum")]

    def test_reduction_multiple_vars(self):
        p = parse_omp_pragma("pragma omp parallel for reduction(*:a, b)")
        assert p.reductions == [("*", "a"), ("*", "b")]

    def test_multiple_reduction_clauses(self):
        p = parse_omp_pragma(
            "pragma omp parallel for reduction(+:s) reduction(max:m)"
        )
        assert ("+", "s") in p.reductions
        assert ("max", "m") in p.reductions

    def test_private_clause(self):
        p = parse_omp_pragma("pragma omp parallel for private(i, j, tmp)")
        assert p.private_vars == ["i", "j", "tmp"]

    def test_firstprivate_counts_as_private(self):
        p = parse_omp_pragma("pragma omp parallel for firstprivate(x)")
        assert p.private_vars == ["x"]

    def test_schedule_clause_args(self):
        p = parse_omp_pragma("pragma omp parallel for schedule(static, 4)")
        c = p.clause("schedule")
        assert c.args == ["static", "4"]

    def test_simd_directive(self):
        p = parse_omp_pragma("pragma omp simd")
        assert p.has_directive("simd")
        assert p.is_loop_directive

    def test_target_composite(self):
        p = parse_omp_pragma(
            "pragma omp target teams distribute parallel for map(to: a)"
        )
        assert p.has_directive("target")
        assert p.has_directive("for")

    def test_unknown_reduction_op_raises(self):
        with pytest.raises(PragmaError):
            parse_omp_pragma("pragma omp parallel for reduction(@:x)")

    def test_reduction_without_colon_raises(self):
        with pytest.raises(PragmaError):
            parse_omp_pragma("pragma omp parallel for reduction(sum)")

    def test_bare_omp_raises(self):
        with pytest.raises(PragmaError):
            parse_omp_pragma("pragma omp")

    def test_nowait_bare_clause(self):
        p = parse_omp_pragma("pragma omp for nowait")
        assert p.has_clause("nowait")

    def test_num_threads(self):
        p = parse_omp_pragma("pragma omp parallel for num_threads(8)")
        assert p.clause("num_threads").args == ["8"]

    def test_str_round_trip(self):
        text = "pragma omp parallel for reduction(+:sum) private(i)"
        p = parse_omp_pragma(text)
        again = parse_omp_pragma(str(p))
        assert again.directives == p.directives
        assert again.reductions == p.reductions
        assert again.private_vars == p.private_vars


class TestCategory:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pragma omp parallel for reduction(+:s)", "reduction"),
            ("pragma omp parallel for private(i)", "private"),
            ("pragma omp simd", "simd"),
            ("pragma omp for simd", "simd"),
            ("pragma omp target teams distribute parallel for", "target"),
            ("pragma omp parallel for", "parallel"),
            ("pragma omp for", "parallel"),
            ("pragma omp parallel for schedule(dynamic)", "parallel"),
        ],
    )
    def test_category(self, text, expected):
        assert pragma_category(parse_omp_pragma(text)) == expected

    def test_target_beats_reduction(self):
        p = parse_omp_pragma("pragma omp target parallel for reduction(+:s)")
        assert pragma_category(p) == "target"

    def test_reduction_beats_private(self):
        p = parse_omp_pragma("pragma omp parallel for reduction(+:s) private(i)")
        assert pragma_category(p) == "reduction"


class TestLoopLabel:
    def test_parallel_with_category(self):
        ok, cat = loop_label(["pragma omp parallel for reduction(+:x)"])
        assert ok and cat == "reduction"

    def test_no_pragma_is_non_parallel(self):
        ok, cat = loop_label([])
        assert not ok and cat is None

    def test_non_omp_pragma_is_non_parallel(self):
        ok, cat = loop_label(["pragma unroll(2)"])
        assert not ok and cat is None

    def test_non_loop_omp_pragma_is_non_parallel(self):
        # ``omp critical`` is OpenMP but not a worksharing-loop directive.
        ok, cat = loop_label(["pragma omp critical"])
        assert not ok and cat is None

    def test_malformed_pragma_skipped(self):
        ok, cat = loop_label(
            ["pragma omp reduction(", "pragma omp parallel for"]
        )
        assert ok and cat == "parallel"

    def test_first_loop_pragma_wins(self):
        ok, cat = loop_label(
            ["pragma omp parallel for private(t)", "pragma omp simd"]
        )
        assert ok and cat == "private"
