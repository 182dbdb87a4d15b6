"""Tests for pragma suggestion/generation (the paper's future-work item)."""

import numpy as np

from repro.suggest import PragmaSuggester, agreement


class _StubModel:
    """predict_samples stub returning a fixed answer."""

    def __init__(self, value: int) -> None:
        self.value = value

    def predict_samples(self, samples):
        return np.full(len(samples), self.value, dtype=int)


def make_suggester(parallel=1, **clauses):
    defaults = {"reduction": 0, "private": 0, "simd": 0, "target": 0}
    defaults.update(clauses)
    return PragmaSuggester(
        _StubModel(parallel),
        {k: _StubModel(v) for k, v in defaults.items()},
    )


class TestSuggestLoop:
    def test_sequential_prediction(self):
        s = make_suggester(parallel=0).suggest_loop(
            "for (i = 1; i < n; i++) a[i] = a[i-1];"
        )
        assert not s.parallel and s.pragma is None
        assert "sequential" in s.render()

    def test_reduction_grounded_in_analysis(self):
        s = make_suggester(parallel=1, reduction=1).suggest_loop(
            "for (i = 0; i < n; i++) total += a[i];"
        )
        assert s.parallel
        assert "reduction(+:total)" in s.pragma

    def test_product_reduction_operator(self):
        s = make_suggester(parallel=1, reduction=1).suggest_loop(
            "for (i = 0; i < n; i++) p *= a[i];"
        )
        assert "reduction(*:p)" in s.pragma

    def test_private_variables_listed(self):
        s = make_suggester(parallel=1, private=1).suggest_loop(
            "for (i = 0; i < n; i++) { t = a[i] * 2; b[i] = t; }"
        )
        assert "private(t)" in s.pragma

    def test_simd_directive(self):
        s = make_suggester(parallel=1, simd=1).suggest_loop(
            "for (i = 0; i < n; i++) a[i] = b[i] + c[i];"
        )
        assert "simd" in s.pragma

    def test_target_composite(self):
        s = make_suggester(parallel=1, target=1).suggest_loop(
            "for (i = 0; i < n; i++) a[i] = b[i] * c[i];"
        )
        assert s.pragma.startswith("#pragma omp target teams distribute")

    def test_plain_parallel_for(self):
        s = make_suggester(parallel=1).suggest_loop(
            "for (i = 0; i < n; i++) a[i] = 0;"
        )
        assert s.pragma == "#pragma omp parallel for"

    def test_analysis_overrides_missing_reduction_prediction(self):
        # Even when the clause model says no, a detected accumulator must
        # be protected by a reduction clause for correctness.
        s = make_suggester(parallel=1, reduction=0).suggest_loop(
            "for (i = 0; i < n; i++) total += a[i];"
        )
        assert "reduction(+:total)" in s.pragma

    def test_unparseable_loop_is_sequential(self):
        s = make_suggester().suggest_loop("for (i = 0; i < n;")
        assert not s.parallel
        assert "unparseable" in s.rationale

    def test_render_inserts_pragma_above_loop(self):
        s = make_suggester(parallel=1).suggest_loop(
            "for (i = 0; i < n; i++) a[i] = 0;"
        )
        lines = s.render().splitlines()
        assert lines[0].startswith("#pragma omp")
        assert lines[1].startswith("for")


class TestSuggestBatch:
    def test_order_aligned_with_requests(self):
        suggester = make_suggester(parallel=1, reduction=1)
        sources = [
            "for (i = 0; i < n; i++) total += a[i];",
            "for (i = 0; i < n;",                      # unparseable
            "for (i = 0; i < n; i++) a[i] = 0;",
        ]
        out = suggester.suggest_batch(sources)
        assert len(out) == 3
        assert "reduction(+:total)" in out[0].pragma
        assert not out[1].parallel and "unparseable" in out[1].rationale
        assert out[2].parallel

    def test_matches_per_loop_path(self):
        suggester = make_suggester(parallel=1, private=1, simd=1)
        sources = [
            "for (i = 0; i < n; i++) { t = a[i] * 2; b[i] = t; }",
            "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
        ]
        batched = suggester.suggest_batch(sources)
        singles = [suggester.suggest_loop(src) for src in sources]
        assert [s.render() for s in batched] == [s.render() for s in singles]

    def test_one_model_call_per_task(self):
        suggester = make_suggester(parallel=1, reduction=1)
        calls = {"parallel": 0}
        orig = suggester.parallel_model.predict_samples

        def counting(samples):
            calls["parallel"] += 1
            return orig(samples)

        suggester.parallel_model.predict_samples = counting
        suggester.suggest_batch([
            "for (i = 0; i < n; i++) a[i] = 0;",
            "for (i = 0; i < n; i++) b[i] = 1;",
            "for (i = 0; i < n; i++) c[i] = 2;",
        ])
        assert calls["parallel"] == 1

    def test_empty_batch(self):
        assert make_suggester().suggest_batch([]) == []

    def test_duplicate_requests_computed_once(self):
        suggester = make_suggester(parallel=1)
        sizes = []
        orig = suggester.parallel_model.predict_samples

        def counting(samples):
            sizes.append(len(samples))
            return orig(samples)

        suggester.parallel_model.predict_samples = counting
        src = "for (i = 0; i < n; i++) a[i] = 0;"
        out = suggester.suggest_batch([src, src, src])
        assert sizes == [1]                   # deduped before the model
        assert [s.render() for s in out] == [out[0].render()] * 3


class TestSuggestFile:
    SOURCE = """
    double a[100], b[100]; double s;
    void kernel(void) {
        int i;
        for (i = 0; i < 100; i++) a[i] = b[i];
        for (i = 1; i < 100; i++) a[i] = a[i-1];
    }
    """

    TWO_FUNCTIONS = """
    double a[100]; double t; double out;
    void good(void) {
        int i;
        for (i = 0; i < 100; i++) { t = a[i] * 2; a[i] = t; }
        out = t;
    }
    void other(void) {
        int i;
        for (i = 0; i < 100; i++) a[i] = a[i] + 1;
        for (i = 0; i < 100; i++) a[i] = a[i] * 2;
    }
    """

    def test_one_suggestion_per_loop(self):
        suggester = make_suggester(parallel=1)
        suggestions = suggester.suggest_file(self.SOURCE)
        assert len(suggestions) == 2

    def test_post_loop_read_becomes_lastprivate(self):
        suggester = make_suggester(parallel=1, private=1)
        suggestions = suggester.suggest_file(self.TWO_FUNCTIONS)
        assert "lastprivate(t)" in suggestions[0].pragma

    def test_liveness_survives_misalignment_in_other_function(self):
        # liveness is per function: other()'s two loops must not
        # disturb the lastprivate of good()'s loop
        suggester = make_suggester(parallel=1, private=1)
        suggestions = suggester.suggest_file(self.TWO_FUNCTIONS)
        assert len(suggestions) == 3
        assert "lastprivate(t)" in suggestions[0].pragma


class TestAgreement:
    def test_matching_reduction(self):
        a = agreement(
            "#pragma omp parallel for reduction(+:s)",
            "#pragma omp parallel for reduction(+:s)",
        )
        assert a["both_present"] and a["directive_match"] and a["reduction_match"]

    def test_different_reduction_var(self):
        a = agreement(
            "#pragma omp parallel for reduction(+:s)",
            "#pragma omp parallel for reduction(+:t)",
        )
        assert not a["reduction_match"]

    def test_target_mismatch(self):
        a = agreement(
            "#pragma omp parallel for",
            "#pragma omp target parallel for",
        )
        assert not a["directive_match"]

    def test_none_pair(self):
        assert agreement(None, None)["both_present"]
        assert not agreement(None, "#pragma omp for")["both_present"]

    def test_clause_only_pragma_is_not_usable(self):
        # "omp private(t)" has no directive: parse raises PragmaError,
        # which agreement must absorb rather than crash the bench.
        a = agreement("#pragma omp private(t)",
                      "#pragma omp parallel for private(t)")
        assert a == {"both_present": False, "directive_match": False,
                     "reduction_match": False}

    def test_malformed_pragma_strings(self):
        for bad in ("#pragma omp parallel for reduction(total)",   # no op
                    "#pragma omp parallel for reduction(%:x)",     # bad op
                    "#pragma omp parallel for private(t",          # unbalanced
                    "#pragma omp"):                                # empty
            a = agreement(bad, "#pragma omp parallel for")
            assert not a["both_present"], bad
            assert not a["directive_match"], bad

    def test_non_omp_pragma_returns_not_present(self):
        a = agreement("#pragma unroll(4)", "#pragma omp parallel for")
        assert not a["both_present"]
