"""Property-based parity: compiled loop execution vs the tree-walker.

:mod:`repro.tools.compile` lowers a loop to Python closures that share
the interpreter's memory model; the verifier trusts it to be *bit-
identical* to :class:`~repro.tools.interp.Interpreter` — traces,
observable memory, step accounting, and both refusal exceptions.  This
suite checks that equivalence property over the same generative grammar
the models train on (:class:`~repro.dataset.recipes.RecipeGenerator`),
plus the fallback paths that must degrade to the tree-walker rather
than to a wrong answer.
"""

import math

import pytest

from repro.cfront import parse_loop
from repro.dataset.recipes import RecipeGenerator
from repro.rewrite import PlanError, VerifyConfig, plan_clauses, verify_loop
from repro.tools.compile import (
    CompileUnavailable,
    CompiledLoop,
    compile_cache_stats,
    compile_loop,
)
from repro.tools.interp import (
    ExecutionBudgetExceeded,
    Interpreter,
    UnsupportedConstruct,
)

CATEGORIES = ["reduction", "private", "simd", "parallel", "target", None]
SEEDS = range(6)
CASES = [(category, seed) for category in CATEGORIES for seed in SEEDS]

MAX_STEPS = 60_000


def _loop(category, seed):
    recipe = RecipeGenerator(seed=seed).generate(category)
    return parse_loop(recipe.body)


def _interp(seed=0, max_steps=MAX_STEPS):
    return Interpreter(max_steps=max_steps, array_extent=16, max_trip=10,
                       seed=seed)


def _run_interpreted(loop, seed=0, max_steps=MAX_STEPS):
    interp = _interp(seed, max_steps)
    trace = interp.run_loop(loop)
    return trace, interp


def _run_compiled(compiled, loop, seed=0, max_steps=MAX_STEPS):
    interp = _interp(seed, max_steps)
    interp.prepare(loop)
    compiled.run(interp, traced=True)
    return interp.trace, interp


def _memory_state(interp):
    return {
        name: [interp.memory.cells[base + off].value
               for off in range(math.prod(shape) if shape else 1)]
        for name, (base, shape) in interp.memory.bases.items()
    }


@pytest.mark.parametrize("category,seed", CASES)
def test_compiled_matches_interpreter(category, seed):
    """Traces, memory, and step counts are bit-identical — or both
    paths refuse with the same exception type and message."""
    loop = _loop(category, seed)
    compiled = compile_loop(loop)
    if compiled is None:         # unsupported shape: tree-walker owns it
        pytest.skip("loop not compilable; fallback path covers it")
    for interp_seed in (0, 1):
        ref_exc = got_exc = None
        try:
            ref_trace, ref = _run_interpreted(loop, interp_seed)
        except (UnsupportedConstruct, ExecutionBudgetExceeded) as exc:
            ref_exc = exc
        try:
            got_trace, got = _run_compiled(compiled, loop, interp_seed)
        except (UnsupportedConstruct, ExecutionBudgetExceeded) as exc:
            got_exc = exc
        if ref_exc is not None or got_exc is not None:
            assert type(ref_exc) is type(got_exc)
            assert str(ref_exc) == str(got_exc)
            continue
        assert got_trace.events == ref_trace.events
        assert got_trace.iterations == ref_trace.iterations
        assert got_trace.names == ref_trace.names
        assert got_trace.scalar_bases == ref_trace.scalar_bases
        assert _memory_state(got) == _memory_state(ref)
        assert got.steps == ref.steps


@pytest.mark.parametrize("max_steps", [5, 17, 63, 400])
@pytest.mark.parametrize("seed", [0, 3, 5])
def test_budget_refusal_parity(seed, max_steps):
    """Tight budgets refuse identically: same exception, same step at
    which the budget check fires, same message."""
    loop = _loop(None, seed)
    compiled = compile_loop(loop)
    if compiled is None:
        pytest.skip("loop not compilable")
    ref_exc = got_exc = None
    try:
        _run_interpreted(loop, max_steps=max_steps)
    except (UnsupportedConstruct, ExecutionBudgetExceeded) as exc:
        ref_exc = exc
    try:
        _run_compiled(compiled, loop, max_steps=max_steps)
    except (UnsupportedConstruct, ExecutionBudgetExceeded) as exc:
        got_exc = exc
    assert type(ref_exc) is type(got_exc)
    assert str(ref_exc) == str(got_exc)


def test_unknown_call_refusal_parity():
    loop = parse_loop(
        "for (i = 0; i < n; i++) { a[i] = mystery(a[i]); }")
    compiled = compile_loop(loop)
    assert compiled is not None
    with pytest.raises(UnsupportedConstruct) as ref:
        _run_interpreted(loop)
    with pytest.raises(UnsupportedConstruct) as got:
        _run_compiled(compiled, loop)
    assert str(got.value) == str(ref.value)
    assert "mystery" in str(got.value)


def test_run_body_executes_one_iteration():
    loop = parse_loop("for (i = 0; i < n; i++) { s = s + a[i]; }")
    compiled = compile_loop(loop)
    assert compiled is not None
    interp = _interp()
    interp.prepare(loop)
    i_addr = interp.memory.address_of("i")
    s_addr = interp.memory.address_of("s")
    a_base, _ = interp.memory.bases["a"]
    interp.memory.write(s_addr, 0.0)
    interp.memory.write(i_addr, 2)
    compiled.run_body(interp)
    assert interp.memory.read(s_addr) == interp.memory.read(a_base + 2)
    # trace elision: the untraced body records no access events
    assert interp.trace.events == []


def test_compile_disabled_by_env(monkeypatch):
    monkeypatch.setenv("REPRO_NO_LOOP_COMPILE", "1")
    loop = parse_loop("for (i = 0; i < n; i++) { a[i] = i; }")
    assert compile_loop(loop) is None


def test_non_for_loop_falls_back():
    loop = parse_loop("while (i < n) { i = i + 1; }")
    assert compile_loop(loop) is None


def test_compilation_is_memoized():
    source = "for (i = 0; i < n; i++) { a[i] = a[i] * 2; }"
    first = compile_loop(parse_loop(source))
    before = compile_cache_stats()
    second = compile_loop(parse_loop(source))
    after = compile_cache_stats()
    assert second is first       # re-parsed copy reuses the code objects
    assert after["hits"] == before["hits"] + 1


def test_unallocated_memory_raises_compile_unavailable():
    """run_body() on an unprepared interpreter refuses *before*
    touching state, so the verifier can fall back cleanly."""
    loop = parse_loop("for (i = 0; i < n; i++) { a[i] = i; }")
    compiled = compile_loop(loop)
    assert compiled is not None
    interp = _interp()           # no prepare(): nothing allocated
    with pytest.raises(CompileUnavailable):
        compiled.run_body(interp)
    assert interp.steps == 0
    assert not interp.memory.bases


def test_reference_falls_back_from_the_prepared_state(monkeypatch):
    """A body that cannot run compiled sends the sequential reference
    back to the tree-walker from the prepared state: its loop init has
    already run once, and running it twice would shift the trip
    count."""
    body = "for (i = i + 1; i < n; i++) { a[i] = b[i] * 2.0; }"
    loop = parse_loop(body)
    plan = plan_clauses(loop, frozenset())

    def unavailable(self, interp):
        raise CompileUnavailable()

    monkeypatch.setattr(CompiledLoop, "run_body", unavailable)
    stats = {}
    got = verify_loop(loop, plan, VerifyConfig(compiled=True), stats=stats)
    loop2 = parse_loop(body)
    want = verify_loop(loop2, plan_clauses(loop2, frozenset()),
                       VerifyConfig(compiled=False))
    assert got == want
    assert got.code == "verified"
    assert stats.get("compiled_runs", 0) == 0
    assert stats["interpreted_runs"] > 0


@pytest.mark.parametrize("body", [
    "for (i = 0; i < n; i++) a[i] = 1e400;",
    "for (i = 0; i < n; i++) a[i] = -1e400 * b[i];",
])
def test_overflowing_float_constant_parity(body):
    """A float constant that overflows to infinity runs compiled (its
    ``repr``, ``inf``, is no Python expression, so the body binds the
    value) and gets the tree-walker's verdict."""
    loop = parse_loop(body)
    stats = {}
    got = verify_loop(loop, plan_clauses(loop, frozenset()),
                      VerifyConfig(compiled=True), stats=stats)
    loop2 = parse_loop(body)
    want = verify_loop(loop2, plan_clauses(loop2, frozenset()),
                       VerifyConfig(compiled=False))
    assert got == want
    assert stats["compiled_runs"] > 0


@pytest.mark.parametrize("max_steps", [MAX_STEPS, 50, 200, 1000])
@pytest.mark.parametrize("category,seed",
                         [(c, s) for c in CATEGORIES for s in range(3)])
def test_verdict_parity_compiled_vs_interpreted(category, seed, max_steps):
    """The whole verifier produces byte-identical verdicts through
    either execution path — the property that lets both share one
    verdict-cache entry.  Tight budgets check that the compiled
    reference (interpreter header, compiled body) refuses with
    ``budget-exceeded`` exactly where the tree-walker does."""
    body = RecipeGenerator(seed=seed).generate(category).body
    loop = parse_loop(body)
    try:
        plan = plan_clauses(loop, frozenset())
    except PlanError:
        pytest.skip("planner refuses this loop before verification")
    compiled_v = verify_loop(loop, plan, VerifyConfig(
        compiled=True, max_steps=max_steps))
    # fresh parse: verification mutates no state, but keep paths honest
    loop2 = parse_loop(body)
    interpreted_v = verify_loop(loop2, plan_clauses(loop2, frozenset()),
                                VerifyConfig(compiled=False,
                                             max_steps=max_steps))
    assert compiled_v == interpreted_v
