"""Dynamic verification of pragma rewrites.

A rewrite is only trustworthy if the transformed loop computes the same
thing the original did.  This module checks that *dynamically*: execute
the loop sequentially with :class:`repro.tools.interp.Interpreter` over
deterministic synthesized inputs, then re-execute it under *simulated
parallel schedules* — the iteration space enumerated up front (as
OpenMP fixes it at region entry), iterations run in permuted or blocked
order across simulated threads, every clause of the
:class:`~repro.rewrite.clauses.ClausePlan` honoured with per-thread
privatized copies (poison-initialized ``private``, entry-valued
``firstprivate``, identity-seeded ``reduction`` copies combined in
thread order, ``lastprivate`` taken from the logically last iteration).
Any observable difference in post-loop memory refuses the transform.

Refusal codes are stable strings shared with the engine and the wire:

- ``divergence`` — sequential and simulated-parallel executions
  disagree on observable state (or on the executed iteration count);
- ``unsupported-construct`` — the interpreter cannot execute the loop;
- ``budget-exceeded`` — the step budget ran out;
- ``non-canonical`` — the iteration space cannot be enumerated;
- ``no-iterations`` — every run executed zero iterations, so nothing
  was verified (a zero-trip loop proves nothing about the transform).

The whole procedure is a pure function of ``(loop, plan, config)``:
fixed seeds, seeded permutations, deterministic input synthesis — so
the daemon and the in-process path produce byte-identical verdicts.

**Fast path.**  Verification cost used to be ~7× the unverified
pipeline; three structural changes close most of that gap without
moving a single observable bit:

- loop bodies execute through one function compiled by
  :func:`repro.tools.compile.compile_loop`: every simulated run calls
  it per iteration, and so does the sequential reference, whose loop
  header (init, condition, increment, ``max_trip`` cap) the
  interpreter runs — falling back to the tree-walker whenever
  compilation is unavailable (``config.compiled=False``,
  ``REPRO_NO_LOOP_COMPILE``, or an uncompilable shape);
- only observable end-state is compared, so every run executes the
  *trace-elided* body (no per-access bookkeeping); the sequential
  reference keeps exact trip and step accounting, and
  :meth:`Interpreter.run_loop` still produces full traces for the
  dependence analyses;
- input synthesis and iteration-space enumeration happen once per
  seed; every run restores a :meth:`Memory.checkpoint` instead of
  re-preparing a fresh interpreter.

``verdict_key`` fingerprints ``(loop source, plan, config,
VERIFIER_VERSION)`` for the persistent verdict cache; bump
:data:`VERIFIER_VERSION` whenever verification semantics change so
stale verdicts self-invalidate.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from repro.cfront.nodes import Stmt
from repro.rewrite.clauses import ClausePlan
from repro.tools.canonical import recognize_canonical
from repro.tools.compile import CompileUnavailable, compile_loop
from repro.tools.interp import (
    ExecutionBudgetExceeded,
    Interpreter,
    UnsupportedConstruct,
    _ContinueSignal,
)

#: bumped whenever a change alters what (or how) verification computes;
#: part of every verdict-cache key, so stale entries miss
VERIFIER_VERSION = 3

#: reduction identity per operator (the value each thread copy starts
#: from; ``-=`` accumulates negated contributions under op ``+``, so
#: the additive identity is correct for it too)
_IDENTITY = {"+": 0, "*": 1, "&": -1, "|": 0, "^": 0}

_CMP = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class VerifyConfig:
    """Budgets and schedules of one verification run.

    Defaults are CI-safe: ~10 executions of a ≤10-iteration loop.  The
    array extent deliberately exceeds ``max_trip`` so the interpreter's
    index wrap-around cannot manufacture order dependences that the
    real (unbounded) loop does not have.

    ``compiled`` toggles the compiled fast path; verdicts are
    byte-identical either way (the parity suite enforces it), so it is
    excluded from the cache fingerprint.
    """

    seeds: tuple[int, ...] = (0, 1)
    schedules: tuple[str, ...] = ("permuted", "blocked")
    threads: tuple[int, ...] = (2, 4)
    array_extent: int = 16
    max_trip: int = 10
    max_steps: int = 60_000
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    compiled: bool = True


@dataclass(frozen=True)
class Verdict:
    """The outcome of verifying one rewrite."""

    ok: bool
    code: str           # "verified" or a refusal code
    detail: str = ""

    def to_dict(self) -> dict:
        return {"ok": self.ok, "code": self.code, "detail": self.detail}


DEFAULT_CONFIG = VerifyConfig()


def config_fingerprint(config: VerifyConfig) -> str:
    """Deterministic fingerprint of every verdict-affecting knob.

    ``compiled`` is excluded: both execution paths produce identical
    verdicts, so they share cache entries.
    """
    return ";".join(
        f"{f.name}={getattr(config, f.name)!r}"
        for f in fields(config) if f.name != "compiled")


def verdict_key(loop_source: str, plan: ClausePlan,
                config: VerifyConfig) -> str:
    """Content key of one verification outcome, for the persistent
    verdict cache: loop structure (its unparsed source), the complete
    clause plan, the config fingerprint and the verifier version."""
    blob = "\n".join([
        f"verifier-v{VERIFIER_VERSION}",
        loop_source,
        repr(plan),                     # sorted tuples: deterministic
        config_fingerprint(config),
    ])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def revive_verdict(payload: object) -> Verdict | None:
    """Rebuild a cached verdict; ``None`` (a cache miss) on anything
    malformed — a torn or stale entry must never decide a rewrite."""
    if not isinstance(payload, dict):
        return None
    ok, code = payload.get("ok"), payload.get("code")
    detail = payload.get("detail", "")
    if not isinstance(ok, bool) or not isinstance(code, str) \
            or not isinstance(detail, str):
        return None
    return Verdict(ok, code, detail)


def _bump(stats: dict | None, key: str, n: int = 1) -> None:
    if stats is not None:
        stats[key] = stats.get(key, 0) + n


def _interp(config: VerifyConfig, seed: int) -> Interpreter:
    return Interpreter(max_steps=config.max_steps,
                       array_extent=config.array_extent,
                       max_trip=config.max_trip, seed=seed)


def _snapshot(memory, exclude: frozenset[str]) -> dict[str, list]:
    """Observable post-loop memory: every cell of every non-excluded
    variable, in allocation layout order."""
    out: dict[str, list] = {}
    for name, (base, shape) in memory.bases.items():
        if name in exclude:
            continue
        count = 1
        for dim in shape:
            count *= dim
        out[name] = [memory.cells[base + off].value
                     for off in range(max(count, 1))]
    return out


def _values_close(a, b, config: VerifyConfig) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=config.rel_tol,
                            abs_tol=config.abs_tol)
    return a == b


def _first_divergence(ref: dict, got: dict,
                      config: VerifyConfig) -> str | None:
    """Human-readable description of the first mismatch, or ``None``."""
    for name in sorted(set(ref) | set(got)):
        if name not in ref or name not in got:
            return f"variable {name!r} exists in only one execution"
        rv, gv = ref[name], got[name]
        if len(rv) != len(gv):
            return f"{name}: shape mismatch ({len(rv)} vs {len(gv)} cells)"
        for off, (x, y) in enumerate(zip(rv, gv)):
            if not _values_close(x, y, config):
                where = f"{name}[{off}]" if len(rv) > 1 else name
                return f"{where}: sequential {x!r} vs parallel {y!r}"
    return None


def _iteration_order(n: int, schedule: str, nthreads: int,
                     seed: int) -> tuple[list[int], list[int]]:
    """``(execution order, thread of each iteration)`` for a schedule.

    ``permuted`` runs a seeded shuffle of the whole iteration space
    with cyclic thread assignment; ``blocked`` mimics a static
    schedule — contiguous per-thread chunks executed round-robin
    across threads, so chunk-boundary neighbours run far apart in
    time.  Both are pure functions of their arguments.
    """
    if schedule == "permuted":
        import numpy as np

        rng = np.random.default_rng(1_000_003 * seed + 101 * nthreads + 17)
        order = [int(k) for k in rng.permutation(n)]
        thread_of = [k % nthreads for k in range(n)]
        return order, thread_of
    if schedule == "blocked":
        chunk = max(1, -(-n // nthreads))      # ceil division
        thread_of = [min(k // chunk, nthreads - 1) for k in range(n)]
        order = [b * chunk + j
                 for j in range(chunk)
                 for b in range(nthreads)
                 if b * chunk + j < n]
        return order, thread_of
    raise ValueError(f"unknown schedule {schedule!r}")


def _enumerate_iterations(interp: Interpreter, loop, canonical,
                          config: VerifyConfig) -> list:
    """The induction-variable values OpenMP would fix at region entry.

    Executes the loop's init clause, reads the induction variable,
    evaluates the bound and step *once*, and walks the iteration space
    — capped at ``max_trip`` exactly like the interpreter's sequential
    trace, so both executions see the same trip count.
    """
    if loop.init is not None:
        interp.exec_stmt(loop.init)
    if canonical.var not in interp.memory.bases:
        interp.memory.allocate(canonical.var)
    lower = interp.memory.read(interp.memory.address_of(canonical.var))
    upper = interp.eval(canonical.upper)
    step = canonical.step
    if step == 0:
        if canonical.step_expr is None:
            raise UnsupportedConstruct("loop step is unrecognisable")
        step = interp.eval(canonical.step_expr)
        if not isinstance(step, (int, float)) or step == 0:
            raise UnsupportedConstruct(f"loop step evaluates to {step!r}")
        ascending = canonical.cmp_op in ("<", "<=")
        if (step > 0) != ascending:
            raise UnsupportedConstruct("loop step diverges from its bound")
    cmp = _CMP[canonical.cmp_op]
    values = []
    v = lower
    while cmp(v, upper) and len(values) < config.max_trip:
        values.append(v)
        v += step
    return values, step


def _poison(thread: int) -> float:
    """Deterministic garbage a ``private`` copy starts from: if the
    body ever reads it before writing (a misclassification), the value
    flows into observable state and the divergence check refuses."""
    return -10_000_007.0 - 7.0 * thread


def _drive_loop(interp: Interpreter, loop, run_body) -> int:
    """The target loop as :meth:`Interpreter._exec_loop` runs it — the
    header (init, condition, increment, ``max_trip`` cap) through the
    interpreter, each iteration through ``run_body`` — without trace
    bookkeeping; returns the trip count.  Only canonical loops get
    here: they have a condition and an increment, and never
    ``break``."""
    trips = 0
    if loop.init is not None:
        interp.exec_stmt(loop.init)
    while interp.eval(loop.cond):
        trips += 1
        run_body(interp)
        interp.eval(loop.inc)
        if trips >= interp.max_trip:
            break
    return trips


def _run_reference(interp: Interpreter, loop, compiled, prepared,
                   stats: dict | None) -> int:
    """The sequential reference over an already-prepared interpreter;
    returns the executed trip count.  Runs the compiled body under the
    interpreter's loop header when available (end state, step
    accounting and trip count are identical; nothing reads the
    reference trace here), else — or when the body cannot run
    compiled — the tree-walker from the ``prepared`` checkpoint."""
    if compiled is not None:
        try:
            trips = _drive_loop(interp, loop, compiled.run_body)
            _bump(stats, "compiled_runs")
            return trips
        except CompileUnavailable:
            interp.memory.restore(prepared)
            interp.steps = 0
    _bump(stats, "interpreted_runs")
    interp._target_loop = loop
    interp._exec_loop(loop, traced=True)
    return interp.trace.iterations


def _simulate(interp: Interpreter, loop, plan: ClausePlan, canonical,
              values: list, step, seed: int, schedule: str,
              nthreads: int, config: VerifyConfig, compiled,
              stats: dict | None) -> tuple[dict, int]:
    """One simulated-parallel execution → (observable snapshot, trips).

    ``interp`` arrives restored to the post-enumeration checkpoint, so
    this runs exactly what a fresh prepare-and-enumerate would."""
    _bump(stats, "simulations")
    mem = interp.memory

    def addr(name: str) -> int:
        if name not in mem.bases:
            mem.allocate(name)
        return mem.address_of(name)

    var_addr = addr(canonical.var)
    lower = mem.read(var_addr)
    local = set(plan.local_decls)
    priv_names = ((set(plan.private) | set(plan.firstprivate)
                   | set(plan.lastprivate) | set(plan.reduction_vars)
                   | set(plan.inner_vars) | {canonical.var}) - local)
    addrs = {name: addr(name) for name in priv_names}
    entry = {name: mem.read(a) for name, a in addrs.items()}

    # per-thread privatized copies
    state: list[dict] = []
    reduction_ops = dict((var, op) for op, var in plan.reductions)
    for t in range(nthreads):
        copies = {}
        for name in priv_names:
            if name in plan.firstprivate:
                copies[name] = entry[name]
            elif name in reduction_ops:
                copies[name] = _IDENTITY[reduction_ops[name]]
            else:
                copies[name] = _poison(t)
        state.append(copies)

    order, thread_of = _iteration_order(len(values), schedule,
                                        nthreads, seed)
    last_idx = len(values) - 1
    last_vals: dict[str, object] = {}
    lastprivate = [n for n in plan.lastprivate if n != canonical.var]
    # the trace-elided fast path: one compiled body execution per
    # iteration, no per-access bookkeeping (only end-state is compared)
    run_body = compiled.run_body if compiled is not None else None
    for k in order:
        t = thread_of[k]
        for name, a in addrs.items():
            mem.write(a, state[t][name])
        mem.write(var_addr, values[k])
        if run_body is not None:
            try:
                run_body(interp)
            except CompileUnavailable:
                run_body = None     # state untouched; same iteration
        if run_body is None:
            try:
                interp.exec_stmt(loop.body)
            except _ContinueSignal:
                pass
        if k == last_idx and lastprivate:
            last_vals = {name: mem.read(addrs[name])
                         for name in lastprivate}
        for name, a in addrs.items():
            state[t][name] = mem.read(a)
    _bump(stats,
          "compiled_runs" if run_body is not None else "interpreted_runs")

    # region exit: originals restored, reductions combined in thread
    # order, lastprivate values from the logically last iteration
    for name, a in addrs.items():
        mem.write(a, entry[name])
    for var, op in reduction_ops.items():
        total = entry[var]
        for t in range(nthreads):
            total = Interpreter._apply(op, total, state[t][var])
        mem.write(addrs[var], total)
    for name, value in last_vals.items():
        mem.write(addrs[name], value)
    if values and canonical.var in plan.lastprivate:
        # matches the sequential loop's exit value: one increment per
        # executed iteration (the trip cap breaks after the increment)
        mem.write(var_addr, lower + len(values) * step)
    exclude = _observable_exclusions(plan, canonical.var)
    return _snapshot(mem, exclude), len(values)


def _observable_exclusions(plan: ClausePlan, var: str) -> frozenset[str]:
    """Variables whose post-loop value is not observable.

    ``private`` copies and inner induction variables are dead after
    the region (liveness put everything live-out in ``lastprivate``),
    block-scoped declarations are out of scope, and the induction
    variable is implicitly private — observable only when the plan
    carries it as ``lastprivate``.
    """
    exclude = (set(plan.private) | set(plan.inner_vars)
               | set(plan.local_decls))
    if var not in plan.lastprivate:
        exclude.add(var)
    return frozenset(exclude)


def verify_loop(loop: Stmt, plan: ClausePlan,
                config: VerifyConfig | None = None,
                stats: dict | None = None) -> Verdict:
    """Differentially verify one planned rewrite.

    Runs the loop sequentially and under every configured
    ``(seed, schedule, thread-count)`` simulated-parallel combination,
    comparing observable post-loop memory.  Returns a
    :class:`Verdict` — never raises for interpreter-level failures;
    those become stable refusal codes.

    ``stats`` (optional) accumulates fast-path counters in place:
    ``simulations``, ``compiled_runs``, ``interpreted_runs``.
    """
    config = config or DEFAULT_CONFIG
    canonical = recognize_canonical(loop)
    if canonical is None:
        return Verdict(False, "non-canonical",
                       "cannot enumerate the iteration space of a "
                       "non-canonical loop")
    compiled = compile_loop(loop) if config.compiled else None
    exclude = _observable_exclusions(plan, canonical.var)
    total_trips = 0
    runs = 0
    for seed in config.seeds:
        interp = _interp(config, seed)
        try:
            interp.prepare(loop)
            prepared = interp.memory.checkpoint()
            ref_iterations = _run_reference(interp, loop, compiled,
                                            prepared, stats)
            ref = _snapshot(interp.memory, exclude)
            interp.memory.restore(prepared)
            interp.steps = 0
            values, step = _enumerate_iterations(interp, loop,
                                                 canonical, config)
        except UnsupportedConstruct as exc:
            return Verdict(False, "unsupported-construct", str(exc))
        except ExecutionBudgetExceeded as exc:
            return Verdict(False, "budget-exceeded", str(exc))
        enumerated = interp.memory.checkpoint()
        enumerated_steps = interp.steps
        first = True
        for schedule in config.schedules:
            for nthreads in config.threads:
                if not first:
                    interp.memory.restore(enumerated)
                    interp.steps = enumerated_steps
                first = False
                try:
                    got, trips = _simulate(interp, loop, plan,
                                           canonical, values, step,
                                           seed, schedule, nthreads,
                                           config, compiled, stats)
                except UnsupportedConstruct as exc:
                    return Verdict(False, "unsupported-construct",
                                   str(exc))
                except ExecutionBudgetExceeded as exc:
                    return Verdict(False, "budget-exceeded", str(exc))
                runs += 1
                total_trips += trips
                if trips != ref_iterations:
                    return Verdict(
                        False, "divergence",
                        f"sequential execution ran "
                        f"{ref_iterations} iterations but the "
                        f"enumerated schedule has {trips} (seed "
                        f"{seed}): the iteration space is not fixed "
                        f"at region entry")
                diff = _first_divergence(ref, got, config)
                if diff is not None:
                    return Verdict(
                        False, "divergence",
                        f"{diff} ({schedule} schedule, {nthreads} "
                        f"threads, seed {seed})")
    if total_trips == 0:
        return Verdict(False, "no-iterations",
                       "every run executed zero iterations; nothing "
                       "was verified")
    return Verdict(True, "verified",
                   f"{runs} simulated-parallel executions matched the "
                   f"sequential reference")
