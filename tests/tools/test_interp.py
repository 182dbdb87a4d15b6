"""Tests for the mini C interpreter."""

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cfront import parse_loop
from repro.dataset.recipes import RecipeGenerator
from repro.tools.interp import (
    ExecutionBudgetExceeded,
    Interpreter,
    UnsupportedConstruct,
)


def run(src, **kwargs):
    interp = Interpreter(**kwargs)
    loop = parse_loop(src)
    trace = interp.run_loop(loop)
    return interp, trace


class TestExecution:
    def test_simple_loop_runs_all_iterations(self):
        interp, trace = run("for (i = 0; i < 5; i++) a[i] = i;")
        assert trace.iterations == 5
        base, _ = interp.memory.bases["a"]
        assert [interp.memory.read(base + k) for k in range(5)] == [0, 1, 2, 3, 4]

    def test_literal_bound_capped_at_max_trip(self):
        _, trace = run("for (i = 0; i < 30000000; i++) s += i;", max_trip=8)
        assert trace.iterations == 8

    def test_symbolic_bound_bound_to_max_trip(self):
        _, trace = run("for (i = 0; i < n; i++) s += i;", max_trip=6)
        assert trace.iterations == 6

    def test_reduction_value_correct(self):
        interp, trace = run("for (i = 0; i < 5; i++) s = s + i;")
        base, _ = interp.memory.bases["s"]
        # s starts at its synthesized value; the loop adds 0+1+2+3+4 = 10
        assert trace.iterations == 5

    def test_while_loop(self):
        interp, trace = run("while (k < 3) k++;")
        assert trace.iterations >= 1

    def test_do_while(self):
        _, trace = run("do x--; while (x > 0);")
        assert trace.iterations >= 1

    def test_nested_loop_inner_not_traced(self):
        _, trace = run(
            "for (i = 0; i < 3; i++) for (j = 0; j < 3; j++) a[i][j] = 0;"
        )
        # Only outer-loop iterations are traced.
        assert trace.iterations == 3

    def test_if_else_branches(self):
        interp, trace = run(
            "for (i = 0; i < 4; i++) { if (i % 2 == 0) a[i] = 1; else a[i] = 2; }"
        )
        base, _ = interp.memory.bases["a"]
        assert [interp.memory.read(base + k) for k in range(4)] == [1, 2, 1, 2]

    def test_break_stops_loop(self):
        _, trace = run("for (i = 0; i < 10; i++) { if (i == 2) break; a[i] = i; }")
        assert trace.iterations == 3

    def test_continue_skips(self):
        interp, _ = run(
            "for (i = 0; i < 4; i++) { if (i == 1) continue; a[i] = 9; }"
        )
        base, _ = interp.memory.bases["a"]
        assert interp.memory.read(base + 1) != 9

    def test_math_whitelist(self):
        interp, _ = run("for (i = 0; i < 3; i++) b[i] = fabs(a[i]);")
        base, _ = interp.memory.bases["b"]
        assert all(interp.memory.read(base + k) >= 0 for k in range(3))

    def test_ternary(self):
        interp, _ = run("for (i = 0; i < 3; i++) a[i] = i > 1 ? 5 : 7;")
        base, _ = interp.memory.bases["a"]
        assert interp.memory.read(base + 0) == 7
        assert interp.memory.read(base + 2) == 5

    def test_local_array_decl(self):
        _, trace = run("for (i = 0; i < 3; i++) { int t[4]; t[0] = i; }")
        assert trace.iterations == 3


class TestTracing:
    def test_events_tag_iterations(self):
        _, trace = run("for (i = 0; i < 3; i++) a[i] = b[i];")
        iters = {e.iteration for e in trace.events}
        assert iters == {0, 1, 2}

    def test_reads_and_writes_distinguished(self):
        _, trace = run("for (i = 0; i < 3; i++) a[i] = b[i];")
        a_events = [e for e in trace.events if e.base == "a"]
        b_events = [e for e in trace.events if e.base == "b"]
        assert all(e.is_write for e in a_events)
        assert all(not e.is_write for e in b_events)

    def test_distinct_cells_distinct_addresses(self):
        _, trace = run("for (i = 0; i < 4; i++) a[i] = 0;")
        addrs = {e.address for e in trace.events if e.base == "a"}
        assert len(addrs) == 4

    def test_same_cell_same_address(self):
        _, trace = run("for (i = 0; i < 4; i++) s += a[i];")
        s_addrs = {e.address for e in trace.events if e.base == "s"}
        assert len(s_addrs) == 1

    def test_scalar_bases_recorded(self):
        _, trace = run("for (i = 0; i < 3; i++) s += a[i];")
        assert "s" in trace.scalar_bases
        assert "a" not in trace.scalar_bases


class TestUnsupported:
    @pytest.mark.parametrize("src", [
        "for (i = 0; i < n; i++) a[i] = mystery(i);",      # unknown call
        "for (i = 0; i < n; i++) *p = i;",                  # pointer deref
        "for (i = 0; i < n; i++) s += p->v;",               # member access
        "for (i = 0; i < n; i++) { goto done; }\ndone: ;",  # goto
    ])
    def test_raises_unsupported(self, src):
        with pytest.raises(UnsupportedConstruct):
            run(src)

    def test_budget_exceeded(self):
        with pytest.raises(ExecutionBudgetExceeded):
            run("for (i = 0; i < 5; i++) while (1) x++;", max_steps=2000)


#: ``prepare()``'s synthesized memory per (recipe category, recipe
#: seed): one digest for interpreter seed 0 and one for seed 1,
#: recorded before array filling became one vector draw per array
PREPARED_DIGESTS = {
    ("reduction", 0): ("70d4f2ab3a1ab5f0", "5e3958c7eb823374"),
    ("reduction", 1): ("1d356441eb7ac452", "9e1e0ab90b81ce49"),
    ("reduction", 2): ("7893966ea5fbf177", "505bb6e3cf0d98d5"),
    ("private", 0): ("b443c32548e07132", "3e30d5ff67449635"),
    ("private", 1): ("1f1883f7f9b33230", "51f6d56abbea61d6"),
    ("private", 2): ("518c79a237cad542", "9a739d9373cae2b9"),
    ("simd", 0): ("aa0b644787b3ec45", "c040c6f06c29090a"),
    ("simd", 1): ("e1e6452c96cafb1f", "50bef27118431313"),
    ("simd", 2): ("0677ab2242dd3c71", "4a7af0564cd9de2f"),
    ("parallel", 0): ("72508938ad0a8d84", "6f7e56d47bbd106c"),
    ("parallel", 1): ("f9cafc339d801a46", "0d05dcf68dc39bc6"),
    ("parallel", 2): ("6ad0b96dc3f43379", "79af6a3feec6f3c6"),
    ("target", 0): ("c1a5dc3c4a0bd09b", "f444017c78741201"),
    ("target", 1): ("f9317d7b8ab03ab6", "ed6c390e903bd4d4"),
    ("target", 2): ("83559b72b48f1aac", "ac4acb593ac9a2b7"),
    (None, 0): ("9a3b3ed9704531d6", "d538b7e3b7790504"),
    (None, 1): ("fb21a73637f61253", "684819459c19ece6"),
    (None, 2): ("6ecd2b1f54efd36c", "477c6a97c4e60bce"),
}


def _prepared_digest(loop, seed: int) -> str:
    """Every array's cells in allocation order, plus the scalars' names
    and their values as a multiset."""
    interp = Interpreter(max_steps=60_000, array_extent=16, max_trip=10,
                         seed=seed)
    interp.prepare(loop)
    mem = interp.memory
    arrays = [(name, shape, [mem.cells[base + off].value
                             for off in range(math.prod(shape))])
              for name, (base, shape) in mem.bases.items() if shape]
    scalars = {name: mem.cells[base].value
               for name, (base, shape) in mem.bases.items() if not shape}
    blob = repr((arrays, sorted(scalars), sorted(scalars.values())))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("category,recipe_seed", sorted(
    PREPARED_DIGESTS, key=repr))
def test_prepared_memory_is_pinned(category, recipe_seed):
    """The verifier's inputs never move: the same cells get the same
    draws from the seeded stream (any change would re-decide cached
    verdicts without a ``VERIFIER_VERSION`` bump)."""
    loop = parse_loop(RecipeGenerator(seed=recipe_seed)
                      .generate(category).body)
    got = tuple(_prepared_digest(loop, seed) for seed in (0, 1))
    assert got == PREPARED_DIGESTS[(category, recipe_seed)]


_SCALARS_SCRIPT = textwrap.dedent("""
    import json
    from repro.cfront import parse_loop
    from repro.tools.interp import Interpreter

    interp = Interpreter(seed=0)
    interp.prepare(parse_loop(
        "for (i = 0; i < n; i++) a[i] = x * b[i] + y * c[i] + z;"))
    mem = interp.memory
    print(json.dumps({name: mem.cells[base].value
                      for name, (base, shape) in mem.bases.items()
                      if not shape}))
""")


def test_prepared_scalars_ignore_the_hash_seed():
    """A shard worker, a daemon peer and the coordinator draw the same
    scalar inputs: allocation follows names, not string hashes."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    maps = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=src + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run([sys.executable, "-c", _SCALARS_SCRIPT],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        maps.append(json.loads(out))
    assert maps[0] == maps[1]
