"""Loop recipes: the generative grammar behind the GitHub-like corpus.

Every recipe emits a loop snippet plus (for parallel loops) the OpenMP
pragma a developer would write.  Recipes are grouped by OMP_Serial
category; :data:`CATEGORY_PROFILES` carries the per-category rates from
the paper's Table 1 (function-call rate, nested-loop rate, target LOC)
that the corpus generator samples against.

The generator guarantees label correctness by construction: parallel
recipes produce loops with no loop-carried dependence (reductions /
privatization aside), and non-parallel recipes produce genuinely
sequential loops (recurrences, same-cell writes, impure calls, ...).
Tests cross-check a sample of recipes against the dependence analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Table 1 rates: (call_rate, nested_rate, loc_target)
CATEGORY_PROFILES: dict[str, tuple[float, float, float]] = {
    "reduction": (279 / 3705, 887 / 3705, 6.35),
    "private": (680 / 6278, 2589 / 6278, 8.51),
    "simd": (42 / 3574, 201 / 3574, 2.65),
    "target": (99 / 2155, 191 / 2155, 3.04),
    "parallel": (0.08, 0.20, 4.5),          # plain parallel-for (not in Table 1)
    None: (3043 / 13972, 5931 / 13972, 8.59),  # non-parallel
}

#: Identifier pools; mixed-realism names like crawled code has.
_INDEX_NAMES = ["i", "j", "k", "idx", "n", "ii", "jj", "pos"]
_ARRAY_NAMES = ["a", "b", "c", "data", "buf", "vec", "arr", "out", "in_",
                "src", "dst", "tmp_arr", "values", "weights", "grid", "img"]
_SCALAR_NAMES = ["sum", "total", "acc", "prod", "res", "t", "tmp", "val",
                 "x", "y", "s", "count", "err", "delta", "scale"]
_BOUND_NAMES = ["n", "m", "size", "len", "N", "M", "count_", "limit", "dim"]
_PURE_CALLS = ["fabs", "sqrt", "sin", "cos", "exp", "log"]
_IMPURE_CALLS = ["process", "update_state", "emit", "handle", "push_item",
                 "log_value", "store_result"]


@dataclass
class LoopRecipe:
    """A generated loop with its ground-truth annotation."""

    body: str                  # loop source, no pragma line
    pragma: str | None         # full pragma text ("#pragma omp ...") or None
    category: str | None       # OMP_Serial category; None = non-parallel
    parallel: bool = False
    has_call: bool = False
    nested: bool = False

    @property
    def full_source(self) -> str:
        if self.pragma:
            return f"{self.pragma}\n{self.body}"
        return self.body


class _Names:
    """Per-loop fresh-name dealer (no collisions inside one loop)."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.used: set[str] = set()

    def pick(self, pool: list[str]) -> str:
        candidates = [p for p in pool if p not in self.used]
        if not candidates:
            base = str(self.rng.choice(pool))
            name = f"{base}{int(self.rng.integers(2, 99))}"
            while name in self.used:
                name = f"{base}{int(self.rng.integers(2, 999))}"
        else:
            name = str(self.rng.choice(candidates))
        self.used.add(name)
        return name

    def index(self) -> str:
        return self.pick(_INDEX_NAMES)

    def array(self) -> str:
        return self.pick(_ARRAY_NAMES)

    def scalar(self) -> str:
        return self.pick(_SCALAR_NAMES)

    def bound(self) -> str:
        return self.pick(_BOUND_NAMES)


class RecipeGenerator:
    """Samples loop recipes per category, matching Table 1 profiles."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = np.random.default_rng(seed)

    # -- public API -----------------------------------------------------------

    def generate(self, category: str | None) -> LoopRecipe:
        """One loop of the given category with profile-sampled traits."""
        if category not in CATEGORY_PROFILES:
            raise ValueError(f"unknown category {category!r}")
        call_rate, nested_rate, _ = CATEGORY_PROFILES[category]
        with_call = bool(self.rng.random() < call_rate)
        nested = bool(self.rng.random() < nested_rate)
        names = _Names(self.rng)
        if category == "reduction":
            return self._reduction(names, with_call, nested)
        if category == "private":
            return self._private(names, with_call, nested)
        if category == "simd":
            return self._simd(names, with_call, nested)
        if category == "target":
            return self._target(names, with_call, nested)
        if category == "parallel":
            return self._plain_parallel(names, with_call, nested)
        if category is None:
            return self._non_parallel(names, with_call, nested)
        raise ValueError(f"unknown category {category!r}")

    # -- shared snippets ----------------------------------------------------------

    def _bound(self, names: _Names) -> str:
        if self.rng.random() < 0.35:
            return str(int(self.rng.choice([64, 100, 128, 256, 1000, 1024, 4096])))
        return names.bound()

    def _const(self) -> str:
        return str(int(self.rng.integers(1, 10)))

    def _filler(self, names: _Names, i: str, count: int) -> list[str]:
        """Independent elementwise statements to pad body LOC."""
        lines = []
        for _ in range(count):
            dst, src = names.array(), names.array()
            op = str(self.rng.choice(["+", "-", "*"]))
            lines.append(f"{dst}[{i}] = {src}[{i}] {op} {self._const()};")
        return lines

    def _pad_around(self, core: list[str], filler: list[str]) -> list[str]:
        """Place filler before/after the core pattern, never inside it.

        The core statements stay adjacent — adjacency is what CFG and
        lexical edges encode, so the order-sensitive signal survives a
        2-layer receptive field — while the pattern's *absolute position*
        shifts with the prefix length, defeating clipped tree-position
        heuristics on longer bodies.
        """
        cut = int(self.rng.integers(0, len(filler) + 1))
        return filler[:cut] + list(core) + filler[cut:]

    def _nest_stmt(self, stmt: str, i: str, j: str) -> str:
        """2-D version of an elementwise statement, possibly 'messy'.

        Crawled nests are rarely textbook-affine; a share gets either a
        guard (``if`` — outside classic Pluto's SCoPs) or a coupled
        subscript (defeats the separable dependence tests of source-level
        parallelizers like autoPar).  Both stay genuinely parallel.
        """
        roll = self.rng.random()
        if roll < 0.25:
            inner = stmt.replace(f"[{i}]", f"[{i}][{j}]")
            return f"if ({j} > 1) {inner}"
        if roll < 0.50:
            return stmt.replace(f"[{i}]", f"[{i}][{j} + {i}]")
        return stmt.replace(f"[{i}]", f"[{i}][{j}]")

    # -- reduction recipes -----------------------------------------------------------

    def _reduction(self, names: _Names, with_call: bool,
                   nested: bool) -> LoopRecipe:
        i, s, arr = names.index(), names.scalar(), names.array()
        bound = self._bound(names)
        op = str(self.rng.choice(["+", "+", "+", "*"]))
        variant = int(self.rng.integers(0, 4))
        if with_call:
            fn = str(self.rng.choice(_PURE_CALLS))
            update = f"{s} {op}= {fn}({arr}[{i}]);"
        elif variant == 0:
            update = f"{s} {op}= {arr}[{i}];"
        elif variant == 1:
            arr2 = names.array()
            update = f"{s} = {s} {op} {arr}[{i}] * {arr2}[{i}];"
        elif variant == 2:
            arr2 = names.array()
            update = f"{s} {op}= {arr}[{i}] - {arr2}[{i}];"
        else:
            update = f"{s} = {arr}[{i}] {op} {s};" if op in ("+", "*") \
                else f"{s} {op}= {arr}[{i}];"
        omp_op = op
        pragma = f"#pragma omp parallel for reduction({omp_op}:{s})"
        if nested:
            j = names.index()
            inner_bound = self._bound(names)
            body = (
                f"for ({i} = 0; {i} < {bound}; {i}++) {{\n"
                f"    for (int {j} = 0; {j} < {inner_bound}; {j}++) {{\n"
                f"        {update.replace(f'[{i}]', f'[{i}][{j}]')}\n"
                f"    }}\n"
                f"}}"
            )
        else:
            extra = self._filler(names, i, int(self.rng.integers(0, 3)))
            lines = [update] + extra
            self.rng.shuffle(lines)
            inner = "\n".join(f"    {ln}" for ln in lines)
            body = f"for ({i} = 0; {i} < {bound}; {i}++) {{\n{inner}\n}}"
        return LoopRecipe(body=body, pragma=pragma, category="reduction",
                          parallel=True, has_call=with_call, nested=nested)

    # -- order-sensitive temp patterns -------------------------------------------

    def _temp_pattern(self, names: _Names, i: str, flipped: bool,
                      with_call: bool) -> tuple[list[str], list[str]]:
        """Scalar-temp statement group whose *order* decides the label.

        ``flipped=False``: write-then-use — the temp is privatizable and
        the loop is parallel.  ``flipped=True``: use-then-write — every
        iteration reads the previous iteration's value: loop-carried.
        Both orders produce the same multiset of nodes, so only order-
        aware representations (CFG edges, lexical chains, token
        positions) can separate them — the separation mechanism the
        paper attributes to the aug-AST.

        Returns ``(lines, private_vars)``.
        """
        t = names.scalar()
        a, b = names.array(), names.array()
        if with_call:
            fn = str(self.rng.choice(_PURE_CALLS))
            write = f"{t} = {fn}({a}[{i}]);"
        else:
            write = f"{t} = {a}[{i}] * {self._const()};"
        use = f"{b}[{i}] = {t} + {self._const()};"
        shape = int(self.rng.integers(0, 2))
        if shape == 1:
            u = names.scalar()
            chain = f"{u} = {t} - {a}[{i}];"
            use2 = f"{b}[{i}] = {u} + {self._const()};"
            lines = [chain, use2, write] if flipped else [write, chain, use2]
            return lines, [t, u]
        lines = [use, write] if flipped else [write, use]
        return lines, [t]

    # -- private recipes ------------------------------------------------------------

    def _private(self, names: _Names, with_call: bool,
                 nested: bool) -> LoopRecipe:
        i, t = names.index(), names.scalar()
        a, b = names.array(), names.array()
        bound = self._bound(names)
        if with_call:
            fn = str(self.rng.choice(_PURE_CALLS))
            first = f"{t} = {fn}({a}[{i}]);"
        else:
            first = f"{t} = {a}[{i}] * {self._const()};"
        use = f"{b}[{i}] = {t} + {t} * {self._const()};"
        if nested:
            j = names.index()
            c = names.array()
            inner_bound = self._bound(names)
            lines = [
                f"for ({i} = 0; {i} < {bound}; {i}++) {{",
                f"    {first}",
                f"    for (int {j} = 0; {j} < {inner_bound}; {j}++) {{",
                f"        {c}[{i}][{j}] = {t} * {a}[{i}] + {j};",
                f"    }}",
                f"    {b}[{i}] = {t};",
                f"}}",
            ]
            body = "\n".join(lines)
            pragma = f"#pragma omp parallel for private({t})"
        elif self.rng.random() < 0.70:
            # Order-sensitive write-then-use pattern (mirrored by the
            # non-parallel use-then-write twin).
            lines, privates = self._temp_pattern(names, i, flipped=False,
                                                 with_call=with_call)
            # Long bodies are common in crawled code; they exceed the
            # token model's input cap and push the pattern past the
            # bounded tree-position range, while CFG/lexical adjacency
            # keeps the order visible to the aug-AST.
            n_fill = int(self.rng.integers(8, 15)) \
                if self.rng.random() < 0.30 else int(self.rng.integers(2, 7))
            lines = self._pad_around(lines, self._filler(names, i, n_fill))
            inner = "\n".join(f"    {ln}" for ln in lines)
            body = f"for ({i} = 0; {i} < {bound}; {i}++) {{\n{inner}\n}}"
            pragma = f"#pragma omp parallel for private({', '.join(privates)})"
        else:
            extra_scalars = int(self.rng.integers(0, 2))
            lines = [first]
            privates = [t]
            for _ in range(extra_scalars):
                t2 = names.scalar()
                privates.append(t2)
                lines.append(f"{t2} = {t} - {a}[{i}];")
                lines.append(f"{b}[{i}] = {b}[{i}] + {t2};")
            lines.append(use)
            lines.extend(self._filler(names, i, int(self.rng.integers(0, 3))))
            inner = "\n".join(f"    {ln}" for ln in lines)
            body = f"for ({i} = 0; {i} < {bound}; {i}++) {{\n{inner}\n}}"
            pragma = f"#pragma omp parallel for private({', '.join(privates)})"
        return LoopRecipe(body=body, pragma=pragma, category="private",
                          parallel=True, has_call=with_call, nested=nested)

    # -- simd recipes ------------------------------------------------------------------

    def _simd(self, names: _Names, with_call: bool, nested: bool) -> LoopRecipe:
        i = names.index()
        a, b = names.array(), names.array()
        bound = self._bound(names)
        variant = int(self.rng.integers(0, 4))
        if with_call:
            fn = str(self.rng.choice(_PURE_CALLS))
            stmt = f"{a}[{i}] = {fn}({b}[{i}]);"
        elif variant == 0:
            c = names.array()
            stmt = f"{a}[{i}] = {b}[{i}] + {c}[{i}];"
        elif variant == 1:
            stmt = f"{a}[{i}] = {b}[{i}] * {self._const()};"
        elif variant == 2:
            c, d = names.array(), names.array()
            stmt = f"{a}[{i}] = {b}[{i}] * {c}[{i}] + {d}[{i}];"
        else:
            stmt = f"{a}[{i}] += {b}[{i}];"
        if nested:
            j = names.index()
            body = (
                f"for ({i} = 0; {i} < {bound}; {i}++)\n"
                f"    for (int {j} = 0; {j} < {self._bound(names)}; {j}++)\n"
                f"        {self._nest_stmt(stmt, i, j)}"
            )
        else:
            body = f"for ({i} = 0; {i} < {bound}; {i}++)\n    {stmt}"
        directive = str(self.rng.choice(
            ["#pragma omp simd", "#pragma omp parallel for simd"]
        ))
        return LoopRecipe(body=body, pragma=directive, category="simd",
                          parallel=True, has_call=with_call, nested=nested)

    # -- target recipes -------------------------------------------------------

    def _target(self, names: _Names, with_call: bool, nested: bool) -> LoopRecipe:
        i = names.index()
        a, b = names.array(), names.array()
        bound = self._bound(names)
        if with_call:
            fn = str(self.rng.choice(_PURE_CALLS))
            stmt = f"{a}[{i}] = {fn}({b}[{i}]) * {self._const()};"
        else:
            c = names.array()
            stmt = f"{a}[{i}] = {b}[{i}] * {c}[{i}];"
        if nested:
            j = names.index()
            body = (
                f"for ({i} = 0; {i} < {bound}; {i}++)\n"
                f"    for (int {j} = 0; {j} < {self._bound(names)}; {j}++)\n"
                f"        {self._nest_stmt(stmt, i, j)}"
            )
        else:
            body = f"for ({i} = 0; {i} < {bound}; {i}++)\n    {stmt}"
        pragma = str(self.rng.choice([
            f"#pragma omp target teams distribute parallel for "
            f"map(to: {b}) map(from: {a})",
            "#pragma omp target parallel for",
            "#pragma omp target teams distribute parallel for",
        ]))
        return LoopRecipe(body=body, pragma=pragma, category="target",
                          parallel=True, has_call=with_call, nested=nested)

    # -- plain parallel-for recipes -------------------------------------------

    def _plain_parallel(self, names: _Names, with_call: bool,
                        nested: bool) -> LoopRecipe:
        i = names.index()
        a = names.array()
        bound = self._bound(names)
        variant = int(self.rng.integers(0, 7))
        if with_call:
            fn = str(self.rng.choice(_PURE_CALLS))
            stmt = f"{a}[{i}] = {fn}({names.array()}[{i}]);"
        elif variant == 0:
            stmt = f"{a}[{i}] = 0;"
        elif variant == 1:
            stmt = f"{a}[{i}] = {names.array()}[{i}];"
        elif variant == 2:
            stmt = f"{a}[{i}] = {i} * {self._const()};"
        elif variant == 3:
            b = names.array()
            stmt = f"{a}[{i}] = {b}[{i}] > 0 ? {b}[{i}] : -{b}[{i}];"
        elif variant == 4:
            # Hard positive: same-index read-modify-write.  Token models
            # confuse this with a[i] = a[i-1] recurrences; the subscript
            # structure says it is iteration-local.
            b = names.array()
            stmt = f"{a}[{i}] = {a}[{i}] * {self._const()} + {b}[{i}];"
        elif variant == 5:
            # Hard positive: stride-2 write next to a stride-2 read with
            # odd offset — provably disjoint cells.
            stmt = f"{a}[2*{i}] = {a}[2*{i}+1] + {self._const()};"
        else:
            # Hard positive: write window shifted by a loop-invariant
            # symbol; reads come from a different array.
            b = names.array()
            off = names.bound()
            stmt = f"{a}[{i} + {off}] = {b}[{i}];"
        if nested:
            j = names.index()
            body = (
                f"for ({i} = 0; {i} < {bound}; {i}++)\n"
                f"    for (int {j} = 0; {j} < {self._bound(names)}; {j}++)\n"
                f"        {self._nest_stmt(stmt, i, j)}"
            )
        else:
            extra = self._filler(names, i, int(self.rng.integers(0, 2)))
            if extra:
                inner = "\n".join(f"    {ln}" for ln in [stmt] + extra)
                body = f"for ({i} = 0; {i} < {bound}; {i}++) {{\n{inner}\n}}"
            else:
                body = f"for ({i} = 0; {i} < {bound}; {i}++)\n    {stmt}"
        pragma = str(self.rng.choice(
            ["#pragma omp parallel for", "#pragma omp for",
             "#pragma omp parallel for schedule(static)"]
        ))
        return LoopRecipe(body=body, pragma=pragma, category="parallel",
                          parallel=True, has_call=with_call, nested=nested)

    # -- ambiguous (tool-resistant) parallel recipes --------------------------

    def generate_ambiguous(self, with_pragma: bool) -> LoopRecipe:
        """A genuinely parallel loop every algorithm-based tool misses.

        These model the context-dependent annotation behaviour of real
        developers: the same pattern appears in the crawl both with a
        pragma (labelled parallel) and without (labelled non-parallel,
        though legally parallelisable).  Section 6.4 of the paper makes
        exactly this point about Graph2Par's "false positives".  Tools
        stay at zero false positives because none of these patterns is
        within their power: multi-statement reductions, conditional
        reductions, reductions through calls, and nested variants.
        """
        names = _Names(self.rng)
        i, s, arr = names.index(), names.scalar(), names.array()
        bound = self._bound(names)
        variant = int(self.rng.integers(0, 5))
        nested = False
        has_call = False
        if variant == 0:
            # Multi-statement reduction (Listing 4 family).
            c1, c2 = self._const(), self._const()
            lines = [f"{s} += {arr}[{i}] * {c1};", f"{s} = {s} + {c2};"]
            body = "for ({i} = 0; {i} < {b}; {i}++) {{\n{inner}\n}}".format(
                i=i, b=bound, inner="\n".join(f"    {ln}" for ln in lines))
        elif variant == 1:
            # Conditional reduction: valid OpenMP, invisible to the
            # pattern tables of autoPar/DiscoPoP, non-SCoP for Pluto.
            body = (
                f"for ({i} = 0; {i} < {bound}; {i}++) {{\n"
                f"    if ({arr}[{i}] > 0) {{\n"
                f"        {s} += {arr}[{i}];\n"
                f"    }}\n"
                f"}}"
            )
        elif variant == 2:
            # Reduction through a pure library call (Listing 1 family).
            fn = str(self.rng.choice(_PURE_CALLS))
            arr2 = names.array()
            body = (
                f"for ({i} = 0; {i} < {bound}; {i}++)\n"
                f"    {s} = {s} + {fn}({arr}[{i}] - {arr2}[{i}]);"
            )
            has_call = True
        elif variant == 3:
            # Nested multi-statement reduction.
            j = names.index()
            c = self._const()
            body = (
                f"for ({i} = 0; {i} < {bound}; {i}++) {{\n"
                f"    for (int {j} = 0; {j} < {self._bound(names)}; {j}++) {{\n"
                f"        {s} += {arr}[{i}][{j}];\n"
                f"        {s} = {s} + {c};\n"
                f"    }}\n"
                f"}}"
            )
            nested = True
        else:
            # Conditional reduction over a difference, with filler.
            arr2 = names.array()
            filler = self._filler(names, i, int(self.rng.integers(1, 3)))
            lines = [
                f"if ({arr}[{i}] > {arr2}[{i}]) {{",
                f"    {s} += {arr}[{i}] - {arr2}[{i}];",
                f"}}",
            ] + filler
            body = "for ({i} = 0; {i} < {b}; {i}++) {{\n{inner}\n}}".format(
                i=i, b=bound, inner="\n".join(f"    {ln}" for ln in lines))
        pragma = f"#pragma omp parallel for reduction(+:{s})" if with_pragma \
            else None
        return LoopRecipe(
            body=body, pragma=pragma,
            category="reduction" if with_pragma else None,
            parallel=with_pragma, has_call=has_call, nested=nested,
        )

    # -- non-parallel recipes -------------------------------------------------

    def _non_parallel(self, names: _Names, with_call: bool,
                      nested: bool) -> LoopRecipe:
        i = names.index()
        a, b = names.array(), names.array()
        bound = self._bound(names)
        if nested:
            j = names.index()
            if self.rng.random() < 0.40:
                # Nested mirror twin of the nested-private pattern: the
                # inner loop consumes the temp BEFORE this iteration
                # writes it — the value crosses outer iterations.  Same
                # node multiset as the parallel form; only order (CFG /
                # token position) separates them.
                t = names.scalar()
                c = names.array()
                body = (
                    f"for ({i} = 0; {i} < {bound}; {i}++) {{\n"
                    f"    for (int {j} = 0; {j} < {self._bound(names)}; {j}++) {{\n"
                    f"        {c}[{i}][{j}] = {t} * {a}[{i}] + {j};\n"
                    f"    }}\n"
                    f"    {t} = {a}[{i}] * {self._const()};\n"
                    f"    {b}[{i}] = {t};\n"
                    f"}}"
                )
                return LoopRecipe(body=body, pragma=None, category=None,
                                  parallel=False, has_call=False, nested=True)
            variant = int(self.rng.integers(0, 3))
            call_line = ""
            if with_call:
                fn = str(self.rng.choice(_IMPURE_CALLS))
                call_line = f"        {fn}(&{b}[{i}][{j}], {i});\n"
            if variant == 0:
                # Cross-outer-iteration dependence in a nest.
                inner = (
                    f"        {a}[{i}][{j}] = {a}[{i}-1][{j}] + {b}[{i}][{j}];\n"
                )
                body = (
                    f"for ({i} = 1; {i} < {bound}; {i}++) {{\n"
                    f"    for (int {j} = 0; {j} < {self._bound(names)}; {j}++) {{\n"
                    f"{call_line}{inner}"
                    f"    }}\n"
                    f"}}"
                )
            elif variant == 1:
                # Wavefront-style diagonal dependence.
                inner = (
                    f"        {a}[{i}][{j}] = {a}[{i}][{j}-1] + {a}[{i}-1][{j}];\n"
                )
                body = (
                    f"for ({i} = 1; {i} < {bound}; {i}++) {{\n"
                    f"    for (int {j} = 1; {j} < {self._bound(names)}; {j}++) {{\n"
                    f"{call_line}{inner}"
                    f"    }}\n"
                    f"}}"
                )
            else:
                s = names.scalar()
                # Sequential accumulation threaded through the nest.
                inner = (
                    f"        {s} = {s} * {a}[{i}][{j}] + {b}[{i}][{j}];\n"
                )
                body = (
                    f"for ({i} = 0; {i} < {bound}; {i}++) {{\n"
                    f"    for (int {j} = 0; {j} < {self._bound(names)}; {j}++) {{\n"
                    f"{call_line}{inner}"
                    f"    }}\n"
                    f"    {b}[{i}][0] = {b}[{i}][0] + 1;\n"
                    f"}}"
                )
            return LoopRecipe(body=body, pragma=None, category=None,
                              parallel=False, has_call=with_call, nested=True)
        if with_call:
            variant = int(self.rng.integers(0, 3))
            fn = str(self.rng.choice(_IMPURE_CALLS))
            if variant == 0:
                body = (
                    f"for ({i} = 0; {i} < {bound}; {i}++) {{\n"
                    f"    {fn}(&{a}[{i}], {i});\n"
                    f"    {a}[{i}] = {a}[{i}] + {b}[{i}];\n"
                    f"}}"
                )
            elif variant == 1:
                body = (
                    f"for ({i} = 0; {i} < {bound}; {i}++)\n"
                    f'    printf("%d %f\\n", {i}, {a}[{i}]);'
                )
            else:
                s = names.scalar()
                body = (
                    f"for ({i} = 0; {i} < {bound}; {i}++) {{\n"
                    f"    {s} = {fn}(&{s});\n"
                    f"    {a}[{i}] = {s};\n"
                    f"}}"
                )
            return LoopRecipe(body=body, pragma=None, category=None,
                              parallel=False, has_call=True, nested=False)
        if self.rng.random() < 0.38:
            # Mirror twin of the private pattern: use-then-write.
            lines, _ = self._temp_pattern(names, i, flipped=True,
                                          with_call=False)
            n_fill = int(self.rng.integers(8, 15)) \
                if self.rng.random() < 0.30 else int(self.rng.integers(2, 7))
            lines = self._pad_around(lines, self._filler(names, i, n_fill))
            inner = "\n".join(f"    {ln}" for ln in lines)
            body = f"for ({i} = 0; {i} < {bound}; {i}++) {{\n{inner}\n}}"
            return LoopRecipe(body=body, pragma=None, category=None,
                              parallel=False, has_call=False, nested=False)
        variant = int(self.rng.integers(0, 9))
        filler = self._filler(names, i, int(self.rng.integers(2, 6)))
        if variant == 0:
            core = [f"{a}[{i}] = {a}[{i}-1] + {b}[{i}];"]
            start = 1
        elif variant == 1:
            core = [f"{a}[{i}] = {a}[{i}-1] + {a}[{i}-2];"]
            start = 2
        elif variant == 2:
            s = names.scalar()
            core = [f"{s} = {s} * {a}[{i}] + {b}[{i}];",
                    f"{b}[{i}] = {s} + {self._const()};"]
            start = 0
        elif variant == 3:
            core = [f"{a}[0] = {a}[0] > {b}[{i}] ? {a}[0] - 1 : {b}[{i}];"]
            start = 0
        elif variant == 4:
            s = names.scalar()
            body = (
                f"while ({s} > 1) {{\n"
                f"    {s} = {s} / 2;\n"
                f"    {a}[{s}] = {s};\n"
                f"}}"
            )
            return LoopRecipe(body=body, pragma=None, category=None,
                              parallel=False, has_call=False, nested=False)
        elif variant == 5:
            # Hard negative: reduction-looking update whose value escapes
            # into the output stream each iteration.
            s = names.scalar()
            core = [f"{s} = {s} - {a}[{i}];", f"{b}[{i}] = {s};"]
            start = 0
        elif variant == 6:
            # Hard negative: write shifted by +1 against a same-array
            # read — overlapping windows, loop-carried.
            core = [f"{a}[{i}+1] = {a}[{i}] * {self._const()} + {b}[{i}];"]
            start = 0
        elif variant == 7:
            # Hard negative: indirect write; collisions unknowable
            # statically, and real collisions occur dynamically.
            idx = names.array()
            core = [f"{a}[{idx}[{i}]] = {a}[{idx}[{i}]] + {b}[{i}];"]
            start = 0
        else:
            s = names.scalar()
            core = [f"{b}[{i}] = {s};", f"{s} = {a}[{i}] - {s};"]
            start = 0
        lines = core + filler
        self.rng.shuffle(lines)
        inner = "\n".join(f"    {ln}" for ln in lines)
        body = f"for ({i} = {start}; {i} < {bound}; {i}++) {{\n{inner}\n}}"
        return LoopRecipe(body=body, pragma=None, category=None,
                          parallel=False, has_call=False, nested=False)
