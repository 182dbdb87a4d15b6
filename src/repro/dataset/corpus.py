"""GitHub-like corpus generator (the crawl substitute).

Assembles complete C files the way crawled OpenMP projects look: a
header block, globals and array declarations, helper functions, and one
or more functions whose bodies carry the generated loops (with their
developer-written pragmas).  File-level attributes (``has_main``,
``external_calls``, ``uses_nonstandard_headers``) are sampled at rates
calibrated so the §2 coverage statistics land near the paper's numbers
(autoPar ≈ 10 %, DiscoPoP ≈ 4 % of loops processable at file level).

Category mix follows Table 1:

=============  ======  =============================
category       count   share of the 32 570 loops
=============  ======  =============================
reduction       3 705
private         6 278
simd            3 574
target          2 155
parallel        2 886   (18 598 total parallel)
non-parallel   13 972
=============  ======  =============================

``scale`` shrinks every count proportionally for tractable experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cfront import ParseError
from repro.cfront.lexer import LexError
from repro.dataset.extract import extract_loops_from_source
from repro.dataset.recipes import LoopRecipe, RecipeGenerator
from repro.dataset.sample import LoopSample

#: Table 1 loop counts for the GitHub portion.
GITHUB_CATEGORY_COUNTS: dict[str | None, int] = {
    "reduction": 3705,
    "private": 6278,
    "simd": 3574,
    "target": 2155,
    "parallel": 2886,   # 18598 total parallel minus the four named clauses
    None: 13972,
}

_HEADERS_STANDARD = ["<stdio.h>", "<stdlib.h>", "<math.h>", "<string.h>"]
_HEADERS_NONSTANDARD = ["<sys/time.h>", "<unistd.h>", '"config.h"',
                        '"kernels.h"', "<omp.h>", '"common/util.h"']


@dataclass
class GeneratedFile:
    """One synthetic 'crawled' source file."""

    source: str
    meta: dict
    file_id: int


class CorpusGenerator:
    """Generates files and extracts the labelled loop population."""

    def __init__(self, seed: int = 0, loops_per_file: tuple[int, int] = (2, 7),
                 unannotated_parallel_fraction: float = 0.18,
                 ambiguous_reduction_fraction: float = 0.55) -> None:
        self.rng = np.random.default_rng(seed)
        self.recipes = RecipeGenerator(seed=seed + 1)
        self.loops_per_file = loops_per_file
        #: fraction of the non-parallel quota that is actually a
        #: tool-resistant parallel pattern a developer left unannotated
        #: (the paper's §6.4 observation); drives the accuracy ceiling.
        self.unannotated_parallel_fraction = unannotated_parallel_fraction
        #: fraction of the reduction quota drawn from the same ambiguous
        #: pool (annotated) so the pattern mass overlaps both classes.
        self.ambiguous_reduction_fraction = ambiguous_reduction_fraction

    # -- file-level metadata -------------------------------------------------------

    def _file_meta(self) -> dict:
        # Pointer-parameter style dominates real C kernels: arrays arrive
        # as (possibly aliasing) pointers, the classic static-analysis
        # killer.  Pointer-style files are library code (no main).
        pointer_style = bool(self.rng.random() < 0.55)
        return {
            "compiles": True,
            # Most crawled files are library-style translation units.
            "has_main": (not pointer_style) and bool(self.rng.random() < 0.25),
            # printf/malloc/project-specific helpers at file scope.
            "external_calls": bool(self.rng.random() < 0.70),
            # GNU/system extensions break ROSE's EDG frontend.
            "uses_nonstandard_headers": bool(self.rng.random() < 0.88),
            "pointer_style": pointer_style,
        }

    # -- file assembly ----------------------------------------------------------------

    def build_file(self, recipes: list[LoopRecipe], file_id: int,
                   meta: dict) -> GeneratedFile:
        rng = self.rng
        lines: list[str] = []
        for header in rng.choice(_HEADERS_STANDARD,
                                 size=rng.integers(1, 3), replace=False):
            lines.append(f"#include {header}")
        if meta["uses_nonstandard_headers"]:
            lines.append(f"#include {rng.choice(_HEADERS_NONSTANDARD)}")
        lines.append("")
        size = int(rng.choice([1024, 4096, 8192, 16384]))
        lines.append(f"#define ARR_CAP {size}")
        lines.append("")

        # Declarations covering every identifier the loops use.  In
        # pointer-style files, 1-D arrays become pointer parameters of
        # the kernel functions; multi-dimensional arrays and scalars stay
        # global (matching common C layouts).
        idents = self._identifiers(recipes)
        dims = self._array_dims(recipes)
        pointer_style = bool(meta.get("pointer_style", False))
        param_arrays: set[str] = set()
        for name in sorted(idents["arrays"]):
            depth = dims.get(name, 1)
            if pointer_style and depth == 1:
                param_arrays.add(name)
                continue
            dim = "[ARR_CAP]" * depth
            ctype = str(rng.choice(["double", "float", "int"]))
            lines.append(f"{ctype} {name}{dim};")
        for name in sorted(idents["scalars"]):
            lines.append(f"double {name} = 0.0;")
        for name in sorted(idents["indices"]):
            lines.append(f"int {name};")
        lines.append("")

        # Prototypes for impure helper calls (defined elsewhere in the
        # "project" — the crawled-file reality that breaks dynamic tools).
        for name in sorted(idents["calls"]):
            lines.append(f"void {name}(double *p, int v);")
        if idents["calls"]:
            lines.append("")

        # One function per 1–3 loops.
        fn_index = 0
        chunk: list[LoopRecipe] = []
        chunks: list[list[LoopRecipe]] = []
        for recipe in recipes:
            chunk.append(recipe)
            if len(chunk) >= int(rng.integers(1, 4)):
                chunks.append(chunk)
                chunk = []
        if chunk:
            chunks.append(chunk)
        import re as _re
        for chunk in chunks:
            if param_arrays:
                used = sorted({
                    name for name in param_arrays
                    if any(
                        _re.search(rf"\b{_re.escape(name)}\s*\[",
                                   r.full_source)
                        for r in chunk
                    )
                })
            else:
                used = []
            params = ", ".join(f"double *{name}" for name in used) or "void"
            lines.append(f"void kernel_{file_id}_{fn_index}({params})")
            lines.append("{")
            for recipe in chunk:
                for src_line in recipe.full_source.splitlines():
                    lines.append(f"    {src_line}")
                lines.append("")
            lines.append("}")
            lines.append("")
            fn_index += 1

        if meta["has_main"]:
            lines.append("int main(void)")
            lines.append("{")
            for k in range(fn_index):
                lines.append(f"    kernel_{file_id}_{k}();")
            lines.append("    return 0;")
            lines.append("}")
        return GeneratedFile(source="\n".join(lines), meta=meta, file_id=file_id)

    def _identifiers(self, recipes: list[LoopRecipe]) -> dict[str, set[str]]:
        """Partition identifiers used by the loops into decl groups."""
        import re
        arrays: set[str] = set()
        scalars: set[str] = set()
        indices: set[str] = set()
        calls: set[str] = set()
        known_pure = {"fabs", "sqrt", "sin", "cos", "exp", "log", "printf"}
        for recipe in recipes:
            src = recipe.full_source
            for m in re.finditer(r"([A-Za-z_][A-Za-z0-9_]*)\s*\[", src):
                arrays.add(m.group(1))
            for m in re.finditer(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(", src):
                name = m.group(1)
                if name not in ("for", "while", "if", "pragma", "omp",
                                "reduction", "private", "map", "schedule"):
                    if name not in known_pure:
                        calls.add(name)
            decl_in_loop = set(re.findall(r"\bint\s+([A-Za-z_][A-Za-z0-9_]*)", src))
            for m in re.finditer(r"\b([A-Za-z_][A-Za-z0-9_]*)\b", src):
                name = m.group(1)
                if name in ("for", "while", "if", "else", "int", "double",
                            "float", "pragma", "omp", "parallel", "reduction",
                            "private", "simd", "target", "teams", "distribute",
                            "map", "to", "from", "schedule", "static", "printf",
                            "do", "return") or name in known_pure:
                    continue
                if name in arrays or name in calls or name in decl_in_loop:
                    continue
                # index vs scalar: single-letter-ish loop counters
                if re.fullmatch(r"(i|j|k|ii|jj|idx|pos)\d*", name):
                    indices.add(name)
                else:
                    scalars.add(name)
        scalars -= indices
        return {"arrays": arrays, "scalars": scalars, "indices": indices,
                "calls": calls}

    def _array_dims(self, recipes: list[LoopRecipe]) -> dict[str, int]:
        """Max subscript depth per array across the file's loops."""
        import re
        dims: dict[str, int] = {}
        for recipe in recipes:
            for m in re.finditer(
                r"([A-Za-z_][A-Za-z0-9_]*)((?:\s*\[[^\[\]]*\])+)",
                recipe.full_source,
            ):
                depth = m.group(2).count("[")
                name = m.group(1)
                dims[name] = max(dims.get(name, 1), depth)
        return dims

    def _recipe_for(self, category: str | None) -> LoopRecipe:
        """Category quota → recipe, mixing in the ambiguous pool."""
        if category is None and self.rng.random() < \
                self.unannotated_parallel_fraction:
            return self.recipes.generate_ambiguous(with_pragma=False)
        if category == "reduction" and self.rng.random() < \
                self.ambiguous_reduction_fraction:
            return self.recipes.generate_ambiguous(with_pragma=True)
        return self.recipes.generate(category)

    # -- population generation -----------------------------------------------------

    def generate(self, scale: float = 1.0,
                 counts: dict[str | None, int] | None = None
                 ) -> tuple[list[LoopSample], list[GeneratedFile]]:
        """Generate the GitHub-like loop population at ``scale``.

        Returns labelled samples (extracted by re-parsing the emitted
        files) and the file objects themselves.
        """
        counts = counts or GITHUB_CATEGORY_COUNTS
        todo: list[str | None] = []
        for category, count in counts.items():
            todo.extend([category] * max(1, int(round(count * scale))))
        self.rng.shuffle(todo)

        samples: list[LoopSample] = []
        files: list[GeneratedFile] = []
        file_id = 0
        cursor = 0
        while cursor < len(todo):
            n_loops = int(self.rng.integers(*self.loops_per_file))
            batch = todo[cursor: cursor + n_loops]
            cursor += n_loops
            recipes = [self._recipe_for(cat) for cat in batch]
            meta = self._file_meta()
            gen_file = self.build_file(recipes, file_id, meta)
            try:
                extracted = extract_loops_from_source(
                    gen_file.source, origin="github", file_id=file_id,
                    file_meta=meta,
                )
            except (ParseError, LexError) as exc:
                raise AssertionError(
                    f"generated file {file_id} failed to parse: {exc}\n"
                    f"{gen_file.source}"
                ) from exc
            samples.extend(extracted)
            files.append(gen_file)
            file_id += 1
        return samples, files
