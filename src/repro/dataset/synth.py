"""Synthetic data generation with Jinja2 templates (paper section 4.3).

The paper creates ten templates per pattern (do-all and reduction),
renders twenty variations of each, and adds non-parallel loops.  The
templates below are modelled on NPB / PolyBench / BOTS / Starbench
kernels (vector ops, stencil-free elementwise updates, dot products,
histogram-free accumulations); variable names, constants and operators
are randomised into each rendering, exactly as described.

Synthetic loops are intentionally larger than crawled ones (Table 1
reports ~30 LOC for synthetic parallel loops vs ~7 for GitHub ones) —
each template unrolls several independent statement groups.
"""

from __future__ import annotations

import numpy as np
from jinja2 import Environment

from repro.dataset.sample import LoopSample
from repro.dataset.extract import extract_loops_from_source

_ENV = Environment(autoescape=False)

#: Ten do-all templates: bodies of {{k}} independent statement groups.
DO_ALL_TEMPLATES = [
    # NPB-style vector triad
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{g.dst}}[{{i}}] = {{g.src1}}[{{i}}] {{g.op}} {{g.src2}}[{{i}}];
    {{g.dst}}[{{i}}] = {{g.dst}}[{{i}}] {{g.op}} {{g.c}};
{% endfor %}
}
""",
    # PolyBench-style scaled copy with private temporary
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{g.t}} = {{g.src1}}[{{i}}] * {{g.c}};
    {{g.dst}}[{{i}}] = {{g.t}} {{g.op}} {{g.src2}}[{{i}}];
{% endfor %}
}
""",
    # Starbench-style conditional elementwise
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    if ({{g.src1}}[{{i}}] > {{g.c}}) {
        {{g.dst}}[{{i}}] = {{g.src1}}[{{i}}] {{g.op}} {{g.src2}}[{{i}}];
    } else {
        {{g.dst}}[{{i}}] = {{g.src2}}[{{i}}];
    }
{% endfor %}
}
""",
    # BOTS-style indexed compute
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{g.dst}}[{{i}}] = {{g.c}} * {{i}} {{g.op}} {{g.src1}}[{{i}}];
{% endfor %}
}
""",
    # saxpy chain
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{g.dst}}[{{i}}] = {{g.c}} * {{g.src1}}[{{i}}] + {{g.src2}}[{{i}}];
{% endfor %}
}
""",
    # strided update
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}} += 2) {
{% for g in groups %}
    {{g.dst}}[{{i}}] = {{g.src1}}[{{i}}] {{g.op}} {{g.c}};
{% endfor %}
}
""",
    # two-phase private temp
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{g.t}} = {{g.src1}}[{{i}}] {{g.op}} {{g.src2}}[{{i}}];
    {{g.t}} = {{g.t}} * {{g.t}};
    {{g.dst}}[{{i}}] = {{g.t}} + {{g.c}};
{% endfor %}
}
""",
    # elementwise max-like select
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{g.dst}}[{{i}}] = {{g.src1}}[{{i}}] > {{g.src2}}[{{i}}] ? {{g.src1}}[{{i}}] : {{g.src2}}[{{i}}];
{% endfor %}
}
""",  # noqa: E501
    # polynomial per element
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{g.dst}}[{{i}}] = ({{g.src1}}[{{i}}] {{g.op}} {{g.c}}) * {{g.src1}}[{{i}}];
{% endfor %}
}
""",
    # gather with affine shift
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{g.dst}}[{{i}}] = {{g.src1}}[{{i}} + {{g.c}}] {{g.op}} {{g.src2}}[{{i}}];
{% endfor %}
}
""",
]

#: Ten reduction templates.
REDUCTION_TEMPLATES = [
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{acc}} {{rop}}= {{g.src1}}[{{i}}] {{g.op}} {{g.src2}}[{{i}}];
{% endfor %}
}
""",
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{acc}} = {{acc}} {{rop}} {{g.src1}}[{{i}}] * {{g.c}};
{% endfor %}
}
""",
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{g.t}} = {{g.src1}}[{{i}}] {{g.op}} {{g.src2}}[{{i}}];
    {{acc}} {{rop}}= {{g.t}};
{% endfor %}
}
""",
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{acc}} {{rop}}= {{g.src1}}[{{i}}] * {{g.src2}}[{{i}}];
{% endfor %}
}
""",
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}} += 2) {
{% for g in groups %}
    {{acc}} {{rop}}= {{g.src1}}[{{i}}];
{% endfor %}
}
""",
    """
for ({{i}} = 1; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{acc}} = {{g.src1}}[{{i}}] {{rop}} {{acc}};
{% endfor %}
}
""",
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{g.t}} = {{g.src1}}[{{i}}] - {{g.src2}}[{{i}}];
    {{acc}} {{rop}}= {{g.t}} * {{g.t}};
{% endfor %}
}
""",
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{acc}} {{rop}}= ({{g.src1}}[{{i}}] {{g.op}} {{g.c}});
{% endfor %}
}
""",
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{acc}} {{rop}}= {{g.src1}}[{{i}}] {{g.op}} {{i}};
{% endfor %}
}
""",
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
{% for g in groups %}
    {{g.t}} = {{g.c}} * {{g.src1}}[{{i}}];
    {{acc}} = {{g.t}} {{rop}} {{acc}};
{% endfor %}
}
""",
]

#: Non-parallel synthetic templates (recurrences and shared state).
NON_PARALLEL_TEMPLATES = [
    """
for ({{i}} = 1; {{i}} < {{n}}; {{i}}++) {
    {{a}}[{{i}}] = {{a}}[{{i}}-1] {{op}} {{b}}[{{i}}];
}
""",
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
    {{acc}} = {{acc}} * {{a}}[{{i}}] + {{b}}[{{i}}];
    {{a}}[{{i}}] = {{acc}};
}
""",
    """
for ({{i}} = 2; {{i}} < {{n}}; {{i}}++) {
    {{a}}[{{i}}] = {{a}}[{{i}}-1] + {{a}}[{{i}}-2];
}
""",
    """
for ({{i}} = 0; {{i}} < {{n}}; {{i}}++) {
    {{b}}[{{i}}] = {{acc}};
    {{acc}} = {{a}}[{{i}}] {{op}} {{acc}};
}
""",
    """
for ({{i}} = 1; {{i}} < {{n}}; {{i}}++) {
    {{a}}[{{i}}] = ({{a}}[{{i}}] + {{a}}[{{i}}-1]) / 2;
}
""",
]

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class SyntheticGenerator:
    """Renders the Jinja2 templates into complete C programs."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = np.random.default_rng(seed)
        self._used_names: set[str] = set()

    # -- name/constant randomisation (paper: a-zA-Z0-9_) -------------------------

    def _name(self, prefix: str = "") -> str:
        while True:
            length = int(self.rng.integers(2, 7))
            chars = "".join(
                self.rng.choice(list(_LETTERS + _LETTERS.upper() + "_"))
                for _ in range(length)
            )
            digits = str(int(self.rng.integers(0, 100)))
            name = f"{prefix}{chars}{digits}"
            if name not in self._used_names:
                self._used_names.add(name)
                return name

    def _group(self) -> dict:
        return {
            "dst": self._name("out_"),
            "src1": self._name("in_"),
            "src2": self._name("w_"),
            "t": self._name("t_"),
            "op": str(self.rng.choice(["+", "-", "*"])),
            "c": str(int(self.rng.integers(1, 16))),
        }

    def render_loop(self, kind: str) -> tuple[str, str | None]:
        """Render one loop snippet; returns (loop source, pragma)."""
        if kind == "do-all":
            template = str(self.rng.choice(DO_ALL_TEMPLATES))
            groups = [self._group() for _ in range(int(self.rng.integers(8, 15)))]
            ctx = {
                "i": self._name("idx_"), "n": int(self.rng.integers(64, 4096)),
                "groups": groups,
            }
            body = _ENV.from_string(template).render(**ctx)
            privates = sorted({g["t"] for g in groups if f"{g['t']} =" in body})
            if privates:
                pragma = f"#pragma omp parallel for private({', '.join(privates)})"
            else:
                pragma = "#pragma omp parallel for"
            return body.strip(), pragma
        if kind == "reduction":
            template = str(self.rng.choice(REDUCTION_TEMPLATES))
            groups = [self._group() for _ in range(int(self.rng.integers(10, 20)))]
            # Reductions must be associative and commutative: + or * only
            # (paper section 4.3).
            rop = str(self.rng.choice(["+", "*"]))
            acc = self._name("acc_")
            ctx = {
                "i": self._name("idx_"), "n": int(self.rng.integers(64, 4096)),
                "groups": groups, "acc": acc, "rop": rop,
            }
            body = _ENV.from_string(template).render(**ctx)
            return body.strip(), f"#pragma omp parallel for reduction({rop}:{acc})"
        if kind == "non-parallel":
            template = str(self.rng.choice(NON_PARALLEL_TEMPLATES))
            ctx = {
                "i": self._name("idx_"), "n": int(self.rng.integers(64, 4096)),
                "a": self._name("arr_"), "b": self._name("buf_"),
                "acc": self._name("acc_"),
                "op": str(self.rng.choice(["+", "-", "*"])),
            }
            body = _ENV.from_string(template).render(**ctx)
            return body.strip(), None
        raise ValueError(f"unknown synthetic kind {kind!r}")

    def render_program(self, kind: str) -> tuple[str, dict]:
        """Wrap a rendered loop into a complete, compilable C program."""
        loop_src, pragma = self.render_loop(kind)
        arrays = sorted({
            tok for tok in _tokens_of(loop_src)
            if tok.startswith(("in_", "out_", "w_", "arr_", "buf_"))
        })
        scalars = sorted({
            tok for tok in _tokens_of(loop_src)
            if tok.startswith(("acc_", "t_"))
        })
        index_vars = sorted({
            tok for tok in _tokens_of(loop_src) if tok.startswith("idx_")
        })
        size = 8192
        lines = ["#include <stdio.h>", "", f"#define SYN_SIZE {size}", ""]
        for arr in arrays:
            lines.append(f"double {arr}[SYN_SIZE];")
        lines.append("")
        lines.append("int main(void)")
        lines.append("{")
        for sc in scalars:
            lines.append(f"    double {sc} = 0.0;")
        for iv in index_vars:
            lines.append(f"    int {iv} = 0;")
        if pragma:
            lines.append(f"    {pragma}")
        for ln in loop_src.splitlines():
            lines.append(f"    {ln}")
        first_out = arrays[0] if arrays else None
        if first_out:
            lines.append(f'    printf("%f\\n", {first_out}[0]);')
        lines.append("    return 0;")
        lines.append("}")
        meta = {
            "compiles": True,
            "has_main": True,
            # stdio-only programs run fine under instrumentation; the
            # paper verified the synthetic templates with DiscoPoP.
            "external_calls": False,
            "uses_nonstandard_headers": False,
            "synthetic": True,
        }
        return "\n".join(lines), meta

    def generate(self, n_reduction: int, n_doall: int,
                 n_non_parallel: int) -> list[LoopSample]:
        """Render programs and extract labelled loops from them."""
        samples: list[LoopSample] = []
        plan = (
            [("reduction",)] * n_reduction
            + [("do-all",)] * n_doall
            + [("non-parallel",)] * n_non_parallel
        )
        for file_id, (kind,) in enumerate(plan):
            program, meta = self.render_program(kind)
            extracted = extract_loops_from_source(
                program, origin="synthetic", file_id=file_id, file_meta=meta,
            )
            samples.extend(extracted)
        return samples


def _tokens_of(source: str) -> set[str]:
    import re
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", source))
