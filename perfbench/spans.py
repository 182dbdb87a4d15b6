"""Runtime span tracing for the traced benchmark run.

The program under test carries no tracing of its own, so the traced
run wraps the public entry points of each layer from here, at runtime,
and never touches ``src/``.  A span records one call's duration; a
layer's *self* time is the duration of its spans minus the part covered
by nested spans of other layers (per thread).  Untraced runs never
import this module's :func:`install`.

Functions that other modules bound by name (``from X import f``) are
replaced at every binding found in the loaded ``repro`` modules, so
import the layers before installing.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory spans: per-layer self seconds, inclusive seconds and
    call counts, plus every inclusive duration for percentile use."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> tuple[list[float], float]:
        stack = self._stack()
        stack.append(0.0)
        return stack, time.perf_counter()

    def _exit(self, layer: str, stack: list[float], t0: float,
              calls: int) -> None:
        elapsed = time.perf_counter() - t0
        covered = stack.pop()
        if stack:
            stack[-1] += elapsed
        with self._lock:
            self.self_s[layer] += elapsed - covered
            self.total_s[layer] += elapsed
            self.calls[layer] += calls
            self.durations[layer].append(elapsed)

    def wrap(self, layer, fn):
        """``fn`` inside a span; ``layer`` is a name or a function of
        the call's arguments returning one."""
        name_of = layer if callable(layer) else (lambda *a, **k: layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name_of(*args, **kwargs), stack, t0, 1)

        return traced

    def wrap_generator(self, layer: str, fn):
        """A generator function whose every resume is a span: the
        consumer's work between items is not charged to ``layer``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            calls = 1
            try:
                while True:
                    stack, t0 = self._enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._exit(layer, stack, t0, calls)
                        calls = 0
                    yield item
            finally:
                gen.close()

        return traced

    def self_sum(self) -> float:
        return sum(self.self_s.values())


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` in every loaded
        ``repro`` module that holds it under any name."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer's entry points; returns the undo handle.

    Layer names match the per-layer metrics in ``BENCHMARK.json``.
    """
    import repro.client
    import repro.eval.context
    import repro.graphs.augast
    import repro.graphs.encode
    import repro.rewrite.clauses
    import repro.rewrite.engine
    import repro.rewrite.verify
    import repro.serve.parse
    import repro.serve.pipeline
    import repro.serve.store
    import repro.suggest
    import repro.tools.compile
    import repro.tools.deps

    patches = Patches()
    functions = [
        ("parse", repro.serve.parse.parse_one),
        ("augast", repro.graphs.augast.build_aug_ast),
        ("collate", repro.graphs.encode.collate),
        ("deps", repro.tools.deps.analyze_loop),
        ("plan", repro.rewrite.clauses.plan_clauses),
        ("verify", repro.rewrite.verify.verify_loop),
        ("compile", repro.tools.compile.compile_loop),
        ("rewrite", repro.rewrite.engine.rewrite_file),
    ]
    for layer, fn in functions:
        patches.everywhere(fn, tracer.wrap(layer, fn))
    # only the second parse of each file, inside the rewrite pass
    engine = repro.rewrite.engine
    patches.set(engine, "parse_source",
                tracer.wrap("reparse", engine.parse_source))

    store_cls = repro.serve.store.SuggestionStore
    model_cls = repro.eval.context.TrainedGraphModel
    methods = [
        ("encode", repro.graphs.encode.EncodeCache, "encode_loop"),
        ("compose", repro.suggest.PragmaSuggester, "suggest_batch"),
        ("store.get", store_cls, "get_parse"),
        ("store.get", store_cls, "get_suggestions"),
        ("store.get", store_cls, "get_verdict"),
        ("store.put", store_cls, "put_parse"),
        ("store.put", store_cls, "put_suggestions"),
        ("store.put", store_cls, "put_verdict"),
        ("ping", repro.client.Client, "ping"),
        # one span per model: the layer name carries the task
        (lambda model, *a, **k: f"forward.{model.task}", model_cls,
         "predict_encoded"),
    ]
    for layer, cls, attr in methods:
        patches.set(cls, attr, tracer.wrap(layer, getattr(cls, attr)))
    service_cls = repro.serve.pipeline.SuggestionService
    patches.set(service_cls, "iter_joint",
                tracer.wrap_generator("server", service_cls.iter_joint))
    return patches
