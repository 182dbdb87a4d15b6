"""Shared, cached experiment state.

Generating OMP_Serial, running the three tools over every loop, and
training models are the expensive steps; each is cached per
:class:`ExperimentConfig` so the whole table/figure suite reuses work
within a process (pytest-benchmark runs every bench in one process).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.dataset.sample import LoopSample
from repro.eval.config import ExperimentConfig
from repro.models import (
    GCNBaseline,
    GCNConfig,
    Graph2Par,
    Graph2ParConfig,
    PragFormer,
    PragFormerConfig,
)
from repro.train import (
    GraphTrainer,
    TokenTrainer,
    TrainConfig,
    prepare_graph_data,
    prepare_token_data,
)

if TYPE_CHECKING:
    from repro.dataset.omp_serial import OMPSerial
    from repro.tools import ToolResult

#: label functions per task name (clause tasks are Table 5)
LABEL_FNS = {
    "parallel": lambda s: int(s.parallel),
    "private": lambda s: int(s.category == "private"),
    "reduction": lambda s: int(s.category == "reduction"),
    "simd": lambda s: int(s.category == "simd"),
    "target": lambda s: int(s.category == "target"),
}


@dataclass
class TrainedGraphModel:
    trainer: GraphTrainer
    vocab: object
    representation: str
    task: str

    def predict_samples(self, samples: list[LoopSample],
                        cache=None) -> np.ndarray:
        """Batched predictions; ``cache`` optionally reuses encodings."""
        data, _ = prepare_graph_data(
            samples, representation=self.representation, vocab=self.vocab,
            label_fn=LABEL_FNS[self.task], cache=cache,
        )
        return self.trainer.predict(data)

    def predict_encoded(self, graphs: list,
                        batch_size: int | None = None,
                        collate_cache: dict | None = None) -> np.ndarray:
        """Predictions over pre-encoded graphs (the serving hot path).

        Skips parse/graph-build/encode entirely: one block-diagonal
        collate + forward per ``batch_size`` chunk.  ``collate_cache``
        (keyed by the chunk's graph identities) lets several models
        over the same workload share the collated batches.
        """
        from repro.graphs import collate
        from repro.nn import functional as F
        from repro.nn.tensor import no_grad

        if collate_cache is None:
            return self.trainer.predict(graphs, batch_size=batch_size)
        bs = batch_size or self.trainer.config.batch_size
        model = self.trainer.model
        model.eval()
        preds = []
        with no_grad():
            for start in range(0, len(graphs), bs):
                chunk = graphs[start: start + bs]
                key = tuple(id(g) for g in chunk)
                # The entry pins the chunk's graphs alive alongside the
                # batch: id() keys are only valid while the objects are,
                # and encode-cache eviction could otherwise free them
                # mid-workload and recycle the addresses.
                entry = collate_cache.get(key)
                if entry is None:
                    entry = collate_cache[key] = (chunk, collate(chunk))
                preds.append(F.predict_classes(model(entry[1])))
        return np.concatenate(preds) if preds else np.zeros(0, dtype=int)

    def encode_cache(self, max_entries: int = 4096):
        """A fresh :class:`~repro.graphs.encode.EncodeCache` for this
        model's vocab/representation."""
        from repro.graphs.encode import EncodeCache

        return EncodeCache(self.vocab, representation=self.representation,
                           max_entries=max_entries)

    def encoder_key(self) -> tuple:
        """Hashable identity of (representation, vocab content).

        Models trained separately on the same data build equal vocabs;
        the serve pipeline uses this key to share one encode pass across
        all models that agree on it.
        """
        return (
            self.representation,
            tuple(sorted(self.vocab.types.tokens.items())),
            tuple(sorted(self.vocab.texts.tokens.items())),
        )

    def fingerprint(self) -> str:
        """SHA-256 identity of (architecture, task, vocab, weights).

        Two models with the same fingerprint produce the same
        predictions, so the persistent suggestion store keys cached
        results on it: retraining or swapping a bundle changes the
        fingerprint and invalidates stale suggestions.
        """
        import hashlib

        h = hashlib.sha256()
        h.update(f"{type(self.trainer.model).__qualname__}:"
                 f"{self.representation}:{self.task}:".encode("utf-8"))
        h.update(self.vocab.content_hash().encode("utf-8"))
        for name, arr in sorted(self.trainer.model.state_dict().items()):
            h.update(name.encode("utf-8"))
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def evaluate_samples(self, samples: list[LoopSample]) -> dict:
        data, _ = prepare_graph_data(
            samples, representation=self.representation, vocab=self.vocab,
            label_fn=LABEL_FNS[self.task],
        )
        return self.trainer.evaluate(data)


@dataclass
class TrainedTokenModel:
    trainer: TokenTrainer
    vocab: object
    task: str
    max_len: int

    def predict_samples(self, samples: list[LoopSample]) -> np.ndarray:
        ids, mask, _, _ = prepare_token_data(
            samples, vocab=self.vocab, max_len=self.max_len,
            label_fn=LABEL_FNS[self.task],
        )
        return self.trainer.predict(ids, mask)

    def evaluate_samples(self, samples: list[LoopSample]) -> dict:
        ids, mask, labels, _ = prepare_token_data(
            samples, vocab=self.vocab, max_len=self.max_len,
            label_fn=LABEL_FNS[self.task],
        )
        return self.trainer.evaluate(ids, mask, labels)


class ExperimentContext:
    """All cached state for one configuration."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self._dataset: OMPSerial | None = None
        self._split: tuple[list, list] | None = None
        self._tool_verdicts: dict[str, list[ToolResult]] = {}
        self._graph_models: dict[tuple[str, str], TrainedGraphModel] = {}
        self._token_models: dict[str, TrainedTokenModel] = {}

    # -- dataset ------------------------------------------------------------

    @property
    def dataset(self) -> OMPSerial:
        if self._dataset is None:
            # the generators (and Jinja2) load only when a dataset is
            # generated, never to serve a trained model
            from repro.dataset.omp_serial import (
                DatasetConfig,
                generate_omp_serial,
            )

            self._dataset = generate_omp_serial(DatasetConfig(
                scale=self.config.scale,
                seed=self.config.seed,
                test_fraction=self.config.test_fraction,
            ))
        return self._dataset

    @property
    def split(self) -> tuple[list[LoopSample], list[LoopSample]]:
        if self._split is None:
            self._split = self.dataset.train_test_split(
                test_fraction=self.config.test_fraction,
                seed=self.config.seed,
            )
        return self._split

    # -- tools ---------------------------------------------------------------

    def tool_verdicts(self, tool_name: str) -> list[ToolResult]:
        """Tool verdict per dataset sample (aligned with dataset order).

        Tools receive the declaration context the real toolchain would
        see: pointer-parameter arrays (aliasing hazards for the static
        tools) and the file metadata (execution gate for the dynamic
        tool).
        """
        if tool_name not in self._tool_verdicts:
            from repro.tools import make_tool

            tool = make_tool(tool_name)
            self._tool_verdicts[tool_name] = [
                tool.analyze_loop(
                    s.ast(),
                    pointer_arrays=frozenset(s.pointer_arrays),
                    file_meta=s.file_meta,
                )
                for s in self.dataset
            ]
        return self._tool_verdicts[tool_name]

    def tool_verdict_map(self, tool_name: str) -> dict[int, ToolResult]:
        """id(sample) → verdict, for subset lookups."""
        verdicts = self.tool_verdicts(tool_name)
        return {id(s): v for s, v in zip(self.dataset, verdicts)}

    # -- models ----------------------------------------------------------------

    def _train_config(self) -> TrainConfig:
        cfg = self.config
        return TrainConfig(
            epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr,
            seed=cfg.seed,
        )

    def graph_model(self, representation: str = "aug",
                    task: str = "parallel") -> TrainedGraphModel:
        key = (representation, task)
        if key not in self._graph_models:
            train, _ = self.split
            label_fn = LABEL_FNS[task]
            data, vocab = prepare_graph_data(
                train, representation=representation, label_fn=label_fn,
            )
            cfg = self.config
            model = Graph2Par(vocab, Graph2ParConfig(
                dim=cfg.dim, heads=cfg.heads, layers=cfg.layers,
                dropout=cfg.dropout, seed=cfg.seed,
            ))
            trainer = GraphTrainer(model, self._train_config())
            trainer.fit(data)
            self._graph_models[key] = TrainedGraphModel(
                trainer=trainer, vocab=vocab, representation=representation,
                task=task,
            )
        return self._graph_models[key]

    def gcn_model(self, task: str = "parallel") -> TrainedGraphModel:
        key = ("gcn", task)
        if key not in self._graph_models:
            train, _ = self.split
            data, vocab = prepare_graph_data(
                train, representation="aug", label_fn=LABEL_FNS[task],
            )
            cfg = self.config
            model = GCNBaseline(vocab, GCNConfig(
                dim=cfg.dim, layers=cfg.layers, dropout=cfg.dropout,
                seed=cfg.seed,
            ))
            trainer = GraphTrainer(model, self._train_config())
            trainer.fit(data)
            self._graph_models[key] = TrainedGraphModel(
                trainer=trainer, vocab=vocab, representation="aug", task=task,
            )
        return self._graph_models[key]

    def rgcn_model(self, task: str = "parallel") -> TrainedGraphModel:
        key = ("rgcn", task)
        if key not in self._graph_models:
            from repro.models import RGCNBaseline, RGCNConfig

            train, _ = self.split
            data, vocab = prepare_graph_data(
                train, representation="aug", label_fn=LABEL_FNS[task],
            )
            cfg = self.config
            model = RGCNBaseline(vocab, RGCNConfig(
                dim=cfg.dim, layers=cfg.layers, dropout=cfg.dropout,
                seed=cfg.seed,
            ))
            trainer = GraphTrainer(model, self._train_config())
            trainer.fit(data)
            self._graph_models[key] = TrainedGraphModel(
                trainer=trainer, vocab=vocab, representation="aug", task=task,
            )
        return self._graph_models[key]

    def token_model(self, task: str = "parallel") -> TrainedTokenModel:
        if task not in self._token_models:
            train, _ = self.split
            cfg = self.config
            ids, mask, labels, vocab = prepare_token_data(
                train, max_len=cfg.max_token_len, label_fn=LABEL_FNS[task],
            )
            model = PragFormer(vocab, PragFormerConfig(
                dim=cfg.dim, heads=cfg.heads, layers=cfg.layers,
                dropout=cfg.dropout, max_len=cfg.max_token_len, seed=cfg.seed,
            ))
            trainer = TokenTrainer(model, self._train_config())
            trainer.fit(ids, mask, labels)
            self._token_models[task] = TrainedTokenModel(
                trainer=trainer, vocab=vocab, task=task,
                max_len=cfg.max_token_len,
            )
        return self._token_models[task]


_CONTEXTS: dict[ExperimentConfig, ExperimentContext] = {}


def get_context(config: ExperimentConfig | None = None) -> ExperimentContext:
    """Process-wide context cache, keyed by the (frozen) config."""
    config = config or ExperimentConfig.standard()
    if config not in _CONTEXTS:
        _CONTEXTS[config] = ExperimentContext(config)
    return _CONTEXTS[config]
