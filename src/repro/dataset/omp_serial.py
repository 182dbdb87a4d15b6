"""The OMP_Serial dataset object: assembly, statistics, splits."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.dataset.corpus import CorpusGenerator
from repro.dataset.sample import LoopSample, load_jsonl, save_jsonl
from repro.dataset.synth import SyntheticGenerator

#: Paper synthetic counts (Table 1): 200 reduction + 200 do-all parallel
#: programs, 700 non-parallel.
SYNTHETIC_COUNTS = {"reduction": 200, "do-all": 200, "non-parallel": 700}


@dataclass
class DatasetConfig:
    """Knobs for :func:`generate_omp_serial`.

    ``scale`` multiplies every Table-1 count; 1.0 reproduces the paper's
    32 570 GitHub loops + 1 100 synthetic programs, 0.05 gives a ~1 700
    loop corpus that trains in minutes on the numpy substrate.
    """

    scale: float = 1.0
    seed: int = 0
    include_synthetic: bool = True
    test_fraction: float = 0.2


@dataclass
class OMPSerial:
    """The assembled dataset."""

    samples: list[LoopSample] = field(default_factory=list)
    config: DatasetConfig = field(default_factory=DatasetConfig)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, idx):
        return self.samples[idx]

    # -- selections --------------------------------------------------------

    def parallel_loops(self) -> list[LoopSample]:
        return [s for s in self.samples if s.parallel]

    def non_parallel_loops(self) -> list[LoopSample]:
        return [s for s in self.samples if not s.parallel]

    def of_category(self, category: str | None) -> list[LoopSample]:
        return [s for s in self.samples if s.category == category]

    def of_origin(self, origin: str) -> list[LoopSample]:
        return [s for s in self.samples if s.origin == origin]

    # -- statistics (Table 1) ------------------------------------------------

    def stats(self) -> list[dict]:
        """Rows shaped like Table 1: per (origin, pragma type) statistics."""
        rows: list[dict] = []
        for origin in ("github", "synthetic"):
            pool = self.of_origin(origin)
            if not pool:
                continue
            parallel = [s for s in pool if s.parallel]
            categories = sorted(
                {s.category for s in parallel if s.category is not None}
            )
            for category in categories:
                subset = [s for s in parallel if s.category == category]
                rows.append(self._row(origin, "parallel", category, subset))
            non_par = [s for s in pool if not s.parallel]
            rows.append(self._row(origin, "non-parallel", "-", non_par))
        return rows

    @staticmethod
    def _row(origin: str, kind: str, category: str,
             subset: list[LoopSample]) -> dict:
        locs = [s.loc for s in subset]
        return {
            "source": origin,
            "type": kind,
            "pragma_type": category,
            "loops": len(subset),
            "function_call": sum(1 for s in subset if s.has_call),
            "nested_loops": sum(1 for s in subset if s.nested),
            "avg_loc": round(float(np.mean(locs)), 2) if locs else 0.0,
        }

    def summary(self) -> dict:
        return {
            "total": len(self.samples),
            "parallel": len(self.parallel_loops()),
            "non_parallel": len(self.non_parallel_loops()),
            "by_category": dict(Counter(
                s.category or "non-parallel" for s in self.samples
            )),
            "by_origin": dict(Counter(s.origin for s in self.samples)),
        }

    # -- splits ------------------------------------------------------------------

    def train_test_split(
        self, test_fraction: float | None = None, seed: int | None = None,
    ) -> tuple[list[LoopSample], list[LoopSample]]:
        """Stratified (by category) train/test split, split at file level.

        Splitting by file prevents near-duplicate loops from the same
        generated file leaking across the boundary.
        """
        frac = test_fraction if test_fraction is not None else self.config.test_fraction
        rng = np.random.default_rng(
            seed if seed is not None else self.config.seed + 17
        )
        file_keys = sorted({(s.origin, s.file_id) for s in self.samples})
        rng.shuffle(file_keys)
        n_test = int(len(file_keys) * frac)
        test_files = set(file_keys[:n_test])
        train, test = [], []
        for s in self.samples:
            (test if (s.origin, s.file_id) in test_files else train).append(s)
        return train, test

    # -- persistence -----------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        save_jsonl(self.samples, path)

    @classmethod
    def load(cls, path: str | Path,
             config: DatasetConfig | None = None) -> "OMPSerial":
        return cls(samples=load_jsonl(path), config=config or DatasetConfig())


def generate_omp_serial(config: DatasetConfig | None = None) -> OMPSerial:
    """Generate the full OMP_Serial dataset per the configuration."""
    config = config or DatasetConfig()
    corpus = CorpusGenerator(seed=config.seed)
    samples, _files = corpus.generate(scale=config.scale)
    if config.include_synthetic:
        synth = SyntheticGenerator(seed=config.seed + 101)
        n_red = max(1, int(round(SYNTHETIC_COUNTS["reduction"] * config.scale)))
        n_doall = max(1, int(round(SYNTHETIC_COUNTS["do-all"] * config.scale)))
        n_non = max(1, int(round(SYNTHETIC_COUNTS["non-parallel"] * config.scale)))
        samples.extend(synth.generate(n_red, n_doall, n_non))
    return OMPSerial(samples=samples, config=config)
