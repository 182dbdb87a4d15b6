"""The suggester bundle: one directory, one deployable advisor.

Layout (format version 1)::

    <bundle>/
      manifest.json          format version, clause list, vocab hash,
                             experiment-config provenance
      vocab.json             the shared GraphVocab of every model
      parallel/              the parallel/non-parallel model
        model.json  weights.npz
      clause_<family>/       one per clause-family model
        model.json  weights.npz

All models of a suggester are trained on the same split and therefore
share one vocabulary; the bundle stores it once and every model
records its SHA-256, so a bundle stitched together from mismatched
halves refuses to load.

A bundle also travels as a *single archive file* (gzipped tar of the
directory layout): :func:`pack_bundle` / :func:`unpack_bundle` convert
between the two, :meth:`SuggesterBundle.export_archive` writes one
directly, and :meth:`SuggesterBundle.load` auto-detects which form it
was given — so one ``scp``-able file ships a whole advisor to shard
workers and remote machines.
"""

from __future__ import annotations

import gzip
import tarfile
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.artifacts.model_io import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    _check_version,
    _read_json,
    _write_json,
    load_trained,
    save_trained,
)
from repro.graphs.vocab import GraphVocab, Vocab
from repro.serve.pipeline import DEFAULT_CLAUSES


class BundleError(ArtifactError):
    """A suggester bundle is missing, incompatible, or inconsistent."""


@dataclass
class SuggesterBundle:
    """A trained suggester (parallel + clause models) as one artifact.

    ``parallel`` and the ``clause_models`` values follow the
    :class:`~repro.eval.context.TrainedGraphModel` protocol.
    ``experiment`` optionally records the training
    :class:`~repro.eval.config.ExperimentConfig` as provenance.
    """

    parallel: object
    clause_models: dict[str, object]
    experiment: dict | None = field(default=None)
    #: where this bundle was loaded from (directory or archive), when
    #: it came from disk — a registry content-addresses an archive by
    #: hashing the file here
    source_path: str | None = field(default=None, compare=False,
                                    repr=False)

    @property
    def vocab(self) -> GraphVocab:
        return self.parallel.vocab

    @classmethod
    def from_context(cls, context,
                     clauses: tuple[str, ...] = DEFAULT_CLAUSES,
                     ) -> "SuggesterBundle":
        """Collect (training on first use) a context's suggester models."""
        from dataclasses import asdict

        return cls(
            parallel=context.graph_model(representation="aug",
                                         task="parallel"),
            clause_models={
                clause: context.graph_model(representation="aug",
                                            task=clause)
                for clause in clauses
            },
            experiment=asdict(context.config),
        )

    # -- persistence ---------------------------------------------------------

    def save(self, directory: str | Path) -> Path:
        """Write the bundle; returns the bundle directory."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        vocab_hash = self.vocab.content_hash()
        for name, model in self.clause_models.items():
            if model.vocab.content_hash() != vocab_hash:
                raise BundleError(
                    f"clause model {name!r} was trained against a "
                    f"different vocabulary than the parallel model; "
                    f"a bundle stores exactly one vocab"
                )
        _write_json(directory / "vocab.json", self.vocab.to_dict())
        save_trained(self.parallel, directory / "parallel",
                     include_vocab=False)
        for name, model in self.clause_models.items():
            save_trained(model, directory / f"clause_{name}",
                         include_vocab=False)
        _write_json(directory / "manifest.json", {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "kind": "suggester-bundle",
            "clauses": list(self.clause_models),
            "vocab_sha256": vocab_hash,
            "experiment": self.experiment,
        })
        return directory

    def export_archive(self, path: str | Path) -> Path:
        """Write the bundle as one gzipped-tar archive file.

        The archive holds exactly the directory layout (manifest at
        the top level), so ``pack → unpack`` round-trips byte-for-byte
        and :meth:`load` accepts either form.
        """
        path = Path(path)
        with tempfile.TemporaryDirectory(prefix="bundle-") as tmp:
            staged = Path(tmp) / "bundle"
            self.save(staged)
            return pack_bundle(staged, path)

    @classmethod
    def load(cls, path: str | Path) -> "SuggesterBundle":
        """Load a saved bundle from a directory *or* an archive file.

        Auto-detects the form: a directory loads in place; a regular
        file is treated as a :func:`pack_bundle` archive and unpacked
        to a temporary directory first (everything — vocab, configs,
        weights — is materialised in memory, so nothing outlives the
        extraction).  Either way the loaded bundle records its
        ``source_path``.
        """
        from repro.serve import faults

        path = Path(path)
        faults.on_bundle_load(str(path))
        if path.is_file():
            with tempfile.TemporaryDirectory(prefix="bundle-") as tmp:
                bundle = cls._load_dir(unpack_bundle(path, Path(tmp) / "x"))
            bundle.source_path = str(path)
            return bundle
        bundle = cls._load_dir(path)
        bundle.source_path = str(path)
        return bundle

    @classmethod
    def _load_dir(cls, directory: str | Path) -> "SuggesterBundle":
        """Load a bundle directory, verifying version and vocab hash."""
        directory = Path(directory)
        try:
            manifest = _read_json(directory / "manifest.json")
        except ArtifactError as exc:
            raise BundleError(str(exc)) from exc
        if manifest.get("kind") != "suggester-bundle":
            raise BundleError(
                f"{directory} is not a suggester bundle "
                f"(kind={manifest.get('kind')!r})"
            )
        try:
            _check_version(manifest, directory / "manifest.json")
        except ArtifactError as exc:
            raise BundleError(str(exc)) from exc
        vocab_data = _read_json(directory / "vocab.json")
        vocab = GraphVocab(
            types=Vocab.from_dict(vocab_data["types"]),
            texts=Vocab.from_dict(vocab_data["texts"]),
        )
        if vocab.content_hash() != manifest.get("vocab_sha256"):
            raise BundleError(
                f"vocab.json in {directory} does not hash to the "
                f"manifest's vocab_sha256 — the bundle was tampered "
                f"with or assembled from mismatched artifacts"
            )
        return cls(
            parallel=load_trained(directory / "parallel", vocab=vocab),
            clause_models={
                name: load_trained(directory / f"clause_{name}",
                                   vocab=vocab)
                for name in manifest["clauses"]
            },
            experiment=manifest.get("experiment"),
        )

    # -- serving -------------------------------------------------------------

    def build_service(self, config=None, cache_dir: str | Path | None = None):
        """A :class:`~repro.serve.SuggestionService` over this bundle's
        models (zero training steps), optionally backed by a persistent
        suggestion store at ``cache_dir``."""
        from repro.serve import build_service

        return build_service(self, config=config, cache_dir=cache_dir)

    def describe(self) -> str:
        """One-line human summary (CLI banner)."""
        exp = self.experiment or {}
        scale = exp.get("scale")
        return (
            f"suggester bundle: parallel + {len(self.clause_models)} "
            f"clause models ({', '.join(self.clause_models)}), "
            f"vocab {self.vocab.content_hash()[:12]}"
            + (f", trained at scale={scale}" if scale is not None else "")
        )


# -- archive form ------------------------------------------------------------


def pack_bundle(directory: str | Path, archive: str | Path) -> Path:
    """Pack a saved bundle directory into one gzipped-tar archive.

    Members are stored relative to the bundle root in sorted order
    (manifest first only by name), with no timestamps or owners in
    the members or the gzip header, so packing the same content twice
    yields the same bytes — the SHA-256 the fabric addresses bundles
    by.  Refuses anything that is not a bundle directory — archiving
    an arbitrary tree would just defer the failure to some other
    machine's load.
    """
    directory = Path(directory)
    manifest = directory / "manifest.json"
    if not directory.is_dir() or not manifest.is_file():
        raise BundleError(
            f"{directory} is not a saved bundle directory "
            f"(missing manifest.json); save or unpack one first"
        )
    meta = _read_json(manifest)
    if meta.get("kind") != "suggester-bundle":
        raise BundleError(
            f"{directory} is not a suggester bundle "
            f"(kind={meta.get('kind')!r})"
        )
    archive = Path(archive)
    archive.parent.mkdir(parents=True, exist_ok=True)
    with open(archive, "wb") as raw, \
            gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                          mtime=0) as packed, \
            tarfile.open(fileobj=packed, mode="w") as tar:
        for member in sorted(directory.rglob("*")):
            tar.add(member, arcname=str(member.relative_to(directory)),
                    recursive=False, filter=_anonymous)
    return archive


def _anonymous(info: tarfile.TarInfo) -> tarfile.TarInfo:
    """Drop what differs between two packs of the same content."""
    info.mtime = 0
    info.uid = info.gid = 0
    info.uname = info.gname = ""
    return info


def unpack_bundle(archive: str | Path, directory: str | Path) -> Path:
    """Extract a :func:`pack_bundle` archive into ``directory``.

    Extraction is strict: only regular files and directories with
    plain relative names are accepted — a crafted archive with
    absolute paths, ``..`` components, links, or device nodes raises
    :class:`BundleError` instead of writing outside the target.
    """
    archive = Path(archive)
    directory = Path(directory)
    try:
        tar = tarfile.open(archive, "r:*")
    except (OSError, tarfile.TarError) as exc:
        raise BundleError(
            f"cannot read bundle archive {archive}: {exc}"
        ) from exc
    with tar:
        for member in tar.getmembers():
            name = Path(member.name)
            if not (member.isreg() or member.isdir()):
                raise BundleError(
                    f"bundle archive {archive} contains non-file member "
                    f"{member.name!r}; refusing to extract"
                )
            if name.is_absolute() or ".." in name.parts:
                raise BundleError(
                    f"bundle archive {archive} contains unsafe path "
                    f"{member.name!r}; refusing to extract"
                )
        directory.mkdir(parents=True, exist_ok=True)
        try:
            tar.extractall(directory, filter="data")
        except TypeError:  # pre-3.11.4 tarfile: no filter= keyword
            tar.extractall(directory)
    if not (directory / "manifest.json").is_file():
        raise BundleError(
            f"{archive} unpacked without a manifest.json; "
            f"it is not a bundle archive"
        )
    return directory
