"""Command-line entry points.

``repro-dataset``  generate OMP_Serial and write it as jsonl (+ stats)
``repro-train``    train Graph2Par / PragFormer / the GCN ablation
``repro-eval``     regenerate the paper's tables and figures

``repro <command>`` bundles them, plus:

``repro suggest-dir``  the sharded, streaming suggestion service over
                       a whole directory of C files (``--shards N``
                       fans the pipeline out end-to-end across worker
                       processes; ``--stream`` emits NDJSON per file
                       as results land; ``--server ADDR`` serves the
                       same request through a running daemon instead
                       of building models in-process)
``repro serve``        the long-lived suggestion daemon:
                       ``--listen HOST:PORT`` / ``--unix SOCK``
                       multiplexes many clients and corpora over one
                       warm service (``--bundle [NAME=]PATH`` serves
                       trained bundles by name)
``repro bundle``       pack/unpack a saved suggester bundle to/from a
                       single archive file
``repro cache``        maintain a persistent suggestion cache
                       (``gc`` prunes by size/age, ``stats`` reports
                       entry counts/bytes per layer and the in-process
                       analysis memo counters, ``fsck`` removes torn
                       or unreadable entries left by crashed writers;
                       a ``net:HOST:PORT`` cache dir maintains a
                       daemon's store over the wire)
``repro ping``         probe a running daemon: round-trip latency,
                       queue depth, capabilities, degraded bundles

Distributed serving: ``repro suggest-dir --peers A,B --bundle X``
fans the corpus out across running daemons as remote shards — the
bundle archive is pushed to each peer at most once (content-addressed
by SHA-256), peer loss mid-run requeues onto the remaining peers, and
results are byte-identical to the in-process run.

Fault tolerance surfaces here too: ``--faults PLAN`` (on ``serve``,
``suggest-dir`` and ``rewrite-dir``) arms a deterministic
:class:`~repro.serve.faults.FaultPlan` in the process *and* its shard
workers; streaming runs emit supervisor failures (quarantined files,
exhausted retries, expired deadlines) as structured
``{"event": "error", "code": ..., "file": ...}`` NDJSON records
instead of aborting.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial


def dataset_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-dataset",
        description="Generate the OMP_Serial dataset.",
    )
    parser.add_argument("--scale", type=float, default=0.05,
                        help="fraction of the paper's Table-1 counts (1.0 = 32k loops)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="omp_serial.jsonl")
    parser.add_argument("--no-synthetic", action="store_true")
    args = parser.parse_args(argv)

    from repro.dataset import DatasetConfig, generate_omp_serial
    from repro.eval.result import render_table

    dataset = generate_omp_serial(DatasetConfig(
        scale=args.scale, seed=args.seed,
        include_synthetic=not args.no_synthetic,
    ))
    dataset.save(args.out)
    print(f"wrote {len(dataset)} loops to {args.out}")
    print(render_table(dataset.stats()))
    return 0


def train_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-train",
        description="Train a model on OMP_Serial.",
    )
    parser.add_argument("--model", choices=["graph2par", "hgt-ast",
                                            "pragformer", "gcn"],
                        default="graph2par")
    parser.add_argument("--task", choices=["parallel", "private", "reduction",
                                           "simd", "target"],
                        default="parallel")
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--dim", type=int, default=48)
    parser.add_argument("--out", default=None,
                        help="npz path for the trained weights")
    parser.add_argument("--bundle-out", default=None,
                        help="deployable suggester bundle (parallel + all "
                             "clause models + vocab): a directory, or a "
                             "single archive file when the path ends in "
                             ".tar.gz/.tgz; serve it with "
                             "`repro suggest-dir --bundle`")
    args = parser.parse_args(argv)

    from repro.eval.config import ExperimentConfig
    from repro.eval.context import get_context
    from repro.nn import save_state

    if args.bundle_out and args.model != "graph2par":
        print("--bundle-out bundles the aug-AST suggester; "
              "use --model graph2par", file=sys.stderr)
        return 2
    config = ExperimentConfig(scale=args.scale, seed=args.seed,
                              epochs=args.epochs, dim=args.dim)
    ctx = get_context(config)
    if args.model == "graph2par":
        trained = ctx.graph_model(representation="aug", task=args.task)
    elif args.model == "hgt-ast":
        trained = ctx.graph_model(representation="vanilla", task=args.task)
    elif args.model == "gcn":
        trained = ctx.gcn_model(task=args.task)
    else:
        trained = ctx.token_model(task=args.task)
    _, test = ctx.split
    metrics = trained.evaluate_samples(test)
    print(f"{args.model} on task={args.task}: {metrics}")
    if args.out:
        save_state(trained.trainer.model, args.out)
        print(f"weights saved to {args.out}")
    if args.bundle_out:
        from repro.artifacts import SuggesterBundle

        bundle = SuggesterBundle.from_context(ctx)
        if args.bundle_out.endswith((".tar.gz", ".tgz")):
            bundle.export_archive(args.bundle_out)
        else:
            bundle.save(args.bundle_out)
        print(f"bundle saved to {args.bundle_out} ({bundle.describe()})")
    return 0


def eval_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-eval",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="subset of experiments (default: all); e.g. "
                             "table2 figure2")
    parser.add_argument("--profile", choices=["fast", "standard", "paper"],
                        default="fast")
    parser.add_argument("--scale", type=float, default=None,
                        help="override the profile's dataset scale")
    args = parser.parse_args(argv)

    from repro.eval import run_all
    from repro.eval.config import ExperimentConfig

    config = getattr(ExperimentConfig, args.profile)()
    if args.scale is not None:
        config = config.with_(scale=args.scale)
    only = tuple(args.experiments) or None
    run_all(config, only=only, verbose=True)
    return 0


def _ndjson_record(record: dict) -> None:
    """One NDJSON record on stdout, flushed immediately.

    Per-record flushing is load-bearing: downstream consumers (and the
    end-of-stream detector reading for ``{"event": "done"}``) must see
    each record as it lands, not when a block buffer happens to fill.
    """
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


#: stable codes of supervisor-emitted per-file failures — these carry
#: a "code: detail" error string and stream as {"event": "error"}
#: records; plain parse errors do not and stay inline
ERROR_CODES = ("worker-retry", "quarantined", "deadline-exceeded")


def _structured_error(name: str, error: str | None) -> dict | None:
    """The ``{"event": "error", ...}`` record for a structured failure,
    or ``None`` when ``error`` is absent or an ordinary parse error."""
    if not error:
        return None
    code, sep, detail = error.partition(": ")
    if sep and code in ERROR_CODES:
        return {"event": "error", "file": name, "code": code,
                "detail": detail}
    return None


def _arm_faults(spec: str | None) -> bool:
    """Arm a ``--faults`` plan in this process and its shard workers.

    ``spec`` is inline :meth:`FaultPlan.to_json` JSON, or the path of a
    file holding it.  Arming goes through the environment as well so
    spawned worker processes (and a daemon's compute workers) inherit
    the plan.  Returns False (after printing why) on a bad plan.
    """
    if not spec:
        return True
    import os
    from pathlib import Path

    from repro.serve import FaultPlan, faults

    raw = spec
    path = Path(spec)
    try:
        if path.is_file():
            raw = path.read_text()
    except OSError:
        pass
    try:
        plan = FaultPlan.from_json(raw)
    except ValueError as exc:
        print(f"--faults: {exc}", file=sys.stderr)
        return False
    os.environ.update(plan.env())
    faults.activate(plan)
    return True


def _shards_arg(value: str):
    """``--shards`` parser: a positive integer or the string ``auto``."""
    if value == "auto":
        return "auto"
    try:
        shards = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}")
    if shards < 1:
        raise argparse.ArgumentTypeError("shard count must be >= 1")
    return shards


def _parse_peers(spec: str | None) -> tuple[str, ...]:
    """``--peers`` parser: comma-separated daemon addresses."""
    if not spec:
        return ()
    return tuple(p.strip() for p in spec.split(",") if p.strip())


def _provision_fabric(peers: tuple[str, ...],
                      bundle_ref: str) -> tuple[str, ...] | None:
    """Make every peer serve the advisor; returns per-peer names.

    A ``bundle_ref`` that exists locally (bundle directory or archive)
    is distributed content-addressed: each peer is asked for the
    archive's SHA-256 first and the bytes are pushed only on a miss —
    so re-runs against a provisioned fleet ship nothing.  Anything
    else is treated as the *name* of a bundle each peer must already
    serve.  Returns ``None`` (after printing why) when a peer is
    unreachable or refuses the bundle.
    """
    from pathlib import Path

    from repro.client import ClientError, connect

    if Path(bundle_ref).exists():
        import tempfile

        from repro.fabric import archive_for, provision_peers

        with tempfile.TemporaryDirectory(prefix="repro-fabric-") as tmp:
            archive = archive_for(bundle_ref, tmp)
            try:
                report = provision_peers(peers, archive)
            except (ClientError, OSError) as exc:
                print(f"fabric: cannot provision peers: {exc}",
                      file=sys.stderr)
                return None
        for pb in report:
            what = "pushed" if pb.pushed else "cache hit"
            print(f"fabric: peer {pb.peer}: {what} {pb.name} "
                  f"({pb.sha256[:12]})", file=sys.stderr)
        return tuple(pb.name for pb in report)
    for peer in peers:
        try:
            with connect(peer, client_id="repro.fabric/check") as client:
                if bundle_ref not in client.bundles():
                    print(f"fabric: peer {peer} does not serve bundle "
                          f"{bundle_ref!r} (available: "
                          f"{client.bundles()})", file=sys.stderr)
                    return None
        except (ClientError, OSError) as exc:
            print(f"fabric: cannot reach peer {peer}: {exc}",
                  file=sys.stderr)
            return None
    return tuple(bundle_ref for _ in peers)


def _read_corpus(directory, pattern: str) -> list[tuple[str, str]] | None:
    """Every ``pattern`` file under ``directory`` as sorted ``(name,
    source)`` pairs, or ``None`` (after printing why) when one cannot be
    read.

    Every backend serves these same contents — the in-process pipeline,
    a daemon (inline over the wire) and fabric peers (which cannot read
    this filesystem) — which keeps their results byte-identical.
    """
    from pathlib import Path

    named = []
    for path in sorted(Path(directory).rglob(pattern)):
        try:
            named.append((str(path), path.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return None
    return named


#: flags only the in-process backend reads: remote daemons serve with
#: their own models, stores and config
_LOCAL_FLAGS = ("--batch-size", "--cache-dir", "--scale", "--seed",
                "--epochs", "--dim")


def _note_ignored(parser, args, backend: str, flags: tuple) -> None:
    """Name each of ``flags`` that the command line sets but
    ``backend`` ignores, in one note on stderr."""
    ignored = []
    for flag in flags:
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) != parser.get_default(dest):
            ignored.append(flag)
    if ignored:
        print(f"note: {', '.join(ignored)} are ignored with {backend} "
              f"— the daemons' own models, stores and config serve "
              f"the request", file=sys.stderr)


def _connect_server(args, job):
    """A handshaken client for ``--server``, or ``None`` (after printing
    why) when the daemon is unreachable or cannot serve ``job``."""
    from repro.client import ClientError, RetryPolicy, connect

    try:
        # a default RetryPolicy: a busy or restarting daemon is
        # retried with backoff instead of failing the whole run
        client = connect(args.server, retry=RetryPolicy(),
                         deadline_s=args.deadline)
    except (ClientError, OSError) as exc:
        print(f"cannot reach server {args.server}: {exc}",
              file=sys.stderr)
        return None
    if not job.served_by(client.capabilities):
        problem = f"does not support {job.mode} requests (older daemon?)"
    elif args.bundle and args.bundle not in client.bundles():
        problem = (f"does not serve bundle {args.bundle!r} "
                   f"(available: {client.bundles()})")
    else:
        return client
    print(f"server at {args.server} {problem}", file=sys.stderr)
    client.close()
    return None


def _local_service(args):
    """The in-process service over a loaded ``--bundle`` or on-the-fly
    models, or ``None`` (after printing why) for a bad bundle or
    batch size."""
    from repro.serve import ServeConfig, build_service

    try:
        serve_config = ServeConfig(
            batch_size=args.batch_size,
            shards=args.shards if args.shards is not None else 1)
    except ValueError as exc:
        print(f"bad --batch-size: {exc}", file=sys.stderr)
        return None
    if args.bundle:
        from repro.artifacts import ArtifactError, SuggesterBundle

        try:
            source = SuggesterBundle.load(args.bundle)
        except ArtifactError as exc:
            print(f"cannot load bundle: {exc}", file=sys.stderr)
            return None
        print(f"loaded {source.describe()}",
              file=sys.stderr if args.stream else sys.stdout)
    else:
        from repro.eval.config import ExperimentConfig
        from repro.eval.context import get_context

        source = get_context(ExperimentConfig(
            scale=args.scale, seed=args.seed, epochs=args.epochs,
            dim=args.dim,
        ))
    return build_service(source, serve_config, cache_dir=args.cache_dir)


class _SuggestDir:
    """``repro suggest-dir``: one suggestion record per file."""

    mode = "suggest"
    prog = "repro suggest-dir"
    description = ("Suggest complete OpenMP pragmas for every loop of "
                   "every C file under a directory (batched serving).")
    #: flags only this command has, placed right after --pattern
    flags: tuple = ()
    help = {
        "server": "serve through a running `repro serve` daemon at "
                  "HOST:PORT or unix:/path.sock instead of building "
                  "models in-process; file contents travel over the "
                  "wire, results are byte-identical",
        "peers": "comma-separated addresses of running daemons: fan "
                 "the corpus out across them as remote shards (one "
                 "per peer); a peer lost mid-run requeues onto the "
                 "rest; requires --bundle (a local bundle path is "
                 "pushed content-addressed, at most once per peer; a "
                 "bare name must already be served by every peer); "
                 "mutually exclusive with --server",
        "shards": "end-to-end corpus shards: the whole parse/encode/"
                  "forward pipeline runs in N worker processes (1 = "
                  "in-process, 'auto' picks a count from corpus size "
                  "and CPUs; with --server, overrides the daemon's "
                  "per-request fan-out; ignored with --peers, which "
                  "runs one remote shard per peer)",
        "bundle": "serve a trained bundle saved by `repro train "
                  "--bundle-out` (zero training steps); default trains "
                  "fast-profile models on the fly; with --server, the "
                  "*name* of a bundle the daemon serves",
        "cache_dir": "persistent suggestion cache: warm runs over "
                     "unchanged files skip parsing and inference "
                     "(ignored with --server and --peers: the daemons "
                     "own their caches)",
        "out": "write suggestions to this JSON file",
    }
    #: "<failing> failed: ..." when serving breaks mid-run
    failing = "serving"
    #: "<written> written to OUT"
    written = "suggestions"
    #: the summary's counts after "N loops across M files"
    summary = ""

    @staticmethod
    def record(r) -> dict:
        return {"file": r.name, "error": r.error,
                "suggestions": [s.to_dict() for s in r.suggestions]}

    @staticmethod
    def loops(r) -> int:
        return len(r.suggestions)

    @staticmethod
    def tally(results) -> dict:
        return {}

    @staticmethod
    def lines(r, quiet: bool) -> list[str]:
        lines = [f"{r.name}: {len(r.suggestions)} loops, "
                 f"{r.n_parallel} parallelizable"]
        if not quiet:
            lines += ["  " + (s.pragma if s.parallel
                              else f"// sequential: {s.rationale}")
                      for s in r.suggestions]
        return lines

    @staticmethod
    def done_stats(service) -> dict:
        return {}

    @staticmethod
    def footer(args, service) -> str | None:
        if not args.cache_dir or service is None:
            return None
        stats = service.cache_stats()
        store, forwards = stats["store"], stats["forwards"]
        return (f"cache: {store['suggest_hits']} files warm, "
                f"{store['suggest_misses']} computed "
                f"({forwards['graphs']} graph forwards)")


class _RewriteDir:
    """``repro rewrite-dir``: one verified rewrite record per file."""

    mode = "rewrite"
    prog = "repro rewrite-dir"
    description = ("Apply suggested OpenMP pragmas as verified "
                   "source-to-source rewrites for every C file under "
                   "a directory. Each accepted loop gets its complete "
                   "clause list; every transform is gated by "
                   "differential execution (sequential vs simulated-"
                   "parallel) and refused with a stable reason code "
                   "on divergence.")
    flags = (("--verify", dict(
        action=argparse.BooleanOptionalAction, default=True,
        help="gate every rewrite on the interpreter verifier "
             "(default: on; --no-verify accepts analyzable loops "
             "unchecked, reported with code 'unverified')")),)
    help = {
        "server": "rewrite through a running `repro serve` daemon at "
                  "HOST:PORT or unix:/path.sock instead of building "
                  "models in-process; results are byte-identical",
        "peers": "comma-separated addresses of running daemons: fan "
                 "the corpus out across them as remote shards (one "
                 "per peer); a peer lost mid-run requeues onto the "
                 "rest; requires --bundle; mutually exclusive with "
                 "--server",
        "shards": "end-to-end corpus shards for the suggestion stage "
                  "(1 = in-process, 'auto' picks a count; with "
                  "--server, overrides the daemon's per-request "
                  "fan-out; ignored with --peers, which runs one "
                  "remote shard per peer)",
        "bundle": "serve a trained bundle saved by `repro train "
                  "--bundle-out`; default trains fast-profile models "
                  "on the fly; with --server, the *name* of a bundle "
                  "the daemon serves",
        "cache_dir": "persistent cache shared with suggest-dir: warm "
                     "runs skip parsing and inference for the "
                     "suggestion stage and replay stored verdicts "
                     "instead of re-simulating loops (ignored with "
                     "--server and --peers)",
        "out": "write rewrite results (including the full rewritten "
               "sources) to this JSON file",
    }
    failing = "rewriting"
    written = "rewrites"
    summary = ": {accepted} rewritten, {refused} refused"

    @staticmethod
    def record(r) -> dict:
        return {"file": r.name, "error": r.error,
                "rewrites": [rw.to_dict() for rw in r.rewrites],
                "rewritten_source": r.rewritten_source}

    @staticmethod
    def loops(r) -> int:
        return len(r.rewrites)

    @staticmethod
    def tally(results) -> dict:
        return {"accepted": sum(r.n_accepted for r in results),
                "refused": sum(r.n_refused for r in results)}

    @staticmethod
    def lines(r, quiet: bool) -> list[str]:
        lines = [f"{r.name}: {len(r.rewrites)} loops, "
                 f"{r.n_accepted} rewritten, {r.n_refused} refused"]
        if not quiet:
            for rw in r.rewrites:
                if rw.accepted:
                    lines.append(f"  [{rw.code}] {rw.pragma}")
                else:
                    lines.append(f"  [{rw.code}] {rw.detail}"
                                 if rw.detail else f"  [{rw.code}]")
        return lines

    @staticmethod
    def done_stats(service) -> dict:
        # verifier counters (in-process only: the daemon keeps its
        # own); "simulations": 0 is the warm-cache contract
        if service is None:
            return {}
        verifier = service.cache_stats()["verify"]
        return {"verifier": verifier,
                "simulations": verifier["simulations"]}

    @staticmethod
    def footer(args, service) -> str | None:
        if service is None or not args.verify:
            return None
        v = service.cache_stats()["verify"]
        return (f"verifier: {v['simulations']} simulations "
                f"({v['compiled_runs']} compiled, "
                f"{v['interpreted_runs']} interpreted runs, "
                f"{v['cached_verdicts']} cached verdicts) in "
                f"{v['elapsed_s']:.2f}s")


def dir_main(command, argv: list[str] | None = None) -> int:
    """``repro suggest-dir`` / ``repro rewrite-dir``: read the corpus
    once, build the job, serve it through one backend — in-process,
    ``--server`` or ``--peers`` — and report.  ``command``
    (:class:`_SuggestDir` or :class:`_RewriteDir`) supplies what
    differs: help texts, the record shape, per-file lines, done-record
    fields and summary lines."""
    parser = argparse.ArgumentParser(prog=command.prog,
                                     description=command.description)
    parser.add_argument("directory", help="directory of C files")
    parser.add_argument("--pattern", default="*.c",
                        help="glob for source files (default: *.c)")
    for flag, options in command.flags:
        parser.add_argument(flag, **options)
    parser.add_argument("--server", default=None, metavar="ADDR",
                        help=command.help["server"])
    parser.add_argument("--peers", default=None, metavar="A,B",
                        help=command.help["peers"])
    parser.add_argument("--shards", type=_shards_arg, default=None,
                        help=command.help["shards"])
    parser.add_argument("--stream", action="store_true",
                        help="emit one NDJSON record per file on stdout "
                             "as results complete, then a final "
                             '{"event": "done", ...} summary record '
                             "(the human-readable summary goes to "
                             "stderr)")
    parser.add_argument("--batch-size", type=int, default=256,
                        help="graphs per forward pass and loops per full round (≥1)")
    parser.add_argument("--bundle", default=None,
                        help=command.help["bundle"])
    parser.add_argument("--cache-dir", default=None,
                        help=command.help["cache_dir"])
    parser.add_argument("--scale", type=float, default=0.02,
                        help="training-set scale for the on-the-fly models")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--out", default=None, help=command.help["out"])
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-loop output")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="S",
                        help="with --server: per-request deadline in "
                             "seconds; the daemon aborts queued or "
                             "mid-stream work past it with a "
                             "'deadline-exceeded' error")
    parser.add_argument("--faults", default=None, metavar="PLAN",
                        help="arm a deterministic fault plan (inline "
                             "JSON or a file of it) in this process "
                             "and its shard workers — chaos testing "
                             "only")
    parser.set_defaults(verify=True)
    args = parser.parse_args(argv)

    from repro.serve import Job, ServeError

    if not _arm_faults(args.faults):
        return 2
    if args.deadline is not None and not args.deadline > 0:
        print(f"bad --deadline: must be a positive number of seconds, "
              f"got {args.deadline:g}", file=sys.stderr)
        return 2
    peers = _parse_peers(args.peers)
    if args.peers is not None and not peers:
        print(f"--peers names no daemon address: {args.peers!r}",
              file=sys.stderr)
        return 2
    if peers and args.server:
        print("--peers and --server are mutually exclusive",
              file=sys.stderr)
        return 2
    if peers and not args.bundle:
        print("--peers requires --bundle: the advisor every peer "
              "serves (a local bundle path, or a name they "
              "already serve)", file=sys.stderr)
        return 2
    named = _read_corpus(args.directory, args.pattern)
    if named is None:
        return 2
    job = Job(command.mode, verify=args.verify)
    client = service = None
    if peers:
        # one remote shard per peer, each peer serving from its own
        # store without a deadline
        _note_ignored(parser, args, "--peers",
                      _LOCAL_FLAGS + ("--shards", "--deadline"))
        peer_bundles = _provision_fabric(peers, args.bundle)
        if peer_bundles is None:
            return 2
    elif args.server:
        _note_ignored(parser, args, "--server", _LOCAL_FLAGS)
        client = _connect_server(args, job)
        if client is None:
            return 2
    else:
        service = _local_service(args)
        if service is None:
            return 2

    summary_out = sys.stderr if args.stream else sys.stdout
    start = time.perf_counter()
    try:
        # --stream takes results as they complete: the first finished
        # file prints long before the last shard completes
        if peers:
            from repro.fabric import stream_fabric

            results = stream_fabric(peers, named, job=job,
                                    peer_bundles=peer_bundles,
                                    ordered=not args.stream)
        elif client is not None:
            results = client.submit(job.request(
                sources=tuple(named), bundle=args.bundle,
                ordered=not args.stream, stream=args.stream,
                shards=args.shards))
        else:
            results = service.stream_sources(named, job=job,
                                             ordered=not args.stream)
        if args.stream:
            # stdout carries pure NDJSON, closed by one {"event":
            # "done", ...} summary record so consumers can tell a
            # clean end from a dropped pipe
            by_name = {}
            for r in results:
                _ndjson_record(_structured_error(r.name, r.error)
                               or command.record(r))
                by_name[r.name] = r
            results = [by_name[name] for name, _ in named]
            _ndjson_record({
                "event": "done",
                "files": len(results),
                "loops": sum(command.loops(r) for r in results),
                **command.tally(results),
                "errors": sum(1 for r in results if r.error),
                "elapsed_s": round(time.perf_counter() - start, 3),
                **command.done_stats(service),
            })
        else:
            results = list(results)
    except ServeError as exc:
        print(f"{command.failing} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if client is not None:
            client.close()
    elapsed = time.perf_counter() - start
    if not results:
        print(f"no files matching {args.pattern!r} under {args.directory}",
              file=summary_out)
        return 1

    n_loops = sum(command.loops(r) for r in results)
    n_errors = sum(1 for r in results if r.error)
    if not args.stream:              # per-file records already emitted
        for r in results:
            if r.error:
                print(f"{r.name}: SKIPPED ({r.error})")
                continue
            for line in command.lines(r, args.quiet):
                print(line)
    rate = n_loops / elapsed if elapsed > 0 else float("inf")
    counts = command.summary.format(**command.tally(results))
    print(f"{n_loops} loops across {len(results)} files{counts} "
          f"({n_errors} unparseable) in {elapsed:.2f}s "
          f"({rate:.0f} loops/s)", file=summary_out)
    footer = command.footer(args, service)
    if footer is not None:
        print(footer, file=summary_out)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump([command.record(r) for r in results], fh, indent=2)
        print(f"{command.written} written to {args.out}",
              file=summary_out)
    return 0


def serve_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the long-lived suggestion daemon: one warm "
                    "service (shared store, loaded models) multiplexing "
                    "many concurrent clients and corpora.",
    )
    net = parser.add_mutually_exclusive_group(required=True)
    net.add_argument("--listen", metavar="HOST:PORT",
                     help="bind a TCP address (PORT 0 = ephemeral)")
    net.add_argument("--unix", metavar="SOCK",
                     help="bind a unix stream socket at this path")
    parser.add_argument("--bundle", action="append", default=[],
                        metavar="[NAME=]PATH",
                        help="serve a trained bundle (directory or "
                             "archive) under NAME (default: derived "
                             "from the path); repeatable — clients "
                             "select by name, the first one is the "
                             "default")
    parser.add_argument("--accept-bundles", action="store_true",
                        help="accept content-addressed bundle pushes "
                             "over the wire: pushed archives are "
                             "verified by SHA-256, cached under the "
                             "cache dir, and served immediately; with "
                             "no --bundle the daemon starts *empty* "
                             "(no on-the-fly training) and acquires "
                             "every advisor from its clients")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent suggestion store shared by "
                             "every client (default: a fresh "
                             "per-daemon temp dir, so concurrent "
                             "clients still share warm results)")
    parser.add_argument("--shards", type=_shards_arg, default=1,
                        help="default end-to-end shard fan-out per "
                             "request ('auto' picks from corpus size "
                             "and CPUs; clients can override per "
                             "request)")
    parser.add_argument("--batch-size", type=int, default=256,
                        help="graphs per forward pass and loops per full round (≥1)")
    parser.add_argument("--scale", type=float, default=0.02,
                        help="training-set scale for the on-the-fly "
                             "models when no --bundle is given")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--batch-window-ms", type=float, default=None,
                        metavar="MS",
                        help="micro-batch window: how long an idle "
                             "bundle waits for concurrent requests to "
                             "coalesce into one forward (default: "
                             "2.0; flushes immediately when only one "
                             "client is connected, so single-client "
                             "latency does not regress)")
    parser.add_argument("--queue-depth", type=int, default=None,
                        metavar="N",
                        help="waiting requests per bundle before "
                             "admission refuses with a 'busy' error "
                             "frame (default: 64)")
    parser.add_argument("--round-files", type=int, default=None,
                        metavar="N",
                        help="files per coalesced compute round — the "
                             "fairness quantum: a bulk request is "
                             "chunked at this grain so interactive "
                             "requests join every round (default: 256)")
    parser.add_argument("--allow-local-dir", action="append",
                        default=[], metavar="DIR",
                        help="let clients request suggestions for "
                             "paths/dirs under DIR on the *server's* "
                             "filesystem (repeatable; default: "
                             "disabled — clients must send file "
                             "contents inline)")
    parser.add_argument("--ready-file", default=None,
                        help="after binding, write the actual listen "
                             "address to this file (scripts polling "
                             "for readiness, ephemeral ports)")
    parser.add_argument("--faults", default=None, metavar="PLAN",
                        help="arm a deterministic fault plan (inline "
                             "JSON or a file of it) in the daemon and "
                             "its shard workers — chaos testing only")
    args = parser.parse_args(argv)

    from repro.serve import (
        PROTOCOL_VERSION,
        ServeConfig,
        SuggestServer,
        build_service,
    )

    if not _arm_faults(args.faults):
        return 2

    try:
        serve_config = ServeConfig(batch_size=args.batch_size,
                                   shards=args.shards)
    except ValueError as exc:
        print(f"bad --batch-size: {exc}", file=sys.stderr)
        return 2
    for flag, value in (("--queue-depth", args.queue_depth),
                        ("--round-files", args.round_files)):
        if value is not None and value < 1:
            print(f"bad {flag}: must be at least 1, got {value}",
                  file=sys.stderr)
            return 2
    net_kwargs = {}
    if args.unix:
        net_kwargs["unix_path"] = args.unix
    else:
        host, sep, port = args.listen.rpartition(":")
        if not sep or not port.isdigit() or int(port) > 65535:
            print(f"--listen expects HOST:PORT with PORT in 0-65535, "
                  f"got {args.listen!r}", file=sys.stderr)
            return 2
        net_kwargs["host"] = host or "127.0.0.1"
        net_kwargs["port"] = int(port)
    if args.allow_local_dir:
        net_kwargs["local_roots"] = tuple(args.allow_local_dir)
    if args.batch_window_ms is not None:
        net_kwargs["batch_window_ms"] = args.batch_window_ms
    if args.queue_depth is not None:
        net_kwargs["queue_depth"] = args.queue_depth
    if args.round_files is not None:
        net_kwargs["round_files"] = args.round_files

    if args.bundle:
        from repro.artifacts import ArtifactError, BundleRegistry

        try:
            registry, degraded = \
                BundleRegistry.from_specs_tolerant(args.bundle)
        except (ArtifactError, ValueError) as exc:
            print(f"cannot load bundles: {exc}", file=sys.stderr)
            return 2
        for name, reason in sorted(degraded.items()):
            # degraded startup: a corrupt artifact costs one bundle,
            # not the whole daemon — clients see it in capabilities
            print(f"serve: bundle {name!r} failed to load, starting "
                  f"degraded without it: {reason}", file=sys.stderr)
        if not len(registry):
            print("cannot load bundles: every --bundle failed to load",
                  file=sys.stderr)
            return 2
        if degraded:
            net_kwargs["degraded"] = degraded
    else:
        registry = None

    import shutil
    import signal
    import tempfile
    from pathlib import Path

    cache_dir = args.cache_dir
    #: process-lifetime temp dirs, removed again on shutdown
    ephemeral = []
    try:
        if cache_dir is None:
            # without a store the daemon cannot share warm results
            # across clients — its whole reason to exist — so default
            # to a process-lifetime temp store rather than no store
            cache_dir = tempfile.mkdtemp(prefix="repro-serve-cache-")
            ephemeral.append(cache_dir)
            print(f"serve: using ephemeral cache {cache_dir} "
                  f"(pass --cache-dir to persist)", file=sys.stderr)

        if args.accept_bundles:
            if str(cache_dir).startswith("net:"):
                # a network store has no local root to cache pushed
                # archives under
                net_kwargs["bundle_cache_dir"] = tempfile.mkdtemp(
                    prefix="repro-serve-bundles-")
                ephemeral.append(net_kwargs["bundle_cache_dir"])
            else:
                net_kwargs["bundle_cache_dir"] = Path(cache_dir) / "bundles"

        services = {}
        if registry is not None:
            note = (f"serve: loaded bundles {registry.names()} "
                    f"(default: {registry.default})")
        elif args.accept_bundles:
            # self-provisioning peer: no training, no bundles — every
            # advisor arrives as a content-addressed push from a client
            note = "serve: no advisors yet; accepting pushed bundles"
        else:
            from repro.eval.config import ExperimentConfig
            from repro.eval.context import get_context

            ctx = get_context(ExperimentConfig(
                scale=args.scale, seed=args.seed, epochs=args.epochs,
                dim=args.dim,
            ))
            services = {"default": build_service(ctx, serve_config,
                                                 cache_dir=cache_dir)}
            note = "serve: trained on-the-fly models (bundle 'default')"
        try:
            if registry is not None:
                server = SuggestServer.from_registry(
                    registry, serve_config, cache_dir=cache_dir,
                    **net_kwargs)
            else:
                server = SuggestServer(services, serve_config=serve_config,
                                       cache_dir=cache_dir, **net_kwargs)
        except OSError as exc:
            print(f"cannot listen on {args.unix or args.listen}: {exc}",
                  file=sys.stderr)
            return 2
        print(note, file=sys.stderr)

        print(f"serve: listening on {server.address} "
              f"(protocol v{PROTOCOL_VERSION})",
              file=sys.stderr, flush=True)
        if args.ready_file:
            Path(args.ready_file).write_text(server.address)

        def _stop(signum, frame):
            import threading

            # shutdown() joins handler threads; never call it from the
            # signal frame on the serving thread
            threading.Thread(target=server.shutdown, daemon=True).start()

        try:
            signal.signal(signal.SIGTERM, _stop)
            signal.signal(signal.SIGINT, _stop)
        except ValueError:
            pass        # not on the main thread (embedded/test use)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
    finally:
        for path in ephemeral:
            shutil.rmtree(path, ignore_errors=True)
    print("serve: drained and stopped", file=sys.stderr)
    return 0


def bundle_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bundle",
        description="Convert a saved suggester bundle between its "
                    "directory form and a single archive file.",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    pack = sub.add_parser("pack",
                          help="bundle directory -> one archive file")
    pack.add_argument("directory", help="saved bundle directory")
    pack.add_argument("archive", help="output archive path (.tar.gz)")
    unpack = sub.add_parser("unpack",
                            help="archive file -> bundle directory")
    unpack.add_argument("archive", help="bundle archive file")
    unpack.add_argument("directory", help="output directory")
    args = parser.parse_args(argv)

    from repro.artifacts import BundleError, pack_bundle, unpack_bundle

    try:
        if args.action == "pack":
            path = pack_bundle(args.directory, args.archive)
            print(f"packed {args.directory} -> {path} "
                  f"({path.stat().st_size} bytes)")
        else:
            path = unpack_bundle(args.archive, args.directory)
            print(f"unpacked {args.archive} -> {path}")
    except BundleError as exc:
        print(f"bundle {args.action} failed: {exc}", file=sys.stderr)
        return 2
    return 0


def cache_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Maintain a persistent suggestion cache "
                    "(the --cache-dir of `repro suggest-dir`).",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    gc = sub.add_parser("gc", help="prune the cache by size and/or age")
    gc.add_argument("cache_dir", help="cache directory to prune")
    gc.add_argument("--max-bytes", type=int, default=None,
                    help="keep at most this many bytes of entries "
                         "(least-recently-written evicted first)")
    gc.add_argument("--max-age-days", type=float, default=None,
                    help="drop entries older than this many days "
                         "(applied before --max-bytes)")
    gc.add_argument("--json", action="store_true",
                    help="emit the structured gc report (totals + "
                         "files/bytes pruned per layer) as one JSON "
                         "object")
    stats = sub.add_parser(
        "stats",
        help="inspect a cache directory (entry counts/bytes per layer) "
             "plus the in-process analysis memo counters")
    stats.add_argument("cache_dir", help="cache directory to inspect")
    stats.add_argument("--json", action="store_true",
                       help="emit one machine-readable JSON object")
    fsck = sub.add_parser(
        "fsck",
        help="scan every layer for torn or unreadable entries (a "
             "writer that died mid-write, disk corruption) and remove "
             "them — readers degrade such entries to recompute on "
             "every hit until fsck reclaims them; stale *.tmp files "
             "are reclaimed too")
    fsck.add_argument("cache_dir", help="cache directory to check")
    fsck.add_argument("--dry-run", action="store_true",
                      help="report corrupt entries without removing "
                           "anything")
    fsck.add_argument("--json", action="store_true",
                      help="emit the structured fsck report as one "
                           "JSON object")
    args = parser.parse_args(argv)

    if (args.action == "gc" and args.max_bytes is None
            and args.max_age_days is None):
        print("cache gc: pass --max-bytes and/or --max-age-days "
              "(otherwise there is nothing to prune)", file=sys.stderr)
        return 2
    from repro.client import ClientError
    from repro.serve import open_store

    store = open_store(args.cache_dir)
    try:
        if args.action == "fsck":
            report = store.fsck(remove=not args.dry_run)
        elif args.action == "stats":
            report = store.describe()
        else:
            report = store.gc(max_bytes=args.max_bytes,
                              max_age_days=args.max_age_days)
    except (ClientError, OSError) as exc:
        # a net: store's maintenance raises when its daemon is gone
        print(f"cannot reach store {args.cache_dir}: {exc}",
              file=sys.stderr)
        return 2

    if args.action == "fsck":
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0
        verb = "found" if args.dry_run else "removed"
        print(f"cache fsck: scanned {report['scanned']} entries, "
              f"{verb} {report['corrupt']} corrupt, reclaimed "
              f"{report['stale_tmp']} stale tmp files")
        for layer in ("parse", "suggest", "verdict", "other"):
            counters = report["layers"][layer]
            if counters["corrupt"]:
                print(f"  {layer}: {counters['corrupt']} corrupt of "
                      f"{counters['scanned']} scanned")
        return 0

    if args.action == "stats":
        from repro.tools.deps import cache_stats as deps_cache_stats

        # note: no store hit/miss counters here — those are per-process
        # (this process did no lookups); the on-disk scan is the truth
        payload = {
            "store": report,
            "analyze_loop": deps_cache_stats(),
        }
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        d = payload["store"]
        if not d["exists"]:
            print(f"cache {d['root']}: not created yet")
        else:
            print(f"cache {d['root']}: {d['total_bytes']} bytes")
            print(f"  parse: {d['parse']['entries']} entries "
                  f"({d['parse']['bytes']} bytes)")
            print(f"  suggest: {d['suggest']['entries']} entries "
                  f"({d['suggest']['bytes']} bytes) across "
                  f"{d['suggest']['models']} model fingerprints")
            print(f"  verdict: {d['verdict']['entries']} entries "
                  f"({d['verdict']['bytes']} bytes)")
        memo = payload["analyze_loop"]
        print(f"analyze_loop memo (this process): {memo['entries']} "
              f"entries, {memo['hits']} hits, {memo['misses']} misses")
        return 0

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"cache gc: removed {report['removed_files']} entries "
          f"({report['removed_bytes']} bytes), kept "
          f"{report['kept_files']} ({report['kept_bytes']} bytes)")
    for layer in ("parse", "suggest", "verdict", "other"):
        counters = report["layers"][layer]
        if any(counters.values()):
            print(f"  {layer}: removed {counters['removed_files']} "
                  f"({counters['removed_bytes']} bytes), kept "
                  f"{counters['kept_files']} "
                  f"({counters['kept_bytes']} bytes)")
    return 0


def ping_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro ping",
        description="Probe a running `repro serve` daemon: round-trip "
                    "latency, admission queue depth, capabilities, and "
                    "degraded bundles.",
    )
    parser.add_argument("address", help="HOST:PORT or unix:/path.sock")
    parser.add_argument("--timeout", type=float, default=10.0,
                        metavar="S", help="connect/read timeout "
                        "(default: 10s)")
    parser.add_argument("--json", action="store_true",
                        help="emit one machine-readable JSON object")
    args = parser.parse_args(argv)

    from repro.client import ClientError, connect

    start = time.perf_counter()
    try:
        with connect(args.address, timeout=args.timeout,
                     client_id="repro.ping") as client:
            pong = client.ping()
    except (ClientError, OSError) as exc:
        print(f"no pong from {args.address}: {exc}", file=sys.stderr)
        return 1
    rtt_ms = (time.perf_counter() - start) * 1e3
    caps = pong.capabilities or client.capabilities
    if args.json:
        print(json.dumps({
            "address": args.address,
            "rtt_ms": round(rtt_ms, 3),
            "queued": pong.queued,
            "running": pong.running,
            "capabilities": caps,
        }, indent=2, sort_keys=True))
        return 0
    print(f"pong from {args.address} in {rtt_ms:.1f}ms "
          f"(handshake + probe)")
    print(f"  load: {pong.queued} queued requests, "
          f"{pong.running} running rounds")
    bundles = caps.get("bundles", [])
    default = caps.get("default_bundle")
    if bundles:
        print(f"  bundles: {', '.join(bundles)} (default: {default})")
    else:
        print("  bundles: none yet")
    fabric = []
    if caps.get("bundle_push"):
        fabric.append("accepts pushed bundles")
    if caps.get("network_store"):
        fabric.append("shares its suggestion store")
    if caps.get("fabric"):
        print(f"  fabric: {', '.join(fabric) if fabric else 'peer only'}")
    degraded = caps.get("degraded", {})
    for name, reason in sorted(degraded.items()):
        print(f"  degraded: {name} ({reason})")
    return 0


_COMMANDS = {
    "dataset": dataset_main,
    "train": train_main,
    "eval": eval_main,
    "suggest-dir": partial(dir_main, _SuggestDir),
    "rewrite-dir": partial(dir_main, _RewriteDir),
    "serve": serve_main,
    "ping": ping_main,
    "bundle": bundle_main,
    "cache": cache_main,
}


def main(argv: list[str] | None = None) -> int:
    """The ``repro`` umbrella command."""
    argv = list(sys.argv[1:] if argv is None else argv)
    usage = f"usage: repro {{{','.join(_COMMANDS)}}} [options]"
    if not argv or argv[0] in ("-h", "--help"):
        print(usage)
        return 0 if argv else 2
    command = argv[0]
    if command not in _COMMANDS:
        print(f"unknown command {command!r}\n{usage}", file=sys.stderr)
        return 2
    return _COMMANDS[command](argv[1:])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
