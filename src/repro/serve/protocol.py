"""The versioned wire protocol of the suggestion server.

Every conversation between :mod:`repro.client` and
:mod:`repro.serve.server` is a sequence of *frames*: a 4-byte
big-endian unsigned length followed by that many bytes of UTF-8 JSON.
The JSON object always carries a ``kind`` naming one of the typed
messages below; everything else is schema-checked on decode, so a
malformed peer produces a :class:`ProtocolError` with a stable error
code instead of an ``AttributeError`` three layers deeper.

The conversation shape::

    client                          server
    ------                          ------
    Hello(protocol, client)   -->
                              <--   HelloOk(protocol, server,
                                            capabilities)
    SuggestRequest(sources,   -->
                   bundle,
                   stream, ...)
                              <--   FileResult ...   (stream=True)
                              <--   FileResult
                              <--   Done(files, errors, stats)
    SuggestRequest(stream=False) -->
                              <--   BatchResult(files) + Done
    Goodbye                   -->   (connection closes)

A protocol-version mismatch is refused at the handshake with an
:class:`Error` frame (code ``protocol-mismatch``) before any request
is accepted.  Frame-level violations (over-long or truncated frames,
bytes that are not JSON) use code ``bad-frame`` and close the
connection; request-level problems (unknown bundle, a serving failure,
an admission queue at capacity — code ``busy``) are reported as
:class:`Error` frames with the connection kept alive, so a ``busy``
client can simply retry on the same connection after a short backoff.

Payloads carry only JSON-shaped data — the exact
``FileSuggestions.to_payload()`` dicts the persistent store writes —
never pickles, so the protocol is language-agnostic and the served
suggestions are byte-identical to the in-process path.

``PROTOCOL_VERSION`` bumps whenever an existing frame changes shape
incompatibly; capability entries in the handshake cover additive
evolution without a version bump.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace

from repro.serve.store import STORE_LAYERS

#: bump on incompatible changes to any frame shape
PROTOCOL_VERSION = 1

#: refuse frames longer than this many payload bytes (a corrupt or
#: hostile length prefix must not make the peer allocate gigabytes)
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: byte length of a frame's length prefix
HEADER_SIZE = _HEADER.size


class ProtocolError(RuntimeError):
    """A peer violated the wire protocol.

    ``code`` is one of the stable error-frame codes: ``bad-frame``
    (framing/JSON-level, connection must close), ``bad-request``
    (schema-level, the frame decoded but is not a valid message),
    ``protocol-mismatch`` (handshake refusal), ``unknown-bundle``,
    ``serve-error``, ``shutting-down``, ``busy`` (request-level;
    ``busy`` means the bundle's admission queue is full — back off
    and retry on the same connection), ``deadline-exceeded`` (the
    request's own ``deadline_s`` ran out before it finished),
    ``hash-mismatch`` (a pushed bundle archive's bytes do not hash to
    the sha256 it claimed) and ``no-store`` (a store operation against
    a daemon running without a persistent cache).
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


# -- framing -----------------------------------------------------------------


def encode_frame(obj: dict, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """One wire frame: length prefix + compact JSON body."""
    body = json.dumps(obj, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    if len(body) > max_bytes:
        raise ProtocolError(
            "bad-frame",
            f"frame of {len(body)} bytes exceeds the {max_bytes}-byte "
            f"limit",
        )
    return _HEADER.pack(len(body)) + body


def write_frame(wfile, obj: dict,
                max_bytes: int = MAX_FRAME_BYTES) -> None:
    """Write one frame to a binary file-like and flush it."""
    wfile.write(encode_frame(obj, max_bytes))
    wfile.flush()


def _read_exact(rfile, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a boundary."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = rfile.read(n - got)
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(
                "bad-frame",
                f"connection closed mid-frame ({got}/{n} bytes)",
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(rfile, max_bytes: int = MAX_FRAME_BYTES) -> dict | None:
    """Read one frame from a binary file-like.

    Returns the decoded JSON object, or ``None`` when the peer closed
    the connection cleanly between frames.  Anything else — an
    over-long length prefix, a mid-frame hangup, bytes that are not a
    JSON object — raises :class:`ProtocolError` (code ``bad-frame``).
    """
    header = _read_exact(rfile, _HEADER.size)
    if header is None:
        return None
    length = parse_frame_length(header, max_bytes)
    body = _read_exact(rfile, length)
    if body is None:        # EOF right after a header: still mid-frame
        raise ProtocolError("bad-frame",
                            "connection closed between header and body")
    return decode_frame_body(body)


def decode_frame_body(body: bytes) -> dict:
    """Frame payload bytes → JSON object, or ``bad-frame``."""
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("bad-frame",
                            f"frame body is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("bad-frame",
                            f"frame body is {type(obj).__name__}, "
                            f"expected an object")
    return obj


def parse_frame_length(header: bytes,
                       max_bytes: int = MAX_FRAME_BYTES) -> int:
    """Length prefix bytes → body length, bounds-checked."""
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            "bad-frame",
            f"declared frame length {length} exceeds the "
            f"{max_bytes}-byte limit",
        )
    return length


# -- schema helpers ----------------------------------------------------------

_MISSING = object()


def _get(payload: dict, key: str, types, default=_MISSING):
    """Schema-checked field access over a decoded frame.

    Optional fields (those with a ``default``) treat an explicit JSON
    ``null`` the same as absence, so encoders may always emit every
    key.
    """
    value = payload.get(key, _MISSING)
    if value is _MISSING or (value is None and default is not _MISSING):
        if default is not _MISSING:
            return default
        raise ProtocolError("bad-request",
                            f"{payload.get('kind', '?')} frame is "
                            f"missing required field {key!r}")
    if not isinstance(value, types):
        names = (types.__name__ if isinstance(types, type)
                 else "/".join(t.__name__ for t in types))
        raise ProtocolError(
            "bad-request",
            f"{payload.get('kind', '?')}.{key} must be {names}, "
            f"got {type(value).__name__}",
        )
    return value


# -- messages ----------------------------------------------------------------


@dataclass(frozen=True)
class Hello:
    """Client → server handshake opener."""

    KIND = "hello"

    protocol: int = PROTOCOL_VERSION
    client: str = "repro.client"

    def to_wire(self) -> dict:
        return {"kind": self.KIND, "protocol": self.protocol,
                "client": self.client}

    @classmethod
    def from_wire(cls, payload: dict) -> "Hello":
        return cls(protocol=_get(payload, "protocol", int),
                   client=_get(payload, "client", str, default=""))


@dataclass(frozen=True)
class HelloOk:
    """Server → client handshake acceptance + capability advertisement.

    ``capabilities`` is additive-evolution space: today it names the
    served bundles (``bundles``, ``default_bundle``), the clause
    families, the frame limit, and whether results stream.
    """

    KIND = "hello_ok"

    protocol: int = PROTOCOL_VERSION
    server: str = "repro.serve"
    capabilities: dict = field(default_factory=dict)

    def to_wire(self) -> dict:
        return {"kind": self.KIND, "protocol": self.protocol,
                "server": self.server,
                "capabilities": dict(self.capabilities)}

    @classmethod
    def from_wire(cls, payload: dict) -> "HelloOk":
        return cls(protocol=_get(payload, "protocol", int),
                   server=_get(payload, "server", str, default=""),
                   capabilities=_get(payload, "capabilities", dict,
                                     default={}))


@dataclass(frozen=True)
class SuggestRequest:
    """Client → server: suggest over a workload named one of three ways.

    ``sources`` carries ``(name, content)`` pairs inline, so the
    server never needs the client's filesystem — the default, and what
    :mod:`repro.client` sends for local files.  Alternatively
    ``paths`` names files, or ``dir`` (+ ``pattern``) names a
    directory, *on the server's own filesystem* — for daemons
    colocated with the corpus, where shipping file contents over the
    wire would only add latency.  Exactly one addressing mode may be
    used per request.

    ``bundle`` selects a served bundle by name (``None`` = the
    server's default service); ``shards`` overrides the server's
    per-request shard fan-out (``None`` = server config, ``"auto"`` =
    corpus-statistics choice); ``stream=False`` asks for one
    :class:`BatchResult` instead of per-file frames — both replies
    end with :class:`Done`.

    ``deadline_s`` is the client's patience in (relative) seconds: the
    server converts it to an absolute deadline on arrival and aborts
    the request — queued *or* running — once it expires, replying with
    an :class:`Error` of code ``deadline-exceeded``.  Relative seconds
    travel better than wall-clock timestamps (no clock agreement
    needed).  An additive field: old servers ignore it, new servers
    advertise the ``deadlines`` capability.
    """

    KIND = "suggest"

    sources: tuple[tuple[str, str], ...] = ()
    paths: tuple[str, ...] = ()
    dir: str | None = None
    pattern: str = "*.c"
    bundle: str | None = None
    ordered: bool = True
    stream: bool = True
    shards: int | str | None = None
    deadline_s: float | None = None

    def to_wire(self) -> dict:
        return {
            "kind": self.KIND,
            "sources": [[name, source] for name, source in self.sources],
            "paths": list(self.paths),
            "dir": self.dir,
            "pattern": self.pattern,
            "bundle": self.bundle,
            "ordered": self.ordered,
            "stream": self.stream,
            "shards": self.shards,
            "deadline_s": self.deadline_s,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "SuggestRequest":
        kind = payload.get("kind", cls.KIND)
        raw = _get(payload, "sources", list, default=[])
        sources = []
        for i, pair in enumerate(raw):
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or not all(isinstance(p, str) for p in pair)):
                raise ProtocolError(
                    "bad-request",
                    f"{kind}.sources[{i}] must be a [name, source] "
                    f"pair of strings",
                )
            sources.append((pair[0], pair[1]))
        paths = _get(payload, "paths", list, default=[])
        if not all(isinstance(p, str) for p in paths):
            raise ProtocolError("bad-request",
                                f"{kind}.paths must be strings")
        directory = _get(payload, "dir", str, default=None)
        modes = sum((bool(sources), bool(paths), directory is not None))
        if modes > 1:
            raise ProtocolError(
                "bad-request",
                f"{kind} uses exactly one of sources / paths / dir",
            )
        shards = _get(payload, "shards", (int, str), default=None)
        if isinstance(shards, str) and shards != "auto":
            raise ProtocolError(
                "bad-request",
                f"{kind}.shards must be an int, 'auto' or null, "
                f"got {shards!r}",
            )
        if isinstance(shards, int) and shards < 0:
            raise ProtocolError("bad-request",
                                f"{kind}.shards must be >= 0")
        deadline = _get(payload, "deadline_s", (int, float),
                        default=None)
        if deadline is not None:
            if isinstance(deadline, bool) or deadline <= 0:
                raise ProtocolError(
                    "bad-request",
                    f"{kind}.deadline_s must be a positive number of "
                    f"seconds",
                )
            deadline = float(deadline)
        return cls(
            sources=tuple(sources),
            paths=tuple(paths),
            dir=directory,
            pattern=_get(payload, "pattern", str, default="*.c"),
            bundle=_get(payload, "bundle", str, default=None),
            ordered=_get(payload, "ordered", bool, default=True),
            stream=_get(payload, "stream", bool, default=True),
            shards=shards,
            deadline_s=deadline,
        )


@dataclass(frozen=True)
class RewriteRequest(SuggestRequest):
    """Client → server: apply suggestions as verified AST rewrites.

    Addressing, ``bundle``, ``ordered``/``stream`` and ``shards`` all
    behave exactly as on :class:`SuggestRequest`; the reply uses the
    same :class:`FileResult`/:class:`BatchResult`/:class:`Done` frames,
    with ``payload`` carrying ``FileRewrite.to_payload()`` instead.
    ``verify=False`` skips the interpreter gate (rewrites come back
    with code ``unverified``).

    An additive message: servers advertise support via the ``rewrite``
    capability, so no protocol-version bump.
    """

    KIND = "rewrite"

    verify: bool = True

    def to_wire(self) -> dict:
        wire = super().to_wire()
        wire["verify"] = self.verify
        return wire

    @classmethod
    def from_wire(cls, payload: dict) -> "RewriteRequest":
        base = super().from_wire(payload)
        return replace(base,
                       verify=_get(payload, "verify", bool, default=True))


@dataclass(frozen=True)
class FileResult:
    """Server → client: one finished file of a streaming reply.

    ``index`` is the file's position in the request's ``sources``, so
    as-completed streams can be re-ordered client-side; ``payload`` is
    exactly ``FileSuggestions.to_payload()``.
    """

    KIND = "file"

    index: int
    name: str
    payload: dict

    def to_wire(self) -> dict:
        return {"kind": self.KIND, "index": self.index,
                "name": self.name, "payload": self.payload}

    @classmethod
    def from_wire(cls, payload: dict) -> "FileResult":
        return cls(index=_get(payload, "index", int),
                   name=_get(payload, "name", str),
                   payload=_get(payload, "payload", dict))


@dataclass(frozen=True)
class BatchResult:
    """Server → client: a whole non-streaming reply in one frame."""

    KIND = "batch"

    files: tuple[FileResult, ...]

    def to_wire(self) -> dict:
        return {"kind": self.KIND,
                "files": [f.to_wire() for f in self.files]}

    @classmethod
    def from_wire(cls, payload: dict) -> "BatchResult":
        raw = _get(payload, "files", list)
        files = []
        for entry in raw:
            if not isinstance(entry, dict):
                raise ProtocolError("bad-request",
                                    "batch.files entries must be objects")
            files.append(FileResult.from_wire(entry))
        return cls(files=tuple(files))


@dataclass(frozen=True)
class Done:
    """Server → client: clean end of one request's reply.

    Receiving it is how a client distinguishes a complete stream from
    a dropped connection.  ``stats`` carries the serving service's
    ``cache_stats()`` snapshot for observability.
    """

    KIND = "done"

    files: int
    errors: int
    stats: dict = field(default_factory=dict)

    def to_wire(self) -> dict:
        return {"kind": self.KIND, "files": self.files,
                "errors": self.errors, "stats": self.stats}

    @classmethod
    def from_wire(cls, payload: dict) -> "Done":
        return cls(files=_get(payload, "files", int),
                   errors=_get(payload, "errors", int),
                   stats=_get(payload, "stats", dict, default={}))


@dataclass(frozen=True)
class Error:
    """Either direction: a refusal or failure with a stable code."""

    KIND = "error"

    code: str
    message: str

    def to_wire(self) -> dict:
        return {"kind": self.KIND, "code": self.code,
                "message": self.message}

    @classmethod
    def from_wire(cls, payload: dict) -> "Error":
        return cls(code=_get(payload, "code", str),
                   message=_get(payload, "message", str, default=""))

    def raise_(self) -> None:
        raise ProtocolError(self.code, self.message)


@dataclass(frozen=True)
class Ping:
    """Client → server: health probe.

    Answered immediately with a :class:`Pong` straight off the session
    loop — it never enters the admission queue, so a ``busy`` server
    still answers and a wedged one visibly does not.  ``token`` is
    echoed back so callers can match probe to answer.  Additive:
    servers advertise it via the ``ping`` capability.
    """

    KIND = "ping"

    token: str = ""

    def to_wire(self) -> dict:
        return {"kind": self.KIND, "token": self.token}

    @classmethod
    def from_wire(cls, payload: dict) -> "Ping":
        return cls(token=_get(payload, "token", str, default=""))


@dataclass(frozen=True)
class Pong:
    """Server → client: health probe answer.

    ``queued`` / ``running`` expose the admission state (total across
    bundles), so a load balancer can probe depth without a request.
    """

    KIND = "pong"

    token: str = ""
    queued: int = 0
    running: int = 0
    #: the server's capability dict (additive; old servers omit it),
    #: so one probe answers "how busy" *and* "what do you serve"
    capabilities: dict = field(default_factory=dict)

    def to_wire(self) -> dict:
        return {"kind": self.KIND, "token": self.token,
                "queued": self.queued, "running": self.running,
                "capabilities": self.capabilities}

    @classmethod
    def from_wire(cls, payload: dict) -> "Pong":
        return cls(token=_get(payload, "token", str, default=""),
                   queued=_get(payload, "queued", int, default=0),
                   running=_get(payload, "running", int, default=0),
                   capabilities=_get(payload, "capabilities", dict,
                                     default={}))


@dataclass(frozen=True)
class Goodbye:
    """Client → server: clean connection close."""

    KIND = "bye"

    def to_wire(self) -> dict:
        return {"kind": self.KIND}

    @classmethod
    def from_wire(cls, payload: dict) -> "Goodbye":
        return cls()


_SHA256_LEN = 64

_HEX_DIGITS = frozenset("0123456789abcdef")


def _get_sha256(payload: dict, key: str) -> str:
    value = _get(payload, key, str)
    if len(value) != _SHA256_LEN or not set(value) <= _HEX_DIGITS:
        raise ProtocolError("bad-request",
                            f"{key} must be a lowercase sha256 hex digest")
    return value


#: characters a store/bundle key may contain — everything the store
#: embeds in a file name, nothing that can traverse out of its root
_KEY_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


def _get_key(payload: dict, key: str, *,
             optional: bool = False) -> str | None:
    value = _get(payload, key, str, default=None)
    if value is None:
        if optional:
            return None
        raise ProtocolError("bad-request", f"{key} is required")
    if (not value or len(value) > 128 or not set(value) <= _KEY_CHARS
            or value.startswith(".")):
        raise ProtocolError("bad-request",
                            f"{key} is not a valid store key")
    return value


@dataclass(frozen=True)
class BundleHave:
    """Client → server: "do you already hold this archive?"

    The content-addressed half of bundle distribution: archives are
    addressed by the SHA-256 of their bytes, so a coordinator asks
    before pushing and an archive transits the wire at most once per
    peer.  Additive, behind the ``fabric`` capability.
    """

    KIND = "bundle_have"

    sha256: str

    def to_wire(self) -> dict:
        return {"kind": self.KIND, "sha256": self.sha256}

    @classmethod
    def from_wire(cls, payload: dict) -> "BundleHave":
        return cls(sha256=_get_sha256(payload, "sha256"))


@dataclass(frozen=True)
class BundleHaveOk:
    """Server → client: answer to :class:`BundleHave`.

    ``name`` is the registry name the archive serves under when held.
    """

    KIND = "bundle_have_ok"

    sha256: str
    have: bool
    name: str | None = None

    def to_wire(self) -> dict:
        return {"kind": self.KIND, "sha256": self.sha256,
                "have": self.have, "name": self.name}

    @classmethod
    def from_wire(cls, payload: dict) -> "BundleHaveOk":
        return cls(sha256=_get_sha256(payload, "sha256"),
                   have=_get(payload, "have", bool),
                   name=_get(payload, "name", str, default=None))


@dataclass(frozen=True)
class BundlePush:
    """Client → server: ship one bundle archive, addressed by hash.

    ``data`` is the base64 of the ``pack_bundle`` archive bytes (JSON
    frames cannot carry raw bytes).  The receiver recomputes the
    digest and refuses a mismatch with a ``hash-mismatch`` error — a
    peer must never cache an archive under a hash it does not have.
    """

    KIND = "bundle_push"

    sha256: str
    data: str
    name: str | None = None

    def to_wire(self) -> dict:
        return {"kind": self.KIND, "sha256": self.sha256,
                "data": self.data, "name": self.name}

    @classmethod
    def from_wire(cls, payload: dict) -> "BundlePush":
        name = _get(payload, "name", str, default=None)
        if name is not None:
            name = _get_key(payload, "name")
        return cls(sha256=_get_sha256(payload, "sha256"),
                   data=_get(payload, "data", str),
                   name=name)


@dataclass(frozen=True)
class BundlePushOk:
    """Server → client: the pushed archive is loaded and serving.

    ``cached=True`` means the peer already held the hash and the push
    was absorbed without reloading anything.
    """

    KIND = "bundle_push_ok"

    sha256: str
    name: str
    cached: bool = False

    def to_wire(self) -> dict:
        return {"kind": self.KIND, "sha256": self.sha256,
                "name": self.name, "cached": self.cached}

    @classmethod
    def from_wire(cls, payload: dict) -> "BundlePushOk":
        return cls(sha256=_get_sha256(payload, "sha256"),
                   name=_get(payload, "name", str),
                   cached=_get(payload, "cached", bool, default=False))


#: store operations a :class:`StoreOp` may request
STORE_OPS = ("get", "put", "gc", "fsck", "describe")


@dataclass(frozen=True)
class StoreOp:
    """Client → server: one operation against the daemon's store.

    The network ``SuggestionStore`` backend: get/put against the
    ``parse`` / ``suggest`` / ``verdict`` layers plus the ``gc`` /
    ``fsck`` / ``describe`` maintenance surface, all executed against
    the daemon's on-disk store so the atomic-commit contract is
    inherited rather than re-implemented.  Additive, behind the
    ``fabric`` capability (``network_store`` advertises whether this
    daemon has a store at all).
    """

    KIND = "store"

    op: str
    layer: str | None = None
    key: str | None = None
    model_key: str | None = None
    entry: dict | None = None
    args: dict = field(default_factory=dict)

    def to_wire(self) -> dict:
        return {"kind": self.KIND, "op": self.op, "layer": self.layer,
                "key": self.key, "model_key": self.model_key,
                "entry": self.entry, "args": self.args}

    @classmethod
    def from_wire(cls, payload: dict) -> "StoreOp":
        op = _get(payload, "op", str)
        if op not in STORE_OPS:
            raise ProtocolError("bad-request",
                                f"unknown store op {op!r}")
        layer = _get(payload, "layer", str, default=None)
        key = model_key = None
        entry = _get(payload, "entry", dict, default=None)
        if op in ("get", "put"):
            if layer not in STORE_LAYERS:
                raise ProtocolError(
                    "bad-request",
                    f"store {op} needs a layer in {STORE_LAYERS}")
            key = _get_key(payload, "key")
            model_key = _get_key(payload, "model_key",
                                 optional=layer != "suggest")
            if op == "put" and entry is None:
                raise ProtocolError("bad-request",
                                    "store put needs an entry object")
        return cls(op=op, layer=layer, key=key, model_key=model_key,
                   entry=entry,
                   args=_get(payload, "args", dict, default={}))


@dataclass(frozen=True)
class StoreOk:
    """Server → client: a :class:`StoreOp` result.

    ``entry`` answers ``get`` (``None`` = miss); ``report`` answers
    the maintenance ops with the same dict the on-disk store returns.
    """

    KIND = "store_ok"

    op: str = ""
    entry: dict | None = None
    report: dict = field(default_factory=dict)

    def to_wire(self) -> dict:
        return {"kind": self.KIND, "op": self.op, "entry": self.entry,
                "report": self.report}

    @classmethod
    def from_wire(cls, payload: dict) -> "StoreOk":
        return cls(op=_get(payload, "op", str, default=""),
                   entry=_get(payload, "entry", dict, default=None),
                   report=_get(payload, "report", dict, default={}))


_MESSAGES = {
    cls.KIND: cls
    for cls in (Hello, HelloOk, SuggestRequest, RewriteRequest,
                FileResult, BatchResult, Done, Error, Goodbye,
                Ping, Pong, BundleHave, BundleHaveOk, BundlePush,
                BundlePushOk, StoreOp, StoreOk)
}


def decode_message(payload: dict):
    """Decoded frame dict → typed message, schema-checked."""
    kind = payload.get("kind")
    cls = _MESSAGES.get(kind)
    if cls is None:
        raise ProtocolError("bad-request",
                            f"unknown message kind {kind!r}")
    return cls.from_wire(payload)


def read_message(rfile, max_bytes: int = MAX_FRAME_BYTES):
    """Read + decode one message; ``None`` on clean EOF."""
    payload = read_frame(rfile, max_bytes)
    if payload is None:
        return None
    return decode_message(payload)


def write_message(wfile, message,
                  max_bytes: int = MAX_FRAME_BYTES) -> None:
    """Encode + write one typed message."""
    write_frame(wfile, message.to_wire(), max_bytes)
