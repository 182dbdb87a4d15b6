"""The rewrite pass through the serving stack: service methods,
wire protocol, daemon round trips.

The acceptance bar is *byte identity*: a rewrite computed on the
daemon's compute thread and revived client-side from wire payloads
must equal the in-process `SuggestionService.stream_sources` result
exactly — same pragmas, same refusal codes, same rewritten text.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.rewrite.engine
from repro.client import ClientError, connect
from repro.dataset.corpus import CorpusGenerator
from repro.rewrite import FileRewrite
from repro.serve import (
    REWRITE,
    Job,
    SuggestionService,
    SuggestionStore,
    SuggestServer,
    open_store,
    protocol,
)
from repro.serve.pipeline import COUNTERS
from repro.serve.store import STORE_COUNTERS

SUM_SOURCE = """
double a[64], b[64]; double s;
void kernel(void) {
    int i;
    for (i = 0; i < 64; i++) a[i] = b[i] * 2.0;
    for (i = 0; i < 64; i++) s += a[i];
}
"""

PREFIX_SOURCE = """
double p[32];
void scan(void) {
    int j;
    for (j = 1; j < 32; j++) p[j] = p[j] + p[j - 1];
}
"""

BAD_SOURCE = "void broken(void) { for (i = 0; i < ; }"

NAMED = [("sum.c", SUM_SOURCE), ("scan.c", PREFIX_SOURCE)]


class _StubModel:
    """Picklable fingerprinted stub following the suggester contract."""

    def __init__(self, value: int, name: str = "stub") -> None:
        self.value = value
        self.name = name

    def predict_samples(self, samples):
        return np.full(len(samples), self.value, dtype=int)

    def fingerprint(self) -> str:
        return f"stub:{self.name}:{self.value}"


def _service(store=None) -> SuggestionService:
    return SuggestionService(_StubModel(1), {"reduction": _StubModel(1)},
                             store=store)


def _assert_counter_schema(stats: dict, store: bool) -> None:
    """``cache_stats()`` is the counter schema: every group and name in
    schema order (the store's only when one is configured), no stray
    key, each value of its zero's type, and JSON round-trips it."""
    assert list(stats) == [*COUNTERS, *(["store"] if store else [])]
    for group, zeros in COUNTERS.items():
        assert list(stats[group]) == list(zeros)
        assert [type(v) for v in stats[group].values()] == \
            [type(z) for z in zeros.values()]
    if store:
        assert list(stats["store"]) == list(STORE_COUNTERS)
        assert all(type(v) is int for v in stats["store"].values())
    assert json.loads(json.dumps(stats)) == stats


@pytest.fixture(scope="module")
def service():
    return _service()


@pytest.fixture(scope="module")
def server(service):
    srv = SuggestServer({"default": service}).start()
    yield srv
    srv.shutdown()


class TestServiceRewrites:
    """In-process rewrite-job semantics of `SuggestionService`."""

    def test_verified_codes_per_file(self, service):
        results = list(service.stream_sources(NAMED, job=REWRITE))
        assert [fr.name for fr in results] == ["sum.c", "scan.c"]
        sum_codes = [r.code for r in results[0].rewrites]
        assert sum_codes == ["verified", "verified"]
        assert [r.code for r in results[1].rewrites] == ["divergence"]

    def test_reduction_clause_synthesized(self, service):
        fr = list(service.stream_sources([("sum.c", SUM_SOURCE)], job=REWRITE))[0]
        assert fr.rewrites[1].pragma == \
            "#pragma omp parallel for reduction(+:s)"
        assert "reduction(+:s)" in fr.rewritten_source

    def test_refused_file_has_no_pragma(self, service):
        fr = list(service.stream_sources([("scan.c", PREFIX_SOURCE)], job=REWRITE))[0]
        assert fr.n_accepted == 0 and fr.n_refused == 1
        assert "#pragma" not in fr.rewritten_source

    def test_stream_matches_batch(self, service):
        streamed = list(service.stream_rewrite_sources(NAMED))
        assert streamed == list(service.stream_sources(NAMED, job=REWRITE))

    def test_verify_false_skips_the_gate(self, service):
        results = list(service.stream_sources(NAMED, job=Job("rewrite", verify=False)))
        codes = [r.code for fr in results for r in fr.rewrites]
        assert codes == ["unverified"] * 3
        # the divergent scan now carries a (wrong) pragma: the verifier
        # really is the gate
        assert "#pragma" in results[1].rewritten_source

    def test_frontend_error_passthrough(self, service):
        fr = list(service.stream_sources([("bad.c", BAD_SOURCE)], job=REWRITE))[0]
        assert fr.error is not None and fr.rewrites == []

    def test_deterministic_across_calls(self, service):
        a = list(service.stream_sources(NAMED, job=REWRITE))
        b = list(service.stream_sources(NAMED, job=REWRITE))
        assert a == b

    def test_sharded_matches_in_process(self, service):
        sharded = list(service.stream_sources(NAMED, shards=2, job=REWRITE))
        assert sharded == list(service.stream_sources(NAMED, job=REWRITE))

    def test_verifier_counters_surface(self):
        service = _service()
        fresh = service.cache_stats()
        _assert_counter_schema(fresh, store=False)
        assert not any(v for group in COUNTERS
                       for v in fresh[group].values())
        results = list(service.stream_sources(NAMED, job=REWRITE))
        verify = service.cache_stats()["verify"]
        assert verify["simulations"] > 0
        assert verify["compiled_runs"] > 0
        assert verify["elapsed_s"] > 0
        # counters never touch the wire payload (byte-identity with
        # the daemon path)
        assert "verifier" not in results[0].to_payload()

    def test_sharded_run_distributes_verification(self, tmp_path):
        service = _service(SuggestionStore(tmp_path / "cache"))
        sharded = list(service.stream_sources(NAMED, shards=2, job=REWRITE))
        assert sharded == list(_service().stream_sources(NAMED, job=REWRITE))
        # the workers' counters fold back into the parent
        stats = service.cache_stats()
        _assert_counter_schema(stats, store=True)
        assert stats["verify"]["simulations"] > 0
        assert stats["store"]["suggest_misses"] == len(NAMED)

    def test_warm_store_executes_zero_simulations(self, tmp_path):
        def _stored_service():
            from repro.serve import SuggestionStore

            return SuggestionService(
                _StubModel(1), {"reduction": _StubModel(1)},
                store=SuggestionStore(tmp_path / "cache"))

        cold = _stored_service()
        cold_results = list(cold.stream_sources(NAMED, job=REWRITE))
        assert cold.cache_stats()["verify"]["simulations"] > 0
        warm = _stored_service()
        warm_results = list(warm.stream_sources(NAMED, job=REWRITE))
        assert warm_results == cold_results
        verify = warm.cache_stats()["verify"]
        assert verify["simulations"] == 0
        assert verify["cached_verdicts"] > 0

    def test_net_store_run_keeps_the_counter_schema(self, tmp_path):
        with SuggestServer({}, cache_dir=str(tmp_path / "cache"),
                           bundle_cache_dir=tmp_path / "bundles"
                           ).start() as srv:
            spec = f"net:{srv.address}"
            cold = _service(open_store(spec))
            cold_results = list(cold.stream_sources(NAMED, job=REWRITE))
            warm = _service(open_store(spec))
            assert list(warm.stream_sources(NAMED, job=REWRITE)) == \
                cold_results
            for service in (cold, warm):
                _assert_counter_schema(service.cache_stats(), store=True)
                service.store.close()
        stats = warm.cache_stats()
        assert stats["store"]["suggest_hits"] == len(NAMED)
        assert stats["verify"]["simulations"] == 0


#: the first loop verifies; the prefix scan is refused only when
#: verifying, so an unverified pragma left on it shows in the output
REDUCE_SOURCE = (Path(__file__).parents[2] / "examples" / "corpus"
                 / "reduce.c").read_text()
NO_VERIFY = Job("rewrite", verify=False)


def _generated() -> list[tuple[str, str]]:
    _, files = CorpusGenerator(seed=29).generate(scale=0.006)
    return [(f"file_{f.file_id}.c", f.source) for f in files]


def _payloads(results) -> list[dict]:
    return [r.to_payload() for r in results]


def _reparsed(named, job: Job) -> list[dict]:
    """``job``'s payloads through the parse-again-and-align path that
    suggestions without their parse take."""
    service = _service()
    return [job.finish(service, *named[i], replace(fs, parsed=None))
            .to_payload() for i, fs in service.iter_sources(named)]


class TestParseOnce:
    """A fresh rewrite reuses the suggestion pass's parse of each file;
    only suggestions without it parse the file again."""

    @pytest.fixture
    def parses(self, monkeypatch):
        calls = []
        parse_source = repro.rewrite.engine.parse_source

        def counting(source):
            calls.append(source)
            return parse_source(source)

        monkeypatch.setattr(repro.rewrite.engine, "parse_source", counting)
        return calls

    def test_cold_rewrite_parses_each_file_once(self, parses):
        named = _generated()
        results = list(_service().stream_sources(named, job=REWRITE))
        assert all(fr.error is None for fr in results)
        assert parses == []
        assert _payloads(results) == _reparsed(named, REWRITE)

    def test_replayed_suggestions_parse_again(self, parses, tmp_path):
        named = _generated()
        cold = _payloads(_service().stream_sources(named, job=REWRITE))
        list(_service(SuggestionStore(tmp_path)).stream_sources(named))
        warm = _service(SuggestionStore(tmp_path))
        results = list(warm.stream_sources(named, job=REWRITE))
        assert warm.store.stats()["suggest_hits"] == len(named)
        assert warm.cache_stats()["verify"]["cached_verdicts"] == 0
        assert len(parses) == len(named)
        assert _payloads(results) == cold

    @pytest.mark.parametrize("jobs", [(NO_VERIFY, REWRITE),
                                      (REWRITE, NO_VERIFY)],
                             ids=["unverified-first", "verified-first"])
    def test_joint_round_leaves_the_shared_parse_as_it_was(self, jobs):
        named = [("reduce.c", REDUCE_SOURCE)] + _generated()
        service = _service()
        got: dict = {job: {} for job in jobs}
        # one round, the same files in two workloads: each file's one
        # parse serves both jobs, in the order the round yields them
        for job, i, fs in service.iter_joint([(job, named)
                                              for job in jobs]):
            got[job][i] = job.finish(service, *named[i], fs).to_payload()
        for job in jobs:
            alone = _payloads(_service().stream_sources(named, job=job))
            assert [got[job][i] for i in range(len(named))] == alone
        codes = {job: [r["code"] for r in got[job][0]["rewrites"]]
                 for job in jobs}
        assert codes[NO_VERIFY] == ["unverified", "unverified"]
        assert codes[REWRITE] == ["verified", "divergence"]


class TestRewriteWire:
    """`RewriteRequest` wire shape: additive, defaults, refusals."""

    def test_round_trip(self):
        req = protocol.RewriteRequest(sources=(("a.c", "int x;"),),
                                      verify=False, shards=2)
        revived = protocol.decode_message(req.to_wire())
        assert revived == req
        assert isinstance(revived, protocol.RewriteRequest)

    def test_kind_is_rewrite(self):
        assert protocol.RewriteRequest.KIND == "rewrite"
        assert protocol.RewriteRequest().to_wire()["kind"] == "rewrite"

    def test_verify_defaults_true_when_absent(self):
        wire = protocol.RewriteRequest(sources=(("a.c", "x"),)).to_wire()
        del wire["verify"]
        assert protocol.decode_message(wire).verify is True

    def test_bad_verify_type_refused(self):
        wire = protocol.RewriteRequest().to_wire()
        wire["verify"] = "yes"
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(wire)

    def test_validation_errors_name_the_rewrite_kind(self):
        wire = protocol.RewriteRequest().to_wire()
        wire["sources"] = [["only-a-name"]]
        with pytest.raises(protocol.ProtocolError, match="rewrite"):
            protocol.decode_message(wire)

    def test_is_a_suggest_request(self):
        # subclassing is what lets the server session admit it
        assert issubclass(protocol.RewriteRequest,
                          protocol.SuggestRequest)

    def test_wire_is_json_safe(self):
        req = protocol.RewriteRequest(sources=(("a.c", "int x;"),))
        assert protocol.decode_message(
            json.loads(json.dumps(req.to_wire()))) == req


class TestDaemonRewrites:
    """End-to-end over a live server socket."""

    def test_capability_advertised(self, server):
        with connect(server.address) as client:
            assert client.capabilities.get("rewrite") is True

    def test_round_trip_matches_in_process(self, service, server):
        golden = list(service.stream_sources(NAMED, job=REWRITE))
        with connect(server.address) as client:
            served = client.suggest_sources(NAMED, job=REWRITE)
        assert served == golden
        assert json.dumps([fr.to_payload() for fr in served]) == \
            json.dumps([fr.to_payload() for fr in golden])

    def test_streaming_matches_batch(self, server):
        with connect(server.address) as client:
            streamed = list(client.stream_sources(NAMED, job=REWRITE))
            batched = client.suggest_sources(NAMED, job=REWRITE)
        assert streamed == batched

    def test_verify_flag_travels(self, service, server):
        with connect(server.address) as client:
            served = client.suggest_sources(NAMED, job=Job("rewrite", verify=False))
        assert served == list(service.stream_sources(
            NAMED, job=Job("rewrite", verify=False)))
        codes = [r.code for fr in served for r in fr.rewrites]
        assert codes == ["unverified"] * 3

    def test_error_files_survive_the_wire(self, service, server):
        mixed = NAMED + [("bad.c", BAD_SOURCE)]
        with connect(server.address) as client:
            served = client.suggest_sources(mixed, job=REWRITE)
        assert served == list(service.stream_sources(mixed, job=REWRITE))
        assert served[2].error is not None

    def test_suggest_still_works_on_same_connection(self, server):
        # the additive request must not disturb the existing kind
        with connect(server.address) as client:
            rewrites = client.suggest_sources(NAMED, job=REWRITE)
            suggestions = client.suggest_sources(NAMED)
        assert isinstance(rewrites[0], FileRewrite)
        assert len(suggestions[0].suggestions) == 2

    def test_old_capability_refused_client_side(self, server):
        with connect(server.address) as client:
            caps = dict(client.capabilities)
            caps.pop("rewrite")
            client.capabilities = caps
            with pytest.raises(ClientError) as err:
                client.suggest_sources(NAMED, job=REWRITE)
        assert err.value.code == "rewrite-unsupported"

    def test_done_frame_counts_rewrite_files(self, server):
        with connect(server.address) as client:
            list(client.stream_sources(NAMED, job=REWRITE))
            assert client.last_done.files == len(NAMED)
