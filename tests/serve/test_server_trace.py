"""``repro-serve --trace``: one ``serve.request`` span per answer.

A traced server journals into a run directory and, on drain, writes
that run's ``trace.jsonl``.  Requests arrive from several client
threads at once, so the spans and counters are recorded concurrently;
the file must still be schema-valid, hold exactly one flat span per
answered request, and carry counters that agree with the answers.
"""

import threading
from collections import Counter

import pytest

from repro.dataset import MiraDataset
from repro.experiments.journal import RunJournal
from repro.obs.schema import validate_file
from repro.serve.server import ReproServer, ServeConfig

THREADS = 4
PER_THREAD = 9
#: ping bypasses the cache; summary and e01 repeat, so later copies
#: are cache hits or coalesce behind an in-flight leader.
PAYLOADS = (
    {"mode": "ping"},
    {"mode": "summary"},
    {"mode": "experiment", "experiment": "e01"},
)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    dataset = MiraDataset.synthesize(n_days=2.0, seed=3)
    journal = RunJournal.start(
        tmp_path_factory.mktemp("runs"),
        fingerprint="trace-fp",
        config={"serve": True},
        run_id="serve-trace",
    )
    srv = ReproServer(
        dataset,
        fingerprint="trace-fp",
        config=ServeConfig(workers=2, drain_s=5.0, trace=True),
        journal=journal,
    )
    srv.start()
    responses = []
    lock = threading.Lock()

    def client(index):
        for i in range(PER_THREAD):
            payload = dict(
                PAYLOADS[i % len(PAYLOADS)],
                schema=1,
                request_id=f"c{index}-{i}",
            )
            response = srv.handle_query(payload)
            with lock:
                responses.append(response)

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    srv.drain_and_stop("test-trace")
    records = validate_file(journal.directory / "trace.jsonl")
    return responses, records


def _spans(records):
    return [r for r in records if r["kind"] == "span"]


def _counters(records):
    return {r["name"]: r["value"] for r in records if r["kind"] == "counter"}


class TestServeTrace:
    def test_every_request_was_answered(self, traced_run):
        responses, _ = traced_run
        assert len(responses) == THREADS * PER_THREAD
        assert {r.outcome for r in responses} <= {"ok", "skipped"}

    def test_one_flat_request_span_per_answer(self, traced_run):
        responses, records = traced_run
        spans = _spans(records)
        assert {s["name"] for s in spans} == {"serve.request"}
        assert len({s["id"] for s in spans}) == len(spans)
        assert all(s["parent"] is None and s["depth"] == 0 for s in spans)
        assert sorted(s["attrs"]["request_id"] for s in spans) == sorted(
            r.request_id for r in responses
        )

    def test_spans_carry_outcome_mode_and_cache(self, traced_run):
        responses, records = traced_run
        by_id = {r.request_id: r for r in responses}
        for span in _spans(records):
            attrs = span["attrs"]
            response = by_id[attrs["request_id"]]
            assert attrs["outcome"] == response.outcome
            assert attrs["mode"] in ("ping", "summary", "experiment")
            assert attrs.get("cache") == response.cache
            if attrs["mode"] != "ping":
                assert attrs["cache"] in (
                    "miss", "hit_memory", "hit_disk", "coalesced"
                )
        caches = Counter(s["attrs"].get("cache") for s in _spans(records))
        assert caches["miss"] >= 1
        assert caches["hit_memory"] + caches["coalesced"] >= 1

    def test_request_counters_sum_to_the_answers(self, traced_run):
        responses, records = traced_run
        counters = _counters(records)
        assert counters["serve.requests.total"] == len(responses)
        outcomes = {
            name[len("serve.outcome."):]: value
            for name, value in counters.items()
            if name.startswith("serve.outcome.")
        }
        assert sum(outcomes.values()) == len(responses)
        assert outcomes == dict(Counter(r.outcome for r in responses))
        assert any(name.startswith("serve.cache.") for name in counters)
        assert "serve.workers.replaced" in counters
