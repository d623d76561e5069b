"""Tests of the benchmark's own logic (not of the program it measures).

    python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import spec  # noqa: E402
from loadgen import Recorder, Sample, issue  # noqa: E402
from replay import DIRECT_READ_LAYERS, layer_metrics  # noqa: E402
from stats import (  # noqa: E402
    covered,
    hop,
    median,
    percentile,
    quartile_spread,
    self_times,
    tail,
    tail_percentile,
    unaccounted,
)
from traffic import READ, WRITE, Ledger, Oracle, Streams  # noqa: E402


# ----------------------------------------------------------------------
# tail percentile
# ----------------------------------------------------------------------
@pytest.mark.parametrize("samples, expected", [
    (10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0),
    (3, 50.0),
])
def test_tail_percentile_leaves_ten_samples_beyond(samples, expected):
    p = tail_percentile(samples)
    assert p == expected
    if p > 50.0:
        assert samples * (100 - p) >= 1000 - 1e-6


def test_fixed_tails_follow_from_the_recorded_seed_counts():
    for workload, counts in spec.SEED_SAMPLES.items():
        for kind, samples in counts.items():
            p = spec.TAILS[workload][kind]
            assert p == tail_percentile(int(samples * spec.TAIL_MARGIN))
            assert p == 50.0 or samples * spec.TAIL_MARGIN * (1 - p / 100) >= 10
            assert f"{spec.KIND_LABELS[kind]} p{p:g}" in spec.WORKLOADS[workload]


def test_percentile_is_nearest_rank_and_tail_at_50_is_the_median():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 6.0
    assert percentile(values, 1) == 1.0
    assert tail(values, 50.0) == median(values) == 3.5
    assert tail(values, 90.0) == 6.0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("request", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 4.0, 0),      # overlaps a: the union counts once
        ("c", 6.0, 7.0, 0),
        ("d", 9.5, 12.0, 0),     # runs past its parent: clipped
        ("e", 6.2, 6.4, 3),      # grandchild: only c loses it
    ]
    selves = self_times(spans)
    assert selves[0] == pytest.approx(10.0 - (3.0 + 1.0 + 0.5))
    assert selves[1] == pytest.approx(2.0)
    assert selves[3] == pytest.approx(1.0 - 0.2)
    assert selves[4] == pytest.approx(2.5)
    assert covered([], 0.0, 1.0) == 0.0


def _sample(kind, path, latency, op="search", key="direct:A"):
    return Sample(kind, op, path, key, 0.0, latency, None, fields={}, summary={})


def _replay_result():
    """A hand-made replay: two direct reads and one door read with
    fixed layer times (seconds), plus one write."""
    requests = {}
    spans = []

    def request(sample, layers):
        spans.append(("request", 0.0, 1.0, -1))
        root = len(spans) - 1
        requests[root] = sample
        t = 0.0
        for name, seconds in layers:
            spans.append((name, t, t + seconds, root))
            t += seconds
        sample.meta = {"frame_bytes": 100}

    spans.extend([("request", 0.0, 2.0, -1), ("reader.open", 0.0, 1.5, 0)])
    requests[0] = None  # the pre-opened view of a warm connection
    direct = [(name, 0.001 * (i + 1)) for i, name in enumerate(DIRECT_READ_LAYERS)]
    request(_sample(READ, "direct", 0.0), direct)
    request(_sample(READ, "direct", 0.0), direct)
    request(_sample("door_read", "door", 0.0, key="door"),
            direct + [("frontdoor.reencode", 0.002)])
    request(_sample(WRITE, "direct", 0.0, op="add"),
            [("incremental.delta_check", 0.003), ("journal.commit", 0.004)])
    return {
        "spans": spans, "requests": requests,
        "counts": {"refresh_frames": 2, "refreshes": 3, "probes": 3,
                   "candidates": 30, "returned": 10, "searches": 3, "commits": 1,
                   "write_hits": 0, "write_lookups": 0,
                   "check_hits": 0, "check_lookups": 0},
        "appended": 180, "fsyncs": 1, "open_mb": 50.0, "mismatches": [],
    }


def _client_run(read_ms, door_ms):
    recorder = Recorder(keep_requests=False)
    for value in read_ms:
        recorder.samples.append(_sample(READ, "direct", value / 1e3))
    for value in door_ms:
        recorder.samples.append(_sample("door_read", "door", value / 1e3))
    return recorder


def test_unaccounted_is_e2e_median_minus_layer_medians():
    assert unaccounted(3.0, [0.5, 0.25]) == pytest.approx(2.25)
    part1 = _client_run(read_ms=[30.0, 40.0, 50.0], door_ms=[70.0])
    metrics = layer_metrics(_replay_result(), part1, 0, untraced_read_p50=40.0)
    layers = sum(1.0 * (i + 1) for i in range(len(DIRECT_READ_LAYERS)))  # ms
    assert metrics["server.unaccounted_ms"] == pytest.approx(40.0 - layers)
    # the traced layer medians plus the unaccounted rest give read_p50
    assert metrics["trace.read_p50_ms"] == pytest.approx(
        metrics["server.unaccounted_ms"] + layers
    )
    assert metrics["trace.overhead_pct"] == pytest.approx(0.0)
    assert metrics["query.parse_ms"] == pytest.approx(2.0)
    assert metrics["frontdoor.reencode_ms"] == pytest.approx(2.0)
    assert metrics["journal.commit_ms"] == pytest.approx(4.0)
    assert metrics["wal.bytes_per_write"] == pytest.approx(180.0)
    assert metrics["index.candidates_per_hit"] == pytest.approx(3.0)
    assert metrics["reader.open_ms"] == pytest.approx(1500.0)


def test_frontdoor_hop_is_door_median_minus_direct_median():
    assert hop(7.5, 3.0) == pytest.approx(4.5)
    part1 = _client_run(read_ms=[2.0, 3.0, 4.0], door_ms=[6.0, 7.0, 8.0, 9.0])
    metrics = layer_metrics(_replay_result(), part1, 2, untraced_read_p50=3.0)
    assert metrics["frontdoor.hop_ms"] == pytest.approx(7.5 - 3.0)
    assert metrics["frontdoor.warmup_failed"] == 2.0


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    spread = quartile_spread(values)
    assert 0.0 < spread < 0.1


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def streams():
    from repro.workloads import generate_whitepages

    instance = generate_whitepages(orgs=2, units_per_level=2, depth=2,
                                   persons_per_unit=30, seed=3)
    oracle = Oracle(instance)
    return Streams(oracle, seed=3, ledger=Ledger(len(oracle.orgs)))


def _reply_with(dns):
    return {"ok": True, "entries": [{"dn": dn, "attributes": {}} for dn in dns]}


def test_lookup_check_catches_a_wrong_reply(streams):
    reads = streams.reads("test")
    for _ in range(6):  # every lookup shape, twice
        request = reads.lookup(READ)
        expected = sorted(request.meta["expected"])
        assert expected
        assert request.check(_reply_with(expected), None) is None
        assert request.check(_reply_with(expected[:-1]), None) is not None
        wrong = expected[:-1] + ["uid=nobody,o=org0"]
        assert request.check(_reply_with(wrong), None) is not None
        assert request.check({"ok": False, "error": "unavailable"}, None) is not None


def test_lookup_expectations_agree_with_the_program(streams):
    # The oracle is plain Python over the generated entries; on a copy
    # of the same instance the program's own search must agree with it.
    from repro.query.filter_parser import parse_filter
    from repro.query.search import search
    from repro.workloads import generate_whitepages

    instance = generate_whitepages(orgs=2, units_per_level=2, depth=2,
                                   persons_per_unit=30, seed=3)
    reads = streams.reads("agree")
    for _ in range(30):
        request = reads.lookup(READ)
        found = search(instance, base=request.fields.get("base"), scope="sub",
                       filter=parse_filter(request.fields["filter"]))
        dns = [instance.dn_string_of(e) for e in found]
        assert request.check(_reply_with(dns), None) is None, request.fields


def test_write_and_check_checks_catch_wrong_outcomes(streams):
    kinds = {}
    for _ in range(30):
        request = streams.write()
        kinds.setdefault(request.meta["shape"], request)
        if request.on_send:
            request.on_send()
        applied = request.meta["shape"] != "reject"
        assert request.check({"ok": True, "applied": applied}, None) is None
        assert request.check({"ok": True, "applied": not applied}, None) is not None
        if request.on_reply:
            request.on_reply({"ok": True, "applied": applied})
    assert set(kinds) == {"add", "modify", "reject", "delete"}
    check = streams.check()
    before = streams.ledger.snapshot(None)
    live = sum(streams.ledger.adds_acked) - sum(streams.ledger.dels_acked)
    good = {"ok": True, "legal": True, "violations": [],
            "entries": streams.oracle.total + live}
    assert check.check(good, before) is None
    assert check.check(dict(good, legal=False), before) is not None
    assert check.check(dict(good, entries=good["entries"] + 1), before) is not None


def test_a_wrong_reply_on_the_wire_counts_as_failed(streams):
    request = streams.reads("wire").lookup(READ)

    class WrongServer:
        path, key, broken = "direct", "direct:A", False

        async def call(self, op, fields):
            return {"id": 1, "ok": True, "entries": []}, 30, 1

    recorder = Recorder(keep_requests=False)
    sample = asyncio.run(issue(WrongServer(), request, recorder, streams.ledger))
    assert sample.error is not None
    assert recorder.failures == [sample]
    assert recorder.latencies(READ) == []


# ----------------------------------------------------------------------
# the manifest
# ----------------------------------------------------------------------
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_spec_and_keeps_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        text = handle.read()
    manifest = json.loads(text)
    assert manifest == spec.manifest()
    assert len(text.encode()) <= 64 * 1024
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert {w["name"] for w in manifest["workloads"]} == {"lookup", "session"}
    names = []
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        assert _UNIT.match(metric["unit"])
        names.append(metric["name"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in manifest["end_to_end"])}]
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert _UNIT.match(metric["unit"])
        names.append(metric["name"])
    assert all(_NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 1 <= manifest["run_seconds"] <= 60
