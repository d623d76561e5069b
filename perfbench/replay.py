"""The traced replay: the request stream of a traced run, served again
in-process on a private copy of the store, one call per layer.

Each request gets a root span, and every call into a layer's public
function gets a child span under it, in the order the server makes
those calls (``repro.server.server``): refresh the connection's view,
parse the filter, search, build the reply entries, encode the frame;
the front door decodes and re-encodes it; the client decodes it.
Writes are split into the incremental check (``apply_tentative``) and
the journal commit (``commit_applied``).  Spans and counts stay in
memory until the replay ends.

The replay is sequential, so its layer times carry no waiting: what
the client saw beyond their sum is the serving overhead
(``server.unaccounted_ms``).
"""

from __future__ import annotations

import os
import time
import tracemalloc
from typing import Dict, List

from repro.ldif.modify import parse_modifications
from repro.query.filter_parser import parse_filter
from repro.server.protocol import decode_frame, encode_frame, ok_response
from repro.server.server import _entry_payload as entry_payload
from repro.store import DirectoryStore
from repro.store.reader import StoreReader
from repro.store.wal import StoreIO
from repro.updates.operations import UpdateTransaction
from stats import hop, median, self_times, unaccounted

#: The layers a direct read crosses, in the server's order.
DIRECT_READ_LAYERS = (
    "reader.refresh", "query.parse", "query.search",
    "server.payload", "protocol.encode", "protocol.decode",
)


class Tracer:
    """Spans as ``(name, start, end, parent)`` tuples plus, per root
    span, the request it stands for."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.requests: Dict[int, object] = {}

    def root(self, sample) -> int:
        self.spans.append(("request", time.perf_counter(), 0.0, -1))
        index = len(self.spans) - 1
        self.requests[index] = sample
        return index

    def close(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)

    def call(self, name: str, parent: int, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.spans.append((name, start, time.perf_counter(), parent))
        return result


class CountingIO(StoreIO):
    """The store's I/O layer, counting the bytes the journal appends
    and the fsyncs it issues."""

    def __init__(self) -> None:
        self.appended = 0
        self.fsyncs = 0

    def append_bytes(self, path, data):
        self.appended += len(data)
        return super().append_bytes(path, data)

    def fsync(self, handle):
        self.fsyncs += 1
        return super().fsync(handle)

    def fsync_dir(self, path):
        self.fsyncs += 1
        return super().fsync_dir(path)


def replay(samples, instance, schema, workdir: str) -> dict:
    """Serve ``samples`` (a traced run's requests, in send order) again
    in-process and return the spans, counters and any mismatch."""
    store_dir = os.path.join(workdir, "replay-store")
    DirectoryStore.create(store_dir, schema, instance).close()

    # Memory of one view: a separate open under tracemalloc, which
    # slows the open it measures.
    tracemalloc.start()
    try:
        StoreReader.open(store_dir, schema).close()
        open_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    io = CountingIO()
    store = DirectoryStore.open(store_dir, schema, io=io)
    tracer = Tracer()
    views: Dict[str, object] = {}
    counts = {
        "refresh_frames": 0, "refreshes": 0, "probes": 0, "candidates": 0,
        "returned": 0, "searches": 0, "commits": 0,
        "write_hits": 0, "write_lookups": 0, "check_hits": 0, "check_lookups": 0,
    }
    mismatches: List[str] = []
    try:
        # The set-up left these views open and warm; so does the replay.
        keys = {s.key for s in samples}
        for key in ("direct:A", "door"):
            if key in keys:
                root = tracer.root(None)
                views[key] = tracer.call("reader.open", root, StoreReader.open,
                                         store_dir, schema)
                tracer.close(root)
        if "door" in views:
            views["door"].check()
        io.appended = io.fsyncs = 0
        for sample in samples:
            _serve_one(sample, tracer, store, views, counts, mismatches,
                       store_dir, schema)
    finally:
        for view in views.values():
            view.close()
        store.close()
    return {
        "spans": tracer.spans,
        "requests": tracer.requests,
        "counts": counts,
        "appended": io.appended,
        "fsyncs": io.fsyncs,
        "open_mb": open_peak / (1024.0 * 1024.0),
        "mismatches": mismatches,
    }


def _view(key: str, root: int, tracer: Tracer, views, store_dir, schema):
    view = views.get(key)
    if view is None:
        view = tracer.call("reader.open", root, StoreReader.open, store_dir, schema)
        views[key] = view
    return view


def _refresh(view, root, tracer, counts):
    result = tracer.call("reader.refresh", root, view.refresh)
    counts["refreshes"] += 1
    counts["refresh_frames"] += result.frames_replayed


def _reply(sample, response: dict, root: int, tracer: Tracer) -> bytes:
    """Encode a reply as the server does; through the door, decode and
    re-encode it as the door does; decode it as the client does."""
    frame = tracer.call("protocol.encode", root, encode_frame, response)
    if sample.path == "door":
        def reencode(frame=frame):
            message = decode_frame(frame[4:])
            message["id"] = sample.rid
            return encode_frame(message)
        frame = tracer.call("frontdoor.reencode", root, reencode)
    tracer.call("protocol.decode", root, decode_frame, frame[4:])
    return frame


def _serve_one(sample, tracer, store, views, counts, mismatches,
               store_dir, schema) -> None:
    op = sample.op
    if op == "bind":
        return
    if op == "unbind":
        if sample.key.startswith("direct:s") and sample.key in views:
            views.pop(sample.key).close()
        return
    root = tracer.root(sample)
    fields = sample.fields
    if op == "search":
        view = _view(sample.key, root, tracer, views, store_dir, schema)
        _refresh(view, root, tracer, counts)
        parsed = tracer.call("query.parse", root, parse_filter, fields["filter"])
        indexes = view.instance.indexes
        probes0, _, candidates0 = indexes.counters()
        entries = tracer.call(
            "query.search", root, view.search,
            base=fields.get("base"), scope=fields.get("scope", "sub"), filter=parsed,
        )
        probes1, _, candidates1 = indexes.counters()
        counts["probes"] += probes1 - probes0
        counts["candidates"] += candidates1 - candidates0
        counts["returned"] += len(entries)
        counts["searches"] += 1
        instance = view.instance
        payload = tracer.call(
            "server.payload", root,
            lambda: [entry_payload(instance, e) for e in entries],
        )
        generation, seq = view.position()
        response = ok_response(
            sample.rid, entries=payload, truncated=False,
            position={"generation": generation, "seq": seq},
        )
        frame = _reply(sample, response, root, tracer)
        sample.meta = dict(sample.meta, frame_bytes=len(frame) - 4)
        expected = (sample.summary or {}).get("entries")
        if expected is None or len(entries) != expected:
            mismatches.append(
                f"search {fields.get('filter')} gave {len(entries)}, traced run {expected}"
            )
    elif op == "check":
        view = _view(sample.key, root, tracer, views, store_dir, schema)
        _refresh(view, root, tracer, counts)
        report = tracer.call("legality.check", root, view.check)
        counts["check_hits"] += report.stats.cache_hits
        counts["check_lookups"] += report.stats.cache_hits + report.stats.cache_misses
        generation, seq = view.position()
        response = ok_response(
            sample.rid, legal=report.is_legal,
            violations=[str(v) for v in report], entries=len(view.instance),
            position={"generation": generation, "seq": seq},
        )
        _reply(sample, response, root, tracer)
        if not report.is_legal:
            mismatches.append("replayed check reported illegal")
    else:
        outcomes = []
        if op == "modify":
            for record in parse_modifications(fields["changes"]):
                outcome, _ = tracer.call("incremental.delta_check", root,
                                         store.modify_tentative, record)
                if outcome.applied:
                    tracer.call("journal.commit", root, store.commit_modified, record)
                outcomes.append(outcome)
        else:
            tx = UpdateTransaction()
            if op == "add":
                tx.insert(fields["dn"], fields["classes"], fields["attributes"])
            else:
                tx.delete(fields["dn"])
            outcome = tracer.call("incremental.delta_check", root, store.apply_tentative, tx)
            if outcome.applied:
                tracer.call("journal.commit", root, store.commit_applied, tx)
            outcomes.append(outcome)
        applied = all(o.applied for o in outcomes)
        for outcome in outcomes:
            if outcome.applied:
                counts["commits"] += 1
            stats = outcome.stats
            counts["write_hits"] += stats.cache_hits
            counts["write_lookups"] += stats.cache_hits + stats.cache_misses
        response = ok_response(
            sample.rid, applied=applied,
            violations=[str(v) for o in outcomes for v in o.report],
            position={"generation": store.generation, "seq": store.journal_length},
        )
        _reply(sample, response, root, tracer)
        if (sample.summary or {}).get("applied") is not applied:
            mismatches.append(f"{op} applied={applied}, traced run {sample.summary}")
    tracer.close(root)


def layer_metrics(result: dict, part1, warmup_failed: int,
                  untraced_read_p50: float) -> Dict[str, float]:
    """Per-layer metrics from a replay and the traced run it replayed."""
    spans = result["spans"]
    selves = self_times([(n, s, e, p) for n, s, e, p in spans])
    by_request: Dict[int, Dict[str, float]] = {}
    open_ms: List[float] = []
    for i, (name, start, end, parent) in enumerate(spans):
        if name == "reader.open":
            open_ms.append(selves[i] * 1e3)
        if parent >= 0:
            layers = by_request.setdefault(parent, {})
            layers[name] = layers.get(name, 0.0) + selves[i] * 1e3

    def layer(name: str, where=lambda s: True) -> List[float]:
        return [
            layers[name] for root, layers in by_request.items()
            if name in layers and result["requests"].get(root) is not None
            and where(result["requests"][root])
        ]

    def p50(name: str, where=lambda s: True) -> float:
        values = layer(name, where)
        return median(values) if values else 0.0

    searches = [s for s in result["requests"].values()
                if s is not None and s.op == "search"]
    counts = result["counts"]

    def is_direct_read(s) -> bool:
        return s.op == "search" and s.path == "direct" and s.kind == "read"

    def is_search(s) -> bool:
        return s.op == "search"

    read_p50 = median(part1.latencies("read", "direct")) * 1e3
    door_p50 = median(part1.latencies("door_read", "door")) * 1e3
    layer_p50s = [p50(name, is_direct_read) for name in DIRECT_READ_LAYERS]
    commits = max(counts["commits"], 1)
    return {
        "server.unaccounted_ms": unaccounted(read_p50, layer_p50s),
        "query.parse_ms": p50("query.parse"),
        "query.search_ms": p50("query.search"),
        "index.probes": counts["probes"] / max(counts["searches"], 1),
        "index.candidates_per_hit": counts["candidates"] / max(counts["returned"], 1),
        "server.payload_ms": p50("server.payload"),
        "protocol.encode_ms": p50("protocol.encode", is_search),
        "protocol.decode_ms": p50("protocol.decode", is_search),
        "protocol.frame_bytes": median([s.meta["frame_bytes"] for s in searches]),
        "frontdoor.hop_ms": hop(door_p50, read_p50),
        "frontdoor.reencode_ms": p50("frontdoor.reencode", is_search),
        "frontdoor.warmup_failed": float(warmup_failed),
        "reader.open_ms": median(open_ms),
        "reader.open_mb": result["open_mb"],
        "reader.refresh_ms": p50("reader.refresh"),
        "reader.refresh_frames": counts["refresh_frames"] / max(counts["refreshes"], 1),
        "incremental.delta_check_ms": p50("incremental.delta_check"),
        "legality.cache_hit_rate": counts["write_hits"] / max(counts["write_lookups"], 1),
        "journal.commit_ms": p50("journal.commit"),
        "wal.bytes_per_write": result["appended"] / commits,
        "wal.fsyncs_per_write": result["fsyncs"] / commits,
        "legality.check_ms": p50("legality.check"),
        "legality.check_cache_hit_rate": counts["check_hits"] / max(counts["check_lookups"], 1),
        "trace.read_p50_ms": read_p50,
        "trace.overhead_pct": (read_p50 / untraced_read_p50 - 1.0) * 100.0,
    }
