"""What the serving benchmark measures: workloads, metrics, bounds and
tail percentiles.  ``BENCHMARK.json`` at the repository root is made
from this file (``python3 perfbench/run.py --write-manifest``), and a
test keeps the two equal."""

from __future__ import annotations

import json
from typing import Dict

from stats import tail_percentile

#: ``generate_whitepages`` parameters (plus the workload seed): 7,062
#: entries on seed 1, the size the roadmap baseline was taken at.
GENERATOR = dict(orgs=4, units_per_level=4, depth=3, persons_per_unit=20)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 2

#: Seconds one run measures: as long as the contract's time limit for
#: all runs allows, traced runs included (see NOTES.md).
RUN_SECONDS = 35

#: Every workload: one ``serve`` process (plain store, fsync on every
#: commit, the store's only flush policy) and one ``frontdoor`` process
#: in front of it, driven by one load-generator process in a closed
#: loop over two client connections, A (direct) and B (through the
#: door), that take turns.  A workload's ``why`` in ``BENCHMARK.json``
#: is its description, its tails and :data:`SETTING`.
DESCRIPTIONS: Dict[str, str] = {
    "lookup": "per-request cost: small lookups, write+2 checks per 25 turns, 4 new conns",
    "session": "view bootstrap: a new direct conn per cycle, then warm lookups/writes/checks",
}
SETTING = "whitepages(4,4,3,20) 7.06k entries; 2 closed-loop conns, A direct, B door; fsync/commit"

#: Timed samples per latency class in one 35 s run on seed 1.  Each
#: tail percentile is fixed from these counts: the highest ladder
#: percentile leaving ten samples beyond it at :data:`TAIL_MARGIN` of
#: the count, since a slower run makes fewer requests.
SEED_SAMPLES: Dict[str, Dict[str, int]] = {
    "lookup": {"read": 4346, "door_read": 4346, "write": 173},
    "session": {"read": 756, "door_read": 720, "write": 180},
}
TAIL_MARGIN = 0.8

KIND_LABELS = {"read": "read", "door_read": "door", "write": "write"}

TAILS: Dict[str, Dict[str, float]] = {
    workload: {
        kind: tail_percentile(int(samples * TAIL_MARGIN))
        for kind, samples in counts.items()
    }
    for workload, counts in SEED_SAMPLES.items()
}

WORKLOADS: Dict[str, str] = {
    workload: description + "; tails " + " ".join(
        f"{KIND_LABELS[kind]} p{p:g}" for kind, p in TAILS[workload].items()
    ) + "; " + SETTING
    for workload, description in DESCRIPTIONS.items()
}

#: (name, unit, bound).  Every end-to-end metric is lower-is-better but
#: ``ops_s``.  Every metric gets the widest bound the contract allows.
#: Timings: on the shared 2-core host a single-threaded loop's speed
#: drifts by a quarter from one second to the next and by up to 2x over
#: minutes; every timing follows it.  Peak memory: with a fresh
#: session's view it has two modes about 12% apart, depending on
#: whether a closed session's view was collected before the next opened.
END_TO_END = [
    ("setup_s", "s", 0.25),
    ("ops_s", "1/s", 0.25),
    ("read_p50_ms", "ms", 0.25),
    ("read_tail_ms", "ms", 0.25),
    ("door_read_p50_ms", "ms", 0.25),
    ("door_read_tail_ms", "ms", 0.25),
    ("write_p50_ms", "ms", 0.25),
    ("write_tail_ms", "ms", 0.25),
    ("check_p50_ms", "ms", 0.25),
    ("first_read_p50_ms", "ms", 0.25),
    ("server_rss_mb", "MB", 0.25),
]

#: (name, unit, better) — from the traced run.
PER_LAYER = [
    ("server.unaccounted_ms", "ms", "lower"),
    ("query.parse_ms", "ms", "lower"),
    ("query.search_ms", "ms", "lower"),
    ("index.probes", "count", "lower"),
    ("index.candidates_per_hit", "count", "lower"),
    ("server.payload_ms", "ms", "lower"),
    ("protocol.encode_ms", "ms", "lower"),
    ("protocol.decode_ms", "ms", "lower"),
    ("protocol.frame_bytes", "bytes", "lower"),
    ("frontdoor.hop_ms", "ms", "lower"),
    ("frontdoor.reencode_ms", "ms", "lower"),
    ("frontdoor.warmup_failed", "count", "lower"),
    ("reader.open_ms", "ms", "lower"),
    ("reader.open_mb", "MB", "lower"),
    ("reader.refresh_ms", "ms", "lower"),
    ("reader.refresh_frames", "count", "lower"),
    ("incremental.delta_check_ms", "ms", "lower"),
    ("legality.cache_hit_rate", "ratio", "higher"),
    ("journal.commit_ms", "ms", "lower"),
    ("wal.bytes_per_write", "bytes", "lower"),
    ("wal.fsyncs_per_write", "count", "lower"),
    ("legality.check_ms", "ms", "lower"),
    ("legality.check_cache_hit_rate", "ratio", "higher"),
    ("trace.read_p50_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def unit_of(name: str) -> str:
    for entry in END_TO_END + PER_LAYER:
        if entry[0] == name:
            return entry[1]
    raise KeyError(name)


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit,
             "better": "higher" if name == "ops_s" else "lower", "bound": bound}
            for name, unit, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2, ensure_ascii=False) + "\n"
