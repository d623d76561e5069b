#!/usr/bin/env python3
"""The serving benchmark: one workload against a real ``serve`` +
``frontdoor`` topology on a freshly generated store.

Run from the repository root::

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload traced and untraced on one topology, replays the traced
request stream in-process one layer call at a time, and prints the
per-layer metrics.  Every reply is checked; any failed or wrong reply
makes the run exit 1.  The last line of standard output is the result
as one JSON object.  ``--write-manifest`` rewrites ``BENCHMARK.json``
from ``perfbench/spec.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import shutil
import signal
import sys
import time
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402
from stats import median, tail  # noqa: E402


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="rewrite BENCHMARK.json from perfbench/spec.py and exit")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    return args


def _ms(values: List[float]) -> List[float]:
    return [v * 1e3 for v in values]


class Run:
    """One benchmark run: set-ups, the timed phase(s), teardown."""

    def __init__(self, args, workdir: str) -> None:
        from repro.schema.dsl import dump_dsl
        from repro.workloads import generate_whitepages, whitepages_schema
        from traffic import Oracle

        self.args = args
        self.workdir = workdir
        self.generate = lambda: generate_whitepages(**spec.GENERATOR, seed=args.seed)
        self.schema = whitepages_schema()
        self.dump_dsl = dump_dsl
        self.oracle = Oracle(self.generate())
        self.setup_s: List[float] = []
        self.first_reads: List[float] = []
        self.door_failures: List[str] = []
        self.topology = None
        self.warm = None

    async def setup(self, index: int):
        """Generate, create the store, start both processes, warm both
        connections; returns the request streams for the timed phase."""
        from loadgen import warm_up
        from repro.store import DirectoryStore
        from topology import Topology
        from traffic import Ledger, Streams

        t0 = time.perf_counter()
        instance = self.generate()
        store_dir = os.path.join(self.workdir, f"store{index}")
        DirectoryStore.create(store_dir, self.schema, instance).close()
        schema_path = os.path.join(self.workdir, "whitepages.dsl")
        self.dump_dsl(self.schema, schema_path)
        self.topology = Topology(ROOT, self.workdir)
        self.topology.start(store_dir, schema_path)
        streams = Streams(self.oracle, self.args.seed, Ledger(len(self.oracle.orgs)))
        self.warm = await warm_up(self.topology.direct_port, self.topology.door_port,
                                  streams)
        self.setup_s.append(time.perf_counter() - t0)
        self.first_reads.extend(self.warm.first_reads_s)
        self.door_failures.extend(self.warm.door_failures)
        return streams

    async def teardown(self) -> None:
        if self.warm is not None:
            for conn in (self.warm.a, self.warm.b):
                await conn.close()
            self.warm = None
        if self.topology is not None:
            self.topology.stop()
            self.topology = None

    async def phase(self, streams, keep_requests: bool):
        """Run the workload's closed loops for ``--seconds``."""
        from loadgen import Recorder, run_workload

        recorder = Recorder(keep_requests)
        ports = (self.topology.direct_port, self.topology.door_port)
        # The timed phase runs every process on one CPU: in a virtual
        # machine a wake-up on another CPU costs what the host's load
        # makes it, which moved a warm lookup's median by up to 2x from
        # run to run (see NOTES.md).  Set-up keeps every CPU.
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.topology.pin(cpu)
        # The load generator's own garbage collector stays out of the
        # timed latencies; a phase leaves too little garbage to matter.
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            await run_workload(self.args.workload, self.warm, ports, streams,
                               start + self.args.seconds, recorder)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        return recorder, elapsed


def _end_to_end(run: Run, recorder, elapsed: float, rss_mb: float):
    tails = spec.TAILS[run.args.workload]
    series = {
        "read": _ms(recorder.latencies("read", "direct")),
        "door_read": _ms(recorder.latencies("door_read", "door")),
        "write": _ms(recorder.latencies("write")),
    }
    for name, values in series.items():
        if not values:
            raise RuntimeError(f"the run produced no {name} samples")
    checks = _ms(recorder.latencies("check"))
    first_reads = _ms(run.first_reads) + _ms(recorder.latencies("first_read"))
    if not checks:
        raise RuntimeError("the run produced no check samples")
    completed = sum(1 for s in recorder.samples if s.error is None)
    metrics = {
        "setup_s": median(run.setup_s),
        "ops_s": completed / elapsed,
    }
    for name, values in series.items():
        metrics[f"{name}_p50_ms"] = median(values)
        metrics[f"{name}_tail_ms"] = tail(values, tails[name])
    metrics["check_p50_ms"] = median(checks)
    metrics["first_read_p50_ms"] = median(first_reads)
    metrics["server_rss_mb"] = rss_mb
    counts = {name: len(values) for name, values in series.items()}
    counts.update(check=len(checks), first_read=len(first_reads))
    return metrics, counts


async def _main(args, workdir: str) -> dict:
    run = Run(args, workdir)
    try:
        setups = 1 if args.trace else spec.SETUPS
        for index in range(setups):
            if index:
                await run.teardown()
                shutil.rmtree(os.path.join(workdir, f"store{index - 1}"))
            streams = await run.setup(index)
        if not args.trace:
            recorder, elapsed = await run.phase(streams, keep_requests=False)
            rss_mb = run.topology.serve_peak_rss_mb()
            await run.teardown()
            metrics, counts = _end_to_end(run, recorder, elapsed, rss_mb)
            return _result(run, [recorder], metrics, counts, [], elapsed)
        traced, traced_s = await run.phase(streams, keep_requests=True)
        untraced, untraced_s = await run.phase(streams, keep_requests=False)
        await run.teardown()
        from replay import layer_metrics, replay

        samples = sorted((s for s in traced.samples if s.error is None),
                         key=lambda s: s.start)
        result = replay(samples, run.generate(), run.schema, workdir)
        untraced_p50 = median(untraced.latencies("read", "direct")) * 1e3
        metrics = layer_metrics(result, traced, len(run.door_failures), untraced_p50)
        _write_trace(args, traced, result)
        counts = {"replayed": len(samples), "spans": len(result["spans"])}
        return _result(run, [traced, untraced], metrics, counts,
                       result["mismatches"], traced_s + untraced_s)
    finally:
        await run.teardown()


def _result(run: Run, recorders, metrics, counts, mismatches, elapsed) -> dict:
    attempted = sum(len(r.samples) for r in recorders)
    failures = [s for r in recorders for s in r.failures]
    for sample in failures[:20]:
        print(f"FAILED {sample.kind} {sample.op} via {sample.path}: {sample.error}")
    for mismatch in mismatches[:20]:
        print(f"REPLAY MISMATCH {mismatch}")
    for failure in run.door_failures:
        print(f"front-door warm-up attempt failed: {failure}")
    print(f"workload {run.args.workload} seed {run.args.seed}: {attempted} requests "
          f"attempted, {len(failures)} failed, error_rate "
          f"{len(failures) / max(attempted, 1):.6f} over {elapsed:.2f} s")
    print("samples " + " ".join(f"{k}={v}" for k, v in counts.items()))
    tails = spec.TAILS[run.args.workload]
    for name, value in metrics.items():
        note = ""
        for kind, p in tails.items():
            if name == f"{kind}_tail_ms":
                note = f"  (p{p:g})"
        print(f"{name} {value:.6g} {spec.unit_of(name)}{note}")
    return {
        "correct": not failures and not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": spec.unit_of(name)}
            for name, value in metrics.items()
        },
    }


def _write_trace(args, traced, result) -> None:
    """Spans go to disk only when the run ends."""
    out = os.path.join(ROOT, ".perfbench", "traces")
    os.makedirs(out, exist_ok=True)
    client = [
        [s.kind, s.op, s.meta.get("shape"), s.path, s.key, s.rid, s.start, s.end,
         s.reply_bytes, s.error]
        for s in traced.samples
    ]
    requests = result["requests"]
    replayed = [
        [name, start, end, parent,
         getattr(requests.get(i if parent < 0 else parent), "rid", None)]
        for i, (name, start, end, parent) in enumerate(result["spans"])
    ]
    path = os.path.join(out, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump({"client": client, "replay": replayed}, handle)
    print(f"trace written to {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    args = _parse(argv)
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
            handle.write(spec.manifest_text())
        return 0
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "server", "server.py")):
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from topology import kill_leftovers

    # A terminated run still stops its processes and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = asyncio.run(_main(args, workdir))
    finally:
        kill_leftovers()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
