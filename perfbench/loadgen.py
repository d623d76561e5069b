"""The closed-loop load generator: two client connections that take
turns, each request sent only after the previous reply arrived.

Requests go over the wire protocol as the program defines it
(``repro.server.protocol``): a length-prefixed JSON frame out, one
back.  The client reads the raw frame so the reply size is known
without re-encoding it.
"""

from __future__ import annotations

import asyncio
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.server.protocol import ProtocolError, decode_frame, encode_frame
from traffic import (
    DOOR_READ,
    FIRST_READ,
    READ,
    Ledger,
    Request,
    Streams,
    bind,
    unbind,
)

#: A request still unanswered after this long counts as failed.
REQUEST_TIMEOUT_S = 60.0

_LENGTH = struct.Struct(">I")


class Connection:
    """One client connection.  ``path`` is ``direct`` or ``door``;
    ``key`` names the serving view behind it (the server opens one view
    per connection, and the front door shares one backend connection),
    which the traced replay mirrors."""

    def __init__(self, reader, writer, path: str, key: str) -> None:
        self.reader = reader
        self.writer = writer
        self.path = path
        self.key = key
        self.next_id = 0
        self.broken = False  # the transport failed; the loop stops

    @classmethod
    async def open(cls, port: int, path: str, key: str) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer, path, key)

    async def call(self, op: str, fields: dict) -> "tuple[dict, int, int]":
        self.next_id += 1
        rid = self.next_id
        message = {"op": op, "id": rid}
        message.update(fields)
        self.writer.write(encode_frame(message))
        await self.writer.drain()
        (length,) = _LENGTH.unpack(await self.reader.readexactly(_LENGTH.size))
        body = await self.reader.readexactly(length)
        reply = decode_frame(body)
        if reply.get("id") != rid:
            raise ConnectionError(f"reply id {reply.get('id')} for request {rid}")
        return reply, length, rid

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class Sample:
    """One request as the client saw it (the traced run's client span)."""

    kind: str
    op: str
    path: str
    key: str
    start: float
    end: float
    error: Optional[str]
    reply_bytes: int = 0
    rid: int = 0
    fields: Optional[dict] = None
    summary: Optional[dict] = None  # what the replay must reproduce
    meta: Dict = field(default_factory=dict)


class Recorder:
    """Samples of one phase, in memory until the run ends."""

    def __init__(self, keep_requests: bool) -> None:
        self.keep_requests = keep_requests
        self.samples: List[Sample] = []

    @property
    def failures(self) -> List[Sample]:
        return [s for s in self.samples if s.error is not None]

    def latencies(self, kind: str, path: Optional[str] = None) -> List[float]:
        return [
            s.end - s.start for s in self.samples
            if s.kind == kind and s.error is None
            and (path is None or s.path == path)
        ]


def _summary(op: str, reply: dict) -> dict:
    if op == "search":
        return {"entries": len(reply.get("entries", ()))}
    if op == "check":
        return {"legal": reply.get("legal"), "entries": reply.get("entries")}
    if op in ("add", "delete", "modify"):
        return {"applied": reply.get("applied")}
    return {}


async def issue(conn: Connection, request: Request, recorder: Recorder,
                ledger: Ledger, started: Optional[float] = None) -> Sample:
    """Send one request, wait for its reply, check it and record it."""
    before = ledger.snapshot(request.scope) if request.reads_ledger else None
    if request.on_send is not None:
        request.on_send()
    start = time.perf_counter() if started is None else started
    reply: Optional[dict] = None
    size = rid = 0
    try:
        reply, size, rid = await asyncio.wait_for(
            conn.call(request.op, request.fields), REQUEST_TIMEOUT_S
        )
        end = time.perf_counter()
        error = request.check(reply, before)
    except (ConnectionError, OSError, asyncio.TimeoutError,
            asyncio.IncompleteReadError, ProtocolError) as exc:
        end = time.perf_counter()
        error = f"{type(exc).__name__}: {exc}"
        conn.broken = True
    if request.on_reply is not None and reply is not None:
        request.on_reply(reply)
    sample = Sample(request.kind, request.op, conn.path, conn.key, start, end, error)
    if recorder.keep_requests:
        sample.reply_bytes = size
        sample.rid = rid
        sample.fields = request.fields
        sample.summary = _summary(request.op, reply) if reply else None
        sample.meta = request.meta
    recorder.samples.append(sample)
    return sample


@dataclass
class Warm:
    """The persistent client connections a set-up leaves warm, and what
    warming them cost."""

    a: Connection
    b: Connection
    first_reads_s: List[float]  # direct, then through the door
    door_failures: List[str]


async def warm_up(direct_port: int, door_port: int, streams: Streams,
                  retries: int = 10) -> Warm:
    """Open connection A (direct) and B (front door) and serve a first
    read on each, then one check through the door.

    A goes first: its first read opens the connection's server-side
    view, and so does the door's first forwarded read, and the two
    bootstraps at once starve the door's health probe.  Every failed
    door attempt is returned by name; none is hidden by the retry."""
    scratch = Recorder(keep_requests=False)
    ledger = streams.ledger
    reads = streams.reads("warm-up")
    t0 = time.perf_counter()
    a = await Connection.open(direct_port, "direct", "direct:A")
    for request in (bind(), reads.lookup(FIRST_READ)):
        sample = await issue(a, request, scratch, ledger, started=t0)
        if sample.error:
            raise RuntimeError(f"warm-up {request.op} on the direct path: {sample.error}")
    first_read_s = sample.end - t0
    b = await Connection.open(door_port, "door", "door")
    sample = await issue(b, bind(), scratch, ledger)
    if sample.error:
        raise RuntimeError(f"warm-up bind through the door: {sample.error}")
    failures: List[str] = []
    for _ in range(retries):
        t0 = time.perf_counter()
        sample = await issue(b, reads.lookup(DOOR_READ), scratch, ledger)
        if sample.error is None:
            break
        failures.append(sample.error)
        await asyncio.sleep(0.2)
    else:
        raise RuntimeError(f"the front door never served a read: {failures}")
    # The door's first forwarded read opens its backend connection's view.
    door_first_read_s = sample.end - t0
    sample = await issue(b, streams.check(), scratch, ledger)
    if sample.error:
        raise RuntimeError(f"warm-up check through the door: {sample.error}")
    return Warm(a, b, [first_read_s, door_first_read_s], failures)


# ----------------------------------------------------------------------
# the workloads' closed loops
# ----------------------------------------------------------------------
#: Fresh direct sessions ``lookup`` opens in its phase, evenly spaced.
LOOKUP_SESSIONS = 4


async def run_workload(workload: str, warm: Warm, ports: "tuple[int, int]",
                       streams: Streams, deadline: float, recorder: Recorder) -> None:
    """Drive one workload until ``deadline``.

    The two connections take turns, so one request is in flight at a
    time.  Two requests in flight share the serve process's interpreter
    lock, and the host's two cores with the front door and this
    process; their latencies then follow the interleaving and the
    host's load, and the run-to-run spread of a ten-second median
    reached a third of it (see NOTES.md)."""
    direct_port, _ = ports
    ledger = streams.ledger
    a, b = streams.reads("A"), streams.reads("B")
    sessions = 0

    async def send(conn, request, started=None):
        return await issue(conn, request, recorder, ledger, started)

    async def fresh_session(lookups: int) -> None:
        """Connect, bind, ``lookups`` lookups, unbind, on a new direct
        connection; its first read pays the connection's view bootstrap
        and is timed from the connect."""
        nonlocal sessions
        sessions += 1
        t0 = time.perf_counter()
        conn = await Connection.open(direct_port, "direct", f"direct:s{sessions}")
        await send(conn, bind())
        await send(conn, a.lookup(FIRST_READ), started=t0)
        for _ in range(lookups - 1):
            await send(conn, a.lookup(READ))
        await send(conn, unbind())
        await conn.close()

    def running() -> bool:
        return time.perf_counter() < deadline and not (warm.a.broken or warm.b.broken)

    if workload == "lookup":
        # An A lookup and a B lookup; every 25th turn an A write, then a
        # check on each connection.  The checks refresh both views over
        # the new frame, so no lookup pays for the first search after a
        # commit (see NOTES.md); the checks pay for it instead.
        # LOOKUP_SESSIONS times a one-lookup session on a fresh
        # connection, so first_read_p50_ms has samples from the phase.
        turn = 0
        every = (deadline - time.perf_counter()) / LOOKUP_SESSIONS
        next_session = deadline - every * (LOOKUP_SESSIONS - 0.5)
        while running():
            turn += 1
            await send(warm.a, a.lookup(READ))
            await send(warm.b, b.lookup(DOOR_READ))
            if turn % 25 == 0:
                await send(warm.a, streams.write())
                await send(warm.a, streams.check())
                await send(warm.b, streams.check())
            if time.perf_counter() >= next_session:
                next_session += every
                await fresh_session(1)
    elif workload == "session":
        # One connection at a time: a short session on a fresh
        # connection (three lookups), then forty lookups on warm
        # connection A and forty through the door on warm connection
        # B, then ten times an A write and a B check.  A check right
        # after a write, as on ``lookup``, is steadier than checks in a
        # row over an unchanged directory (see NOTES.md).  The warm
        # requests take about a fifth of a cycle and give every other
        # metric its samples.
        while running():
            await fresh_session(3)
            for _ in range(40):
                await send(warm.a, a.lookup(READ))
            for _ in range(40):
                await send(warm.b, b.lookup(DOOR_READ))
            for _ in range(10):
                await send(warm.a, streams.write())
                await send(warm.b, streams.check())
    else:
        raise ValueError(f"unknown workload {workload!r}")
