"""Seeded request streams and the oracle that checks every reply.

Every request the load generator sends is made here from the workload
seed and the generated instance; the program never sees anything but
those generated inputs.  Every request carries its expectation, worked
out in plain Python over the generated entries (never through the
program's own query engine), and a reply that does not meet it counts
as a failed request.

Writes move the set of live entries, so answers that count entries
are checked against bounds kept by a :class:`Ledger`: a reply may show
any committed state between the moment its request was sent and the
moment it came back, and a write that failed may or may not have
committed.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Optional, Tuple

#: Kinds a request is measured under (see ``spec.END_TO_END``).
READ, DOOR_READ, FIRST_READ, WRITE, CHECK, SESSION = (
    "read", "door_read", "first_read", "write", "check", "session",
)

#: Added persons are deleted again this many adds later, so |D| stays flat.
DELETE_LAG = 4

#: Added persons carry this name: no lookup or scoped filter matches it.
ADDED_NAME = "bench writer"


@dataclass
class Person:
    dn: str
    uid: str
    name: str
    mails: Tuple[str, ...]
    classes: FrozenSet[str]
    org: int


class Oracle:
    """What the generated instance holds, in the shapes the checks need."""

    def __init__(self, instance) -> None:
        self.total = len(instance)
        self.persons: List[Person] = []
        self.units: List[Tuple[str, int]] = []  # (dn, org)
        self.orgs: List[str] = []
        for entry in instance:
            dn = instance.dn_string_of(entry)
            classes = frozenset(c.lower() for c in entry.classes)
            org_rdn = dn.rsplit(",", 1)[-1]
            if "organization" in classes:
                self.orgs.append(dn)
                continue
            org = int(org_rdn.split("=org", 1)[1])
            if "orgunit" in classes:
                self.units.append((dn, org))
            elif "person" in classes:
                self.persons.append(Person(
                    dn=dn,
                    uid=str(entry.first_value("uid")),
                    name=str(entry.first_value("name")),
                    mails=tuple(str(m) for m in entry.values("mail")),
                    classes=classes,
                    org=org,
                ))
        self.orgs.sort(key=lambda dn: int(dn.split("=org", 1)[1]))
        self.with_mail = [p for p in self.persons if p.mails]
        # Substring probes take three digits of one of these uid numbers.
        self.mail_probes = [p for p in self.with_mail if len(p.uid) >= 4]
        self.last_names = sorted({p.name.rsplit(" ", 1)[-1] for p in self.persons})


class Ledger:
    """Counts of person adds and deletes, per organization, as issued
    and as acknowledged.  Between a read's send and its reply the
    number of live added persons in a scope lies within
    ``[acked adds at send - deletes issued by reply,
    adds issued by reply - deletes acked at send]``."""

    def __init__(self, orgs: int) -> None:
        self.adds_issued = [0] * orgs
        self.adds_acked = [0] * orgs
        self.dels_issued = [0] * orgs
        self.dels_acked = [0] * orgs

    def snapshot(self, org: Optional[int]) -> Tuple[int, int, int, int]:
        pick = (lambda xs: sum(xs)) if org is None else (lambda xs: xs[org])
        return (
            pick(self.adds_issued), pick(self.adds_acked),
            pick(self.dels_issued), pick(self.dels_acked),
        )

    @staticmethod
    def bounds(before, after) -> Tuple[int, int]:
        lower = before[1] - after[2]
        upper = after[0] - before[3]
        return lower, upper


@dataclass
class Request:
    """One protocol request with its expectation.

    ``check(reply, ledger_before)`` returns ``None`` for a correct reply
    or a one-line reason; it reads the ledger again itself for the
    state at reply time.  ``on_send``/``on_reply`` keep the ledger in
    step with writes."""

    kind: str
    op: str
    fields: dict
    check: Callable[[dict, "Optional[tuple]"], Optional[str]]
    scope: Optional[int] = None  # org whose ledger counts the check reads
    reads_ledger: bool = False
    on_send: Optional[Callable[[], None]] = None
    on_reply: Optional[Callable[[dict], None]] = None
    meta: dict = field(default_factory=dict)


def _ok(reply: dict, _before) -> Optional[str]:
    return None if reply.get("ok") else f"{reply.get('error')}: {reply.get('message')}"


def _expect_dns(expected: FrozenSet[str]):
    def check(reply: dict, _before) -> Optional[str]:
        if not reply.get("ok"):
            return f"{reply.get('error')}: {reply.get('message')}"
        got = [e["dn"] for e in reply.get("entries", ())]
        if len(got) != len(expected) or set(got) != expected:
            return f"expected {len(expected)} entries, got {len(got)}"
        return None
    return check


class Streams:
    """The seeded request makers one run draws from.

    Each connection's reads come from their own :class:`random.Random`,
    seeded from the workload seed and the connection's role; writes
    from one more.  A run's requests are fixed by its seed."""

    def __init__(self, oracle: Oracle, seed: int, ledger: Ledger) -> None:
        self.oracle = oracle
        self.seed = seed
        self.ledger = ledger
        self._write_rng = random.Random(f"{seed}:writes")
        self._writes = 0
        self._cycle = 0
        self._live: deque = deque()  # (dn, org) of acked adds, oldest first

    def reads(self, role: str) -> "ReadMix":
        """The read maker of one connection role."""
        return ReadMix(self, random.Random(f"{self.seed}:{role}"))

    def check(self) -> Request:
        """The full Figure 4 legality check: always legal here, over a
        directory whose size the ledger bounds."""
        oracle = self.oracle
        ledger = self.ledger

        def check(reply: dict, before) -> Optional[str]:
            if not reply.get("ok"):
                return f"{reply.get('error')}: {reply.get('message')}"
            if reply.get("legal") is not True:
                return f"check reported illegal: {reply.get('violations')[:3]}"
            lower, upper = ledger.bounds(before, ledger.snapshot(None))
            live = reply.get("entries", -1) - oracle.total
            if not lower <= live <= upper:
                return f"check counted {live} added entries, bounds {lower}..{upper}"
            return None

        return Request(CHECK, "check", {}, check, reads_ledger=True)

    # -- writes ---------------------------------------------------------
    def write(self) -> Request:
        """The next write of the cycle add, modify, guard-rejected
        insert, delete of the add :data:`DELETE_LAG` adds back.  The
        delete slot is skipped until that many adds are live."""
        while True:
            slot = self._cycle % 4
            self._cycle += 1
            if slot == 3 and len(self._live) <= DELETE_LAG:
                continue
            break
        rng = self._write_rng
        oracle = self.oracle
        ledger = self.ledger
        self._writes += 1
        n = self._writes
        if slot == 0:
            unit, org = rng.choice(oracle.units)
            uid = f"w{n}"
            dn = f"uid={uid},{unit}"
            fields = {
                "dn": dn, "classes": ["person", "top"],
                "attributes": {"uid": [uid], "name": [ADDED_NAME]},
            }

            def on_send(org=org):
                ledger.adds_issued[org] += 1

            def on_reply(reply, dn=dn, org=org):
                if reply.get("ok") and reply.get("applied"):
                    ledger.adds_acked[org] += 1
                    self._live.append((dn, org))

            return Request(WRITE, "add", fields, _expect_applied(True),
                           on_send=on_send, on_reply=on_reply,
                           meta={"shape": "add", "uid": uid, "dn": dn})
        if slot == 1:
            person = rng.choice(oracle.persons)
            phone = f"+1 973 555 {rng.randrange(10000):04d}"
            changes = (
                f"dn: {person.dn}\nchangetype: modify\n"
                f"replace: telephoneNumber\ntelephoneNumber: {phone}\n-\n"
            )
            return Request(WRITE, "modify", {"changes": changes},
                           _expect_applied(True), meta={"shape": "modify"})
        if slot == 2:
            person = rng.choice(oracle.persons)
            fields = {
                "dn": f"ou=reject{n},{person.dn}",
                "classes": ["orgUnit", "orgGroup", "top"],
                "attributes": {"ou": [f"reject{n}"]},
            }
            return Request(WRITE, "add", fields, _expect_applied(False),
                           meta={"shape": "reject"})
        dn, org = self._live.popleft()

        def on_send_delete(org=org):
            ledger.dels_issued[org] += 1

        def on_reply_delete(reply, org=org):
            if reply.get("ok") and reply.get("applied"):
                ledger.dels_acked[org] += 1

        return Request(WRITE, "delete", {"dn": dn}, _expect_applied(True),
                       on_send=on_send_delete, on_reply=on_reply_delete,
                       meta={"shape": "delete"})


class ReadMix:
    """The reads of one connection.  Shapes come in a fixed cycle, so a
    run's mix does not vary with chance; what each read asks for is
    drawn from the connection's own seeded generator."""

    LOOKUP_SHAPES = ("uid", "mail", "scoped")

    def __init__(self, streams: Streams, rng: random.Random) -> None:
        self.streams = streams
        self.oracle = streams.oracle
        self.rng = rng
        self.lookups = 0

    def lookup(self, kind: str) -> Request:
        """An equality, substring or scoped search with a small answer."""
        oracle, rng = self.oracle, self.rng
        shape = self.LOOKUP_SHAPES[self.lookups % 3]
        self.lookups += 1
        if shape == "uid":
            person = rng.choice(oracle.persons)
            fields = {"scope": "sub", "filter": f"(uid={person.uid})"}
            expected = frozenset([person.dn])
        elif shape == "mail":
            person = rng.choice(oracle.mail_probes)
            digits = person.uid[1:]
            start = rng.randrange(len(digits) - 2)
            token = digits[start:start + 3]
            fields = {"scope": "sub", "filter": f"(mail=*{token}*)"}
            expected = frozenset(
                p.dn for p in oracle.with_mail
                if any(token in m.lower() for m in p.mails)
            )
        else:
            org = rng.randrange(len(oracle.orgs))
            last = rng.choice(oracle.last_names)
            fields = {
                "base": oracle.orgs[org], "scope": "sub",
                "filter": f"(&(objectClass=researcher)(name=*{last}))",
            }
            expected = frozenset(
                p.dn for p in oracle.persons
                if p.org == org and "researcher" in p.classes
                and p.name.lower().endswith(last)
            )
        return Request(kind, "search", fields, _expect_dns(expected),
                       meta={"shape": shape, "expected": expected})


def _expect_applied(applied: bool):
    def check(reply: dict, _before) -> Optional[str]:
        if not reply.get("ok"):
            return f"{reply.get('error')}: {reply.get('message')}"
        if reply.get("applied") is not applied:
            return f"expected applied={applied}, got {reply.get('applied')}"
        return None
    return check


def bind() -> Request:
    return Request(SESSION, "bind", {"dn": "cn=bench"}, _ok)


def unbind() -> Request:
    return Request(SESSION, "unbind", {}, _ok)
