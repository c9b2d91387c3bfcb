"""Closed-loop load over the CAS line protocol, with output checks.

One `Client` is one TCP connection. Every request is logged as a `Req` with
client-observed timing; every reply the benchmark can judge is checked, and
a wrong one is recorded as a violation that fails the run.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass

from viskey.bitimage import read_pbm, write_pbm

KEY_LEN = 6

LEGIT = "legit"    # two shares of the same group
SINGLE = "single"  # one share only: must be denied
CROSS = "cross"    # shares of two different groups: must be denied


@dataclass(frozen=True)
class Req:
    phase: str
    server: str
    verb: str
    gid: str
    kind: str
    t0: int  # CLOCK_MONOTONIC ns at send
    t1: int  # CLOCK_MONOTONIC ns when the whole reply was read
    reply: str  # first reply token; "" when the connection dropped

    @property
    def ms(self):
        return (self.t1 - self.t0) / 1e6


class Dropped(Exception):
    pass


class Ledger:
    """Everything the clients of one run observed."""

    def __init__(self):
        self.reqs = []
        self.violations = []

    def add(self, req):
        self.reqs.append(req)

    def violation(self, text):
        self.violations.append(text)


class Client:
    def __init__(self, port, server, phase, ledger):
        self.port, self.server, self.phase, self.ledger = port, server, phase, ledger
        self._connect()

    def _connect(self):
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def close(self):
        self.rfile.close()
        self.sock.close()

    def call(self, verb, gid, line, payload=b"", kind=""):
        """Send one request. Returns (reply, body); None after an ERR reply or
        a dropped connection, both of which count as failed requests."""
        t0 = time.monotonic_ns()
        try:
            self.sock.sendall(line.encode() + b"\n" + payload)
            raw = self.rfile.readline()
            if not raw:
                raise Dropped
            reply = raw.decode().strip()
            body = b""
            if reply.startswith("SHARE "):
                nbytes = int(reply.split()[3])
                body = self.rfile.read(nbytes)
                if len(body) != nbytes:
                    raise Dropped
        except (Dropped, OSError):
            self.ledger.add(Req(self.phase, self.server, verb, gid, kind, t0,
                                time.monotonic_ns(), ""))
            self.close()
            self._connect()
            return None
        self.ledger.add(Req(self.phase, self.server, verb, gid, kind, t0,
                            time.monotonic_ns(), reply.split(" ", 1)[0]))
        if reply.startswith("ERR"):
            return None
        return reply, body

    def expect(self, verb, gid, line, want, payload=b""):
        got = self.call(verb, gid, line, payload)
        if got is None:
            return False
        if got[0] != want:
            self.ledger.violation(f"{line!r}: expected {want!r}, got {got[0]!r}")
            return False
        return True

    def enroll(self, gid, n, seed):
        """CREATE a group and FETCH every share. Returns {member: P4 bytes}
        or None when a request failed."""
        if not self.expect("CREATE", gid, f"CREATE {gid} {n} {KEY_LEN} {seed}", f"OK {gid} {n}"):
            return None
        shares = {}
        for member in range(1, n + 1):
            got = self.call("FETCH", gid, f"FETCH {gid} {member}")
            if got is None:
                return None
            p4 = self.check_share(got, gid, member, n)
            if p4 is None:
                return None
            shares[member] = p4
        return shares

    def check_share(self, got, gid, member, n):
        """A fetched share must round-trip through read_pbm and
        write_pbm("P4") byte-identically, followed by its own sidecar."""
        reply, body = got
        if reply != f"SHARE {gid} {member} {len(body)}":
            self.ledger.violation(f"FETCH {gid} {member}: reply {reply!r}")
            return None
        try:
            p4 = write_pbm(read_pbm(body), "P4")
        except ValueError as e:
            self.ledger.violation(f"FETCH {gid} {member}: unreadable share: {e}")
            return None
        if body[: len(p4)] != p4:
            self.ledger.violation(f"FETCH {gid} {member}: share does not round-trip")
            return None
        side = body[len(p4):].decode(errors="replace").split()
        if len(side) != 10 or side[2] != str(n) or side[8] != str(member) or side[9] != gid:
            self.ledger.violation(f"FETCH {gid} {member}: bad sidecar {side}")
            return None
        return p4

    def session(self, gid, a, b, kind, shares, other):
        """RESET, SUBMIT one or two shares, AUTH. `other` supplies share b
        for a CROSS session. Returns "Granted", "Denied" or None."""
        if not self.expect("RESET", gid, f"RESET {gid}", "OK"):
            return None
        first = shares[gid][a]
        if not self.expect("SUBMIT", gid, f"SUBMIT {gid} {a} {len(first)}", "ACCEPTED 1", first):
            return None
        if kind != SINGLE:
            second = (other if kind == CROSS else shares[gid])[b]
            if not self.expect("SUBMIT", gid, f"SUBMIT {gid} {b} {len(second)}",
                               "ACCEPTED 2", second):
                return None
        got = self.call("AUTH", gid, f"AUTH {gid}", kind=kind)
        if got is None:
            return None
        reply = got[0]
        if reply == f"GRANTED {gid}":
            if kind != LEGIT:
                self.ledger.violation(f"{kind} submission to {gid} was GRANTED")
            return "Granted"
        if reply.startswith(f"DENIED {gid} "):
            return "Denied"
        self.ledger.violation(f"AUTH {gid}: reply {reply!r}")
        return None
