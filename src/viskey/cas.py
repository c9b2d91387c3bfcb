"""Central Administrative Server: key generation, share issuance, and
automatic authentication of stacked shares.

The CAS keeps the key as a string; members only ever hold share images.
Authentication OR-stacks the submitted shares, machine-reads the result
through the denoise/segment/classify pipeline and compares strings.
"""

from __future__ import annotations

import logging
import re
import shutil
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import vcs
from .bitimage import BitImage, read_pbm, write_pbm
from .classify import Model, decode_string
from .font import ALPHABET, render_variant
from .ocr import GLYPH_SIZE

log = logging.getLogger(__name__)

DEFAULT_FONT = "f0"
DEFAULT_SPACING = 4
MARGIN = 2
MAX_KEY_LENGTH = 16  # with vcs.MAX_SHARES, bounds the work of one CREATE

GRANTED = "Granted"
DENIED = "Denied"

INSUFFICIENT_SHARES = "InsufficientShares"
DIMENSION_MISMATCH = "DimensionMismatch"
KEY_MISMATCH = "KeyMismatch"


@dataclass(frozen=True)
class AuthDecision:
    outcome: str  # GRANTED or DENIED
    reason: str = ""  # empty when granted; KeyMismatch carries the decoded text
    decoded: str = ""


@dataclass
class GroupRecord:
    group_id: str
    key: str
    params: vcs.SchemeParams
    shares: tuple  # n canonical P4 files (`write_pbm(share, "P4")`), index 0 is member 1
    # member index -> canonical P4 file, the issued share's own object where equal to it
    submissions: dict = field(default_factory=dict)
    version: int = 0  # of the next save_record, which picks its record file
    # held by SUBMIT and RESET: each save rewrites the older record file
    lock: threading.Lock = field(default_factory=threading.Lock, compare=False, repr=False)
    # (model, submissions, decision) of the last `authenticate`, which alone sets it; in
    # memory only, one decision per group
    last_auth: tuple = field(default=(None, None, None), compare=False, repr=False)

    @property
    def shape(self) -> tuple:
        """(height, width) of every share, from the first share's header."""
        return _p4_shape(self.shares[0])


def _canonical_p4(data: bytes) -> bytes:
    """Any PBM `read_pbm` accepts, as the canonical P4 file `write_pbm` makes."""
    return write_pbm(read_pbm(data), "P4")


def _as_held(shares: tuple, member: int, share: bytes) -> bytes:
    """`share`, or the member's issued share object if equal to it: an honest
    submission then costs no memory beyond the issued shares."""
    issued = shares[member - 1]
    return issued if share == issued else share


def _p4_shape(data: bytes) -> tuple:
    """(height, width) from the header of a canonical P4 file, `P4\\n<w> <h>\\n`."""
    w, h = data.split(b"\n", 2)[1].split()
    return int(h), int(w)


def generate_key(length: int, seed: int) -> str:
    """Uniform random alphanumeric key over 0-9, A-Z."""
    if length < 1:
        raise ValueError("key length must be >= 1")
    rng = np.random.default_rng(seed)
    return "".join(ALPHABET[i] for i in rng.integers(0, len(ALPHABET), size=length))


def key_layout(length: int, spacing: int = DEFAULT_SPACING) -> tuple:
    """(height, width) of the key image of `length` glyphs, and each glyph's first
    column: GLYPH_SIZE squares `spacing` columns apart, in a MARGIN white border."""
    pitch = GLYPH_SIZE + spacing
    shape = (2 * MARGIN + GLYPH_SIZE, 2 * MARGIN + length * pitch - spacing)
    return shape, range(MARGIN, MARGIN + length * pitch, pitch)


def render_key_image(key: str, font_id: str = DEFAULT_FONT,
                     spacing: int = DEFAULT_SPACING) -> BitImage:
    """Draw the key's corpus glyphs into the slots of its `key_layout`."""
    if not key:
        raise ValueError("empty key")
    if spacing < 2:
        raise ValueError("spacing must be >= 2 so glyphs stay separable")
    shape, columns = key_layout(len(key), spacing)
    canvas = np.zeros(shape, dtype=np.uint8)
    for ch, x in zip(key, columns):
        canvas[MARGIN : MARGIN + GLYPH_SIZE, x : x + GLYPH_SIZE] = render_variant(ch, font_id).a
    return BitImage(canvas)


def create_group(group_id: str, n: int, key_length: int, seed: int) -> GroupRecord:
    """Generate a key, render it, split it into n shares held as P4 files."""
    params = vcs.scheme_params(n)
    if key_length > MAX_KEY_LENGTH:
        raise ValueError(f"key length must be at most {MAX_KEY_LENGTH}, got {key_length}")
    rng_seeds = np.random.SeedSequence(seed).spawn(2)
    key = generate_key(key_length, rng_seeds[0].generate_state(1)[0])
    secret = render_key_image(key)
    shares = vcs.encode(secret, params, int(rng_seeds[1].generate_state(1)[0]))
    return GroupRecord(group_id, key, params, tuple(write_pbm(s, "P4") for s in shares))


def _max_payload() -> int:
    """Size of the largest FETCH payload the limits admit: the P4 file of the
    last member's share and its sidecar line, for a 64-character group id.
    A fetched file can be submitted as it is: SUBMIT ignores the bytes after
    the PBM."""
    p = vcs.scheme_params(vcs.MAX_SHARES)
    (h, w), _ = key_layout(MAX_KEY_LENGTH)
    h, w = h * p.block_h, w * p.block_w
    sidecar = vcs.share_sidecar(p, (h, w), p.n, "x" * 64)
    return len(f"P4\n{w} {h}\n") + (w + 7) // 8 * h + len(sidecar)


MAX_PAYLOAD = _max_payload()

# The longest legal request line, CRLF included: CREATE with a 64-character
# group id, the largest n and key length and a 20-digit (any 64-bit) seed.
# Every SUBMIT line is shorter.
MAX_LINE = len(f"CREATE {'x' * 64} {vcs.MAX_SHARES} {MAX_KEY_LENGTH} {2**64 - 1}\r\n")

# Seconds a connection may stay silent, mid-request or between requests,
# before the server closes it and frees its thread.
IDLE_TIMEOUT = 60

# Connections served at once, a thread each; one more gets `ERR busy`, then EOF.
MAX_CONNECTIONS = 64


def authenticate(record: GroupRecord, model: Model) -> AuthDecision:
    """Stack the submitted shares and compare the machine-read key. A
    decision depends only on the key and scheme, which never change, the
    model and the submissions, so a repeat with the model and submissions of
    the last call returns that call's decision without decoding. Reads the
    submissions once, as `save_record` replaces them whole, so it decides on
    one stack while a save runs. Sets only the record's memo, `last_auth`."""
    subs = record.submissions
    memo_model, memo_subs, decision = record.last_auth
    if memo_model is model and memo_subs == subs:
        return decision
    if len(subs) < 2:
        decision = AuthDecision(DENIED, INSUFFICIENT_SHARES)
    elif any(_p4_shape(s) != record.shape for s in subs.values()):
        decision = AuthDecision(DENIED, DIMENSION_MISMATCH)
    else:
        decoded = decode_string(vcs.reconstruct(map(read_pbm, subs.values())),
                                model, record.params)
        decision = (AuthDecision(GRANTED) if decoded == record.key
                    else AuthDecision(DENIED, KEY_MISMATCH, decoded))
    record.last_auth = (model, dict(subs), decision)  # a copy: a caller may edit its dict
    return decision


# ---------------------------------------------------------------------------
# file persistence

# A group's record alternates between two files. Each save rewrites the one
# holding the older version in place, so a save torn by a crash leaves the
# newer whole version in the other file, and `load_record` reads the whole
# one with the higher version. Renaming a new file over a single record file
# would do the same, but on ext4 it made each save about 0.6 ms slower, a
# cost that every SUBMIT and RESET, which save the record once, would pay.
# Each version holds every submission, so at the limits (n = 33, 16-character
# key, all 33 held) a SUBMIT rewrites 9.4 MB: 5-7 ms on ext4, against 0.7-0.8
# ms with a file per submission. Held packed, they take 9.4 MB, not 75 MB.
# No fsync: this survives a crash of the process, not a power loss.
RECORD_FILES = ("record.txt", "record.1.txt")


def save_record(record: GroupRecord, state_dir, submissions=None) -> None:
    """Write the group's next record version: `key` and `scheme` lines, per
    member in `submissions` (default: the record's own) a `submission <member>
    <nbytes>` line and its P4 bytes, then the `version` line. The record holds
    `submissions` only once they are written. The first save (version 0, from
    `CREATE`) makes the group directory, FileExistsError if taken, and shares."""
    submissions = record.submissions if submissions is None else submissions
    gdir = Path(state_dir) / record.group_id
    if record.version == 0:  # shares first: a group with a record has its shares
        gdir.mkdir(parents=True)
        for i, share in enumerate(record.shares, start=1):
            (gdir / f"share_{i}.pbm").write_bytes(share)
    data = [f"key {record.key}\nscheme {vcs.format_scheme(record.params)}\n".encode()]
    for member, share in sorted(submissions.items()):
        data += [f"submission {member} {len(share)}\n".encode(), share]
    data.append(f"version {record.version}\n".encode())  # last: a torn save lacks it
    (gdir / RECORD_FILES[record.version % 2]).write_bytes(b"".join(data))
    record.submissions = submissions
    record.version += 1


def _read_whole(path: Path):
    """A record file's fields and (member, P4 bytes) submissions, or None if
    its save was torn: a whole version ends at the end of the file, after its
    `version` line or, as earlier versions wrote it, a `status` line. Each
    submission's bytes are stepped over by their count, never read as lines."""
    data = path.read_bytes()
    fields, submissions, pos, name = {}, [], 0, ""
    while pos < len(data) and (end := data.find(b"\n", pos)) >= 0:
        name, _, value = data[pos:end].decode().partition(" ")
        pos = end + 1
        if name == "submission":
            member, nbytes = map(int, value.split())
            if nbytes < 0:
                raise ValueError(f"submission {member} has negative size {nbytes}")
            submissions.append((member, data[pos : pos + nbytes]))
            pos += nbytes
        else:
            fields[name] = value
    if pos != len(data) or name not in ("version", "status"):
        return None
    return fields, submissions


def load_record(group_id: str, state_dir) -> GroupRecord:
    """Read the newest whole version of a group saved by `save_record`;
    KeyError if no version is whole or its key or scheme line is missing,
    ValueError if its members are not distinct in 1..n, a share or submission
    is not a PBM, or its scheme or share sizes are inconsistent. Unread lines
    are ignored. Earlier versions list members on a `submitted` line and keep
    each submission in `submission_<i>.pbm`, which nothing deletes: a torn
    first save in this format falls back to such a version."""
    gdir = Path(state_dir) / group_id
    saved = (_read_whole(gdir / name) for name in RECORD_FILES if (gdir / name).exists())
    whole = [v for v in saved if v is not None]
    if not whole:
        raise KeyError(f"no whole record version in {group_id}")
    fields, inline = max(whole, key=lambda v: int(v[0].get("version", 0)))
    params = vcs.parse_scheme(fields["scheme"].split())
    shares = tuple(_canonical_p4((gdir / f"share_{i}.pbm").read_bytes())
                   for i in range(1, params.n + 1))
    shape = _p4_shape(shares[0])
    if any(_p4_shape(s) != shape for s in shares):
        raise ValueError("shares differ in size")
    params.secret_shape(shape)  # a DimensionError unless they tile into blocks
    legacy = [int(v) for v in fields.get("submitted", "").split()]
    members = [m for m, _ in inline] + legacy
    if len(set(members)) != len(members) or not all(1 <= i <= params.n for i in members):
        raise ValueError(f"submitted members {members} are not distinct in 1..{params.n}")
    inline += [(i, (gdir / f"submission_{i}.pbm").read_bytes()) for i in legacy]
    return GroupRecord(group_id, fields["key"], params, shares,
                       {m: _as_held(shares, m, _canonical_p4(data)) for m, data in inline},
                       version=int(fields.get("version", 0)) + 1)


# ---------------------------------------------------------------------------
# line-protocol service

class CasState:
    """Server-side group table with file persistence. A group enters it only
    once its first save has completed, and never leaves it."""

    def __init__(self, state_dir, model: Model):
        self.state_dir = Path(state_dir)
        self.model = model
        self._records = {}
        self._table_lock = threading.Lock()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        for gdir in self.state_dir.iterdir():
            gid = gdir.name
            if not (GROUP_ID.fullmatch(gid) and gdir.is_dir()):
                continue
            try:
                self._records[gid] = load_record(gid, self.state_dir)
            except (KeyError, ValueError, OSError) as e:
                # move it aside, under a name no group id matches
                dest = self.state_dir / f"{gid}.corrupt.{time.time_ns()}"
                gdir.rename(dest)
                log.warning("group %s: unreadable record (%s), moved to %s",
                            gid, type(e).__name__, dest.name)

    def get(self, group_id):
        with self._table_lock:
            return self._records.get(group_id)

    def add(self, record) -> bool:
        """Insert `record` unless its group id is taken; True if inserted."""
        with self._table_lock:
            return self._records.setdefault(record.group_id, record) is record


USAGE = {
    "CREATE": "CREATE <group_id> <n> <key_len> <seed>",
    "FETCH": "FETCH <group_id> <member>",
    "SUBMIT": "SUBMIT <group_id> <member> <nbytes>",
    "AUTH": "AUTH <group_id>",
    "RESET": "RESET <group_id>",
}

# group ids name directories under the state dir: no separators, no dots
GROUP_ID = re.compile(r"[A-Za-z0-9_-]{1,64}")


class ProtocolError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _Handler(socketserver.StreamRequestHandler):
    timeout = IDLE_TIMEOUT

    def handle(self):
        try:
            self._serve(self.server.cas_state)
        except TimeoutError:
            log.debug("closing idle connection from %s", self.client_address)

    def _serve(self, state):
        while True:
            line = self.rfile.readline(MAX_LINE + 1)
            if not line:
                return
            try:
                if len(line) > MAX_LINE:
                    raise ProtocolError("toolong", f"request line exceeds {MAX_LINE} bytes")
                # undecodable bytes become U+FFFD, which no verb or group id accepts
                text = line.decode("utf-8", errors="replace").strip()
                reply, payload = self._dispatch(state, text)
            except ProtocolError as e:
                reply, payload = f"ERR {e.code} {e}", b""
            except TimeoutError:
                raise
            except Exception as e:  # I/O failures close the connection
                log.exception("request failed")
                self.wfile.write(f"ERR internal {e}\n".encode())
                return
            self.wfile.write(reply.encode("utf-8") + b"\n" + payload)
            self.wfile.flush()
            if reply.startswith(("ERR payload", "ERR toolong")):  # the stream is out of step
                return

    def _dispatch(self, state, line):
        parts = line.split()
        if not parts:
            raise ProtocolError("empty", "empty request")
        cmd, args = parts[0].upper(), parts[1:]
        usage = USAGE.get(cmd)
        if usage is None:
            raise ProtocolError("unknown", f"unknown command {cmd}")
        if len(args) != len(usage.split()) - 1:
            raise ProtocolError("usage", usage)
        gid = args[0]
        # int() alone would also take "+1", "1_2" and non-ASCII digits
        if not all(v.isascii() and v.isdigit() for v in args[1:]):
            raise ProtocolError("usage", usage)
        nums = [int(v) for v in args[1:]]  # MAX_LINE keeps them within int()'s digit limit
        if cmd == "SUBMIT":
            if nums[1] > MAX_PAYLOAD:
                raise ProtocolError("payload", f"payload exceeds {MAX_PAYLOAD} bytes")
            # read the payload before any other check so the stream stays in step
            data = self.rfile.read(nums[1])
            if len(data) != nums[1]:
                raise ProtocolError("payload", f"expected {nums[1]} payload bytes")
        if not GROUP_ID.fullmatch(gid):
            raise ProtocolError("usage", f"group id must match {GROUP_ID.pattern}")

        if cmd == "CREATE":
            n, key_len, seed = nums
            exists = ProtocolError("exists", f"group {gid} already exists")
            if state.get(gid) is not None:
                raise exists
            try:  # before the directory: a refused CREATE leaves nothing behind
                record = create_group(gid, n, key_len, seed)
            except ValueError as e:
                raise ProtocolError("badscheme", str(e))
            try:  # the save's mkdir reserves the id: of two CREATEs, one makes it
                save_record(record, state.state_dir)
            except FileExistsError:  # not ours: leave it
                raise exists from None
            except BaseException:  # a group exists once saved, or not at all
                shutil.rmtree(state.state_dir / gid, ignore_errors=True)
                raise
            if not state.add(record):  # the id is in the table, but its directory vanished
                shutil.rmtree(state.state_dir / gid, ignore_errors=True)
                raise exists
            return f"OK {gid} {n}", b""

        record = state.get(gid)
        if record is None:
            raise ProtocolError("unknowngroup", f"no group {gid}")
        if cmd in ("FETCH", "SUBMIT") and not (1 <= nums[0] <= record.params.n):
            raise ProtocolError("unknownmember", f"member must be 1..{record.params.n}")

        if cmd == "SUBMIT":
            try:
                share = _as_held(record.shares, nums[0], _canonical_p4(data))
            except ValueError as e:
                raise ProtocolError("badpbm", str(e))

        if cmd == "FETCH":  # shares never change
            (member,) = nums
            payload = (record.shares[member - 1]
                       + vcs.share_sidecar(record.params, record.shape, member, gid).encode())
            return f"SHARE {gid} {member} {len(payload)}", payload

        if cmd == "AUTH":  # decides on the submissions it reads once, which a save replaces whole
            decision = authenticate(record, state.model)
            if decision.outcome == GRANTED:
                return f"GRANTED {gid}", b""
            return f"DENIED {gid} {decision.reason}", b""

        with record.lock:
            if cmd == "SUBMIT":
                save_record(record, state.state_dir, {**record.submissions, nums[0]: share})
                return f"ACCEPTED {len(record.submissions)}", b""
            # RESET, the one verb left
            save_record(record, state.state_dir, {})
            return "OK", b""


class CasServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, state: CasState):
        super().__init__(address, _Handler)
        self.cas_state = state
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

    def process_request(self, request, client_address):
        if not self._slots.acquire(blocking=False):
            request.sendall(f"ERR busy server holds {MAX_CONNECTIONS} connections\n".encode())
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)  # starts the handler thread
        except BaseException:
            self._slots.release()
            raise

    def finish_request(self, request, client_address):
        # on the handler thread; the slot is free before the socket closes
        try:
            super().finish_request(request, client_address)
        finally:
            self._slots.release()


def serve(port: int, state_dir, model: Model, host="127.0.0.1"):
    """Run the CAS service until interrupted."""
    state = CasState(state_dir, model)
    server = CasServer((host, port), state)
    log.info("CAS listening on %s:%d, state in %s", host, port, state_dir)
    try:
        server.serve_forever()
    finally:
        server.server_close()


# ---------------------------------------------------------------------------
# protocol client helpers (used by the CLI and tests)

class CasClient:
    def __init__(self, host, port, timeout=30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.rfile = self.sock.makefile("rb")

    def close(self):
        self.rfile.close()
        self.sock.close()

    def _request(self, line, payload=b""):
        self.sock.sendall(line.encode("utf-8") + b"\n" + payload)
        reply = self.rfile.readline().decode("utf-8").strip()
        if not reply:
            raise ConnectionError("the server closed the connection without a reply")
        return reply

    def create(self, gid, n, key_len, seed):
        return self._request(f"CREATE {gid} {n} {key_len} {seed}")

    def fetch(self, gid, member):
        reply = self._request(f"FETCH {gid} {member}")
        parts = reply.split()
        if parts[0] != "SHARE":
            return reply, b""
        nbytes = int(parts[3])
        payload = self.rfile.read(nbytes)
        if len(payload) != nbytes:
            raise ConnectionError(f"the server closed the connection after {len(payload)} "
                                  f"of {nbytes} share bytes")
        return reply, payload

    def submit(self, gid, member, pbm_bytes):
        return self._request(f"SUBMIT {gid} {member} {len(pbm_bytes)}", pbm_bytes)

    def auth(self, gid):
        return self._request(f"AUTH {gid}")

    def reset(self, gid):
        return self._request(f"RESET {gid}")
