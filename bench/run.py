#!/usr/bin/env python3
"""The viskey benchmark: the CAS service driven over TCP.

    python3 bench/run.py --workload auth-n9 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Each run starts the real service
(`python3 -m viskey.cli serve`, its own process) and drives it from this one
process over one connection at a time, a closed loop: the client sends its
next request only after the reply to the last one. With one request in
flight the host's two cores never both have to be ours, and a shared host
that lends us one core for a while slows a run far less than it slows two
clients racing each other.

A run is: set-up (train the model, start the server, enroll the groups)
repeated SETUPS times; then EPOCHS epochs. Each epoch restarts the server on
a copy of the first set-up's state, timed to the first FETCH answered, and
runs the same number of rounds; a round is a phase of AUTH sessions and a
phase of enrollments. Every metric is thus sampled across the whole run.

Timings are reported at a reference host speed. A shared host runs the same
code 10-40 % faster or slower for stretches longer than a run, so after every
phase, and around every set-up, the benchmark times a fixed loop of its own
(`calibrate`, no viskey code) and scales each epoch's and set-up's timings by
CAL_REF_MS over that loop's median there. The program's own speed still shows
in full; the host's drift between runs mostly does not. Unscaled values are
in the facts.

The work is fixed by `--seed` and `--seconds`: the rounds per epoch are
those that take about `--seconds` in all at the seed commit on a two-core
host, so the same arguments send the same requests and a faster program
finishes sooner. Each epoch's server starts from the set-up state, which
bounds the memory the enrollments pile up.

`--trace 1` runs every process through `bench/launch.py`, which records
spans around each public function of the package; it reports the per-layer
metrics, and repeats REF_EPOCHS epochs on untraced servers to measure the
tracing overhead. `--trace 0` reports the end-to-end metrics.

The last line of stdout is the result; the line before it lists the facts of
the run. Spans, facts and metrics are also left in `.bench_work/<run>/`.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

MODEL_SEED = 100    # the served model is part of the deployment, not an input
SETUPS = 3
EPOCHS = 9          # server restarts, each followed by an equal share of the rounds
REF_EPOCHS = 3      # --trace 1: untraced epochs that give the tracing overhead
NEG_EVERY = 8       # controls: of every 8 sessions, one single-share and one cross-group
CAL_REF_MS = 0.7    # calibrate()'s median on the two-core host the benchmark was tuned on
CAL_PER_PHASE = 2   # calibrate() samples after each phase
CAL_PER_SETUP = 8   # calibrate() samples before and after each set-up
TAIL_PCT = 90       # the tail percentile; every workload has over 100 samples of each

AUTH, ENROLL = "auth", "enroll"  # the two phases of a round


@dataclass(frozen=True)
class Workload:
    n: int          # share count of every group
    train_n: int    # scheme the served model is trained for
    groups: int     # groups enrolled in each set-up, the sessions' groups
    sessions: int   # sessions per round
    enrolls: int    # enrollments of new groups per round
    main: str       # the phase this workload is about: per-layer metrics cover it
    all_pairs: bool  # sessions walk every (group, pair) once before any repeats
    controls: bool  # sessions mix in submissions that must be denied
    round_s: float  # one round at the seed commit on a two-core host, in seconds


WORKLOADS = {
    # one pair per group, reused: high repeat share, small images
    "auth-n2": Workload(n=2, train_n=2, groups=16, sessions=10, enrolls=2, main=AUTH,
                        all_pairs=False, controls=False, round_s=0.19),
    # a fresh (group, pair) per session, with negative controls
    "auth-n9": Workload(n=9, train_n=9, groups=40, sessions=8, enrolls=2, main=AUTH,
                        all_pairs=True, controls=True, round_s=0.25),
    # the write side; its sessions need no n=21 model, which would cost 9 s
    # of every set-up, so the n=2 model serves
    "enroll-n21": Workload(n=21, train_n=2, groups=4, sessions=1, enrolls=1, main=ENROLL,
                           all_pairs=True, controls=False, round_s=0.20),
}
TINY_GROUPS = {"auth-n2": 2, "auth-n9": 4, "enroll-n21": 2}

E2E = {
    "setup_s": "s", "session_per_s": "1/s", "auth_p50_ms": "ms", "auth_tail_ms": "ms",
    "auth_grant_ratio": "ratio", "op_ok_ratio": "ratio",
    "enroll_per_s": "1/s", "create_p50_ms": "ms", "create_tail_ms": "ms",
    "restart_s": "s", "server_rss_mb": "MB",
}


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "viskey" / "cli.py").is_file():
    fail(f"no viskey sources under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import spans  # noqa: E402  (needs viskey on the path)
from loadgen import CROSS, KEY_LEN, LEGIT, SINGLE, Client, Ledger  # noqa: E402


def mono():
    return time.monotonic_ns()


def tail(values):
    """The TAIL_PCT percentile, nearest rank."""
    xs = sorted(values)
    return xs[max(0, -(-TAIL_PCT * len(xs) // 100) - 1)]


_CAL_IMAGE = np.random.default_rng(0).random((256, 256)) > 0.5


def calibrate():
    """Milliseconds of a fixed mix of interpreter and NumPy bit-image work,
    like the server's, that uses no viskey code: the host's speed now."""
    t0 = mono()
    s = 0
    for i in range(3000):
        s += i * i % 7
    x = _CAL_IMAGE
    for _ in range(20):
        x = np.logical_or(x, np.roll(x, 1, axis=1))
    return (mono() - t0) / 1e6


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def proc_status_kb(pid, field):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} for pid {pid}")


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@dataclass
class Phase:
    server: str  # label of the server that ran it
    kind: str    # AUTH or ENROLL
    t0: int
    t1: int
    ops: int     # sessions or enrollments completed
    cpu_s: float  # server CPU time spent inside the phase

    @property
    def seconds(self):
        return (self.t1 - self.t0) / 1e9


class Server:
    def __init__(self, run, label, state, model, traced):
        self.label, self.port = label, free_port()
        spans_file = run.dir / f"{label}.spans.json" if traced else None
        args = ["serve", "--port", str(self.port), "--state", str(state), "--model", str(model)]
        self.t_launch = mono()
        self.proc = run.spawn(label, args, spans_file)

    def connect(self, run, phase, timeout=60):
        """First client of a starting server, retried until it accepts."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return Client(self.port, self.label, phase, run.ledger)
            except OSError:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"server {self.label} exited with {self.proc.returncode}")
                if time.monotonic() > deadline:
                    raise RuntimeError(f"server {self.label} did not start")
                time.sleep(0.005)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Run:
    def __init__(self, args):
        self.wl = WORKLOADS[args.workload]
        self.name, self.seed, self.seconds = args.workload, args.seed, args.seconds
        self.trace, self.tiny = bool(args.trace), args.tiny
        self.setups = 1 if self.tiny else SETUPS
        self.epochs = 1 if self.tiny else EPOCHS
        self.ref_epochs = 1 if self.tiny else REF_EPOCHS
        self.rounds = 1 if self.tiny else max(
            1, math.ceil(self.seconds / (self.epochs * self.wl.round_s)))
        self.dir = ROOT / ".bench_work" / f"{self.name}-s{self.seed}-t{args.trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.procs = []
        self.ledger = Ledger()
        self.phases = []
        self.cal = defaultdict(list)  # label of a set-up or epoch -> calibrate() samples
        self.restarts = []  # (epoch, seconds from launch to the first FETCH answered)
        self.rss_mb = []    # peak RSS of each epoch's server
        rng = random.Random(self.seed)
        count = TINY_GROUPS[self.name] if self.tiny else self.wl.groups
        self.groups = [(f"g{i:03d}", rng.randrange(2**31)) for i in range(count)]
        self.plan = self.session_plan(random.Random(rng.randrange(2**31)))
        self.enroll_rng = random.Random(rng.randrange(2**31))
        self.enroll_ids = itertools.count()
        self.done_sessions = []
        self.facts = {}

    def session_plan(self, rng):
        """Endless sessions on the set-up groups: (gid, a, b, kind)."""
        pairs = list(itertools.combinations(range(1, self.wl.n + 1), 2))
        if not self.wl.all_pairs:
            pairs = pairs[:1]
        plan = [(g, a, b) for g, _ in self.groups for a, b in pairs]
        rng.shuffle(plan)
        for s, (gid, a, b) in enumerate(itertools.cycle(plan)):
            kind = LEGIT
            if self.wl.controls and s % NEG_EVERY == 3:
                kind = SINGLE
            elif self.wl.controls and s % NEG_EVERY == NEG_EVERY - 1:
                kind = CROSS
            yield gid, a, b, kind

    # -- processes ---------------------------------------------------------

    def spawn(self, label, cli_args, spans_file):
        if spans_file is None:
            cmd = [sys.executable, "-m", "viskey.cli", *cli_args]
        else:
            cmd = [sys.executable, str(BENCH / "launch.py"), str(spans_file), "--", *cli_args]
        with open(self.dir / f"{label}.log", "ab") as log:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
        self.procs.append(proc)
        return proc

    def stop_all(self):
        for p in self.procs:
            if p.poll() is None:
                p.kill()
            p.wait()

    def train(self, label, out):
        spans_file = self.dir / f"{label}.spans.json" if self.trace else None
        proc = self.spawn(label, ["train", "--scheme", str(self.wl.train_n),
                                  "--seed", str(MODEL_SEED), "--out", str(out)], spans_file)
        if proc.wait(150) != 0:
            raise RuntimeError(f"training failed, see {self.dir / (label + '.log')}")

    # -- phases ------------------------------------------------------------

    def setup(self, i):
        """Train, start the server, enroll every group; returns its facts."""
        label = f"setup{i}"
        self.calibrate(label, CAL_PER_SETUP)
        t0 = mono()
        model = self.dir / f"{label}.model.txt"
        self.train(f"train{i}", model)
        state = self.dir / f"{label}.state"
        server = Server(self, label, state, model, self.trace)
        shares = {}
        c = server.connect(self, "setup")
        try:
            for gid, seed in self.groups:
                shares[gid] = c.enroll(gid, self.wl.n, seed)
                if shares[gid] is None:
                    raise RuntimeError(f"set-up enrollment of {gid} failed")
        finally:
            c.close()
        t1 = mono()
        server.stop()
        self.calibrate(label, CAL_PER_SETUP)
        return {"label": label, "model": model, "state": state, "shares": shares,
                "setup_ns": t1 - t0}

    def calibrate(self, label, count):
        self.cal[label] += [calibrate() for _ in range(count)]

    def scale(self, label):
        """Factor that takes a time measured in `label` to the reference host."""
        return CAL_REF_MS / statistics.median(self.cal[label])

    def phase(self, server, kind, work):
        """Time work(), which returns the operations it completed."""
        cpu0 = proc_cpu_s(server.proc.pid)
        t0 = mono()
        ops = work()
        t1 = mono()
        self.phases.append(Phase(server.label, kind, t0, t1, ops,
                                 proc_cpu_s(server.proc.pid) - cpu0))
        self.calibrate(server.label, CAL_PER_PHASE)

    def sessions(self, c):
        for _ in range(self.wl.sessions):
            gid, a, b, kind = next(self.plan)
            c.session(gid, a, b, kind, self.shares, self.shares[self.partner[gid]])
            self.done_sessions.append((gid, a, b, kind))
        return self.wl.sessions

    def enrollments(self, c, label):
        ok = 0
        for _ in range(self.wl.enrolls):
            gid = f"{label}n{next(self.enroll_ids)}"
            ok += c.enroll(gid, self.wl.n, self.enroll_rng.randrange(2**31)) is not None
        return ok

    def epoch(self, label, template, model, traced):
        """Restart on a copy of the set-up state, then the rounds."""
        state = self.dir / f"{label}.state"
        shutil.copytree(template, state)
        server = Server(self, label, state, model, traced)
        gid = self.groups[0][0]
        try:
            c = server.connect(self, "restart")
            got = c.call("FETCH", gid, f"FETCH {gid} 1")
            answered = mono()
            c.close()
            if got is None or c.check_share(got, gid, 1, self.wl.n) != self.shares[gid][1]:
                self.ledger.violation(f"{label}: FETCH {gid} 1 differs from the set-up's")
            self.restarts.append((label, (answered - server.t_launch) / 1e9))
            c = Client(server.port, label, "window", self.ledger)
            try:
                for _ in range(self.rounds):
                    self.phase(server, AUTH, lambda: self.sessions(c))
                    self.phase(server, ENROLL, lambda: self.enrollments(c, label))
            finally:
                c.close()
            self.rss_mb.append(proc_status_kb(server.proc.pid, "VmHWM") / 1024)
        finally:
            server.stop()
            shutil.rmtree(state)

    # -- the run -----------------------------------------------------------

    def execute(self):
        setups = [self.setup(i) for i in range(self.setups)]
        self.shares = setups[0]["shares"]
        if any(s["shares"] != self.shares for s in setups):
            self.ledger.violation("set-up repetitions issued different shares")
        for s in setups[1:]:
            shutil.rmtree(s["state"])
        gids = [g for g, _ in self.groups]
        self.partner = dict(zip(gids, gids[1:] + gids[:1]))  # share source of a CROSS session
        template, model = setups[0]["state"], setups[0]["model"]
        for e in range(self.epochs):
            self.epoch(f"epoch{e}", template, model, self.trace)
        if self.trace:
            for e in range(self.ref_epochs):
                self.epoch(f"ref{e}", template, model, False)
        return setups

    # -- metrics -----------------------------------------------------------

    def window(self, kind, prefix="epoch"):
        return [p for p in self.phases if p.kind == kind and p.server.startswith(prefix)]

    def end_to_end(self, setups):
        """Every timing is scaled to the reference host where it was measured
        (`scale`); latencies pool the rounds of all epochs, rates are the
        median phase, restarts the median epoch, set-up the median set-up."""
        med = statistics.median
        reqs = [r for r in self.ledger.reqs if r.reply not in ("", "ERR")]
        window = [r for r in reqs if r.phase == "window"]
        auth = [r for r in window if r.verb == "AUTH" and r.kind == LEGIT]
        creates = [r for r in window if r.verb == "CREATE"]
        legit = [r for r in self.ledger.reqs
                 if r.phase == "window" and r.verb == "AUTH" and r.kind == LEGIT]

        def rate(kind, scaled):
            return med(p.ops / (p.seconds * (self.scale(p.server) if scaled else 1))
                       for p in self.window(kind))

        def ms(reqs, scaled):
            return [r.ms * (self.scale(r.server) if scaled else 1) for r in reqs]

        def metrics(scaled):
            def sc(label):
                return self.scale(label) if scaled else 1
            return {
                "setup_s": med(s["setup_ns"] / 1e9 * sc(s["label"]) for s in setups),
                "session_per_s": rate(AUTH, scaled),
                "auth_p50_ms": med(ms(auth, scaled)),
                "auth_tail_ms": tail(ms(auth, scaled)),
                "enroll_per_s": rate(ENROLL, scaled),
                "create_p50_ms": med(ms(creates, scaled)),
                "create_tail_ms": tail(ms(creates, scaled)),
                "restart_s": med(s * sc(label) for label, s in self.restarts),
            }

        m = metrics(scaled=True)
        m.update({
            "auth_grant_ratio": sum(r.reply == "GRANTED" for r in legit) / len(legit),
            "op_ok_ratio": len(reqs) / len(self.ledger.reqs),
            "server_rss_mb": med(self.rss_mb),
        })
        self.facts.update({
            "tail_percentile": TAIL_PCT, "auth_samples": len(auth),
            "create_samples": len(creates),
            "calibrate_ms": {label: med(xs) for label, xs in self.cal.items()},
            "calibrate_ref_ms": CAL_REF_MS,
            "unscaled": metrics(scaled=False),
        })
        return {k: (m[k], unit) for k, unit in E2E.items()}

    def per_layer(self, setups):
        epochs = [f"epoch{e}" for e in range(self.epochs)]
        main = self.window(self.wl.main)
        view = SimpleNamespace(
            spansets={lbl: spans.load(self.dir / f"{lbl}.spans.json")
                      for lbl in [f"setup{i}" for i in range(len(setups))] + epochs},
            train_spans=[spans.load(self.dir / f"train{i}.spans.json")
                         for i in range(len(setups))],
            epoch_servers=epochs, main=[(p.server, p.t0, p.t1) for p in main],
            main_ops=sum(p.ops for p in main), window_phase="window",
            reqs=self.ledger.reqs, key_len=KEY_LEN)
        m = spans.per_layer(view)
        ref = self.window(self.wl.main, "ref")
        ref_ops, ref_s = sum(p.ops for p in ref), sum(p.seconds for p in ref)
        ref_cpu = sum(p.cpu_s for p in ref)
        m["server.cpu_ms_per_session"] = (1000 * ref_cpu / max(ref_ops, 1), "ms")
        m["server.cpu_util"] = (ref_cpu / ref_s, "ratio")
        traced_rate = view.main_ops / sum(p.seconds for p in main)
        m["trace.overhead_ratio"] = (traced_rate / (ref_ops / ref_s), "ratio")
        with open(self.dir / "span_summary.json", "w") as f:
            json.dump(spans.summary(view), f, indent=1)
        return m

    def workload_facts(self):
        first = self.shares[self.groups[0][0]][1]
        w, h = (int(v) for v in first.split(b"\n")[1].split())
        legit = [(g, a, b) for g, a, b, kind in self.done_sessions if kind == LEGIT]
        self.facts.update({
            "workload": self.name, "seed": self.seed, "trace": self.trace, "tiny": self.tiny,
            "n": self.wl.n, "key_len": KEY_LEN, "groups": len(self.groups),
            "clients": 1, "share_px": [w, h], "share_p4_bytes": len(first),
            "repeat_share": 1 - len(set(legit)) / len(legit) if legit else 0.0,
            "model_scheme": self.wl.train_n, "model_seed": MODEL_SEED,
            "setups": self.setups, "epochs": self.epochs, "rounds_per_epoch": self.rounds,
            "sessions": len(self.done_sessions),
            "enrollments": sum(p.ops for p in self.window(ENROLL)),
            "window_s": sum(p.seconds for p in self.window(AUTH) + self.window(ENROLL)),
        })


def machine_facts():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(), "commit": commit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke size: fewer groups, one set-up, one epoch of one round")
    args = ap.parse_args(argv)
    gc.disable()  # no collector pauses inside the client's timings
    run = Run(args)
    try:
        setups = run.execute()
    finally:
        run.stop_all()
    run.facts.update(machine_facts())
    run.workload_facts()
    if run.trace:
        metrics = run.per_layer(setups)
    else:
        metrics = run.end_to_end(setups)
    reqs = run.ledger.reqs
    failed = sum(r.reply in ("", "ERR") for r in reqs) + sum(
        r.verb == "AUTH" and r.kind == LEGIT and r.reply == "DENIED" for r in reqs)
    result = {
        "correct": not run.ledger.violations,
        "attempted": len(reqs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(run.dir / "requests.json", "w") as f:
        json.dump([[r.phase, r.server, r.verb, r.kind, r.t0, r.t1, r.reply] for r in reqs], f)
    for d in run.dir.glob("*.state"):
        shutil.rmtree(d)
    with open(run.dir / "result.json", "w") as f:
        json.dump({"facts": run.facts, "violations": run.ledger.violations, **result}, f,
                  indent=1)
    for v in run.ledger.violations[:20]:
        print(f"violation: {v}", file=sys.stderr)
    print(json.dumps({"facts": run.facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
