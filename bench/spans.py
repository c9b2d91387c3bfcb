"""Per-layer metrics from the span files written by `launch.py`.

Cost metrics are taken over the workload's main phases (the rounds' AUTH
phases on auth-*, their enrollment phases on enroll-n21) on every epoch's
server, except P1 reads (every process: all are corpus glyphs), training
(set-up), model loading (every server) and record loading (each epoch's
restart). AUTH outcomes are taken over every AUTH of the rounds. Verb
metrics are taken over every request the load generator timed, each request
matched to its root span by (verb, group) order: a group is driven by one
client at a time, so its requests reach the server in the order they were
sent.
"""

from __future__ import annotations

import bisect
import json
import statistics
from collections import defaultdict

from loadgen import LEGIT

VERBS = ("CREATE", "FETCH", "SUBMIT", "AUTH", "RESET")
DENY_REASONS = ("InsufficientShares", "DimensionMismatch", "KeyMismatch")
SELF_TIME_MODULES = ("bitimage", "vcs", "denoise", "ocr", "classify", "cas")

# name -> span name, for per-call medians inside the main phases
WINDOW_MS = {
    "bitimage.read_pbm.P4.ms": "bitimage.read_pbm.P4",
    "bitimage.write_pbm.P4.ms": "bitimage.write_pbm.P4",
    "bitimage.downsample_majority.ms": "bitimage.downsample_majority",
    "vcs.encode.ms": "vcs.encode",
    "vcs.reconstruct.ms": "vcs.reconstruct",
    "denoise.adaptive_filter.ms": "denoise.adaptive_filter",
    "ocr.segment.ms": "ocr.segment",
    "ocr.normalize_glyph.ms": "ocr.normalize_glyph",
    "ocr.extract_features.ms": "ocr.extract_features",
    "classify.classify_1nn.ms": "classify.classify_1nn",
    "classify.decode_string.ms": "classify.decode_string",
    "cas.render_key_image.ms": "cas.render_key_image",
    "cas.save_record.ms": "cas.save_record",
}
# name -> span name, calls per main-phase operation
WINDOW_CALLS = {
    "vcs.encode.calls": "vcs.encode",
    "denoise.adaptive_filter.calls": "denoise.adaptive_filter",
    "classify.classify_1nn.calls": "classify.classify_1nn",
}


def load(path):
    with open(path) as f:
        return SpanSet(json.load(f))


class SpanSet:
    """Spans of one process. A span is [id, parent, root, name, t0, t1, attrs]."""

    def __init__(self, spans):
        self.spans = spans
        self._child_ns = defaultdict(int)
        for s in spans:
            self._child_ns[s[1]] += s[5] - s[4]

    def self_ns(self, span):
        return span[5] - span[4] - self._child_ns[span[0]]

    def named(self, name):
        return [s for s in self.spans if s[3] == name]

    def within(self, intervals):
        """Spans that start inside one of the sorted, disjoint [t0, t1]."""
        starts = [t0 for t0, _ in intervals]
        out = []
        for s in self.spans:
            i = bisect.bisect_right(starts, s[4]) - 1
            if i >= 0 and s[4] <= intervals[i][1]:
                out.append(s)
        return out

    def roots(self):
        return [s for s in self.spans if s[3].startswith("cas.verb.")]


def _median_ms(spans):
    return statistics.median(s[5] - s[4] for s in spans) / 1e6 if spans else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def match_requests(spansets, reqs):
    """Pair each timed request with its root span: [(req, span, spanset)]."""
    pairs = []
    for server, ss in spansets.items():
        spans = defaultdict(list)
        for s in sorted(ss.roots(), key=lambda s: s[4]):
            spans[(s[3][len("cas.verb."):], s[6]["gid"])].append(s)
        sent = defaultdict(list)
        for r in sorted((r for r in reqs if r.server == server), key=lambda r: r.t0):
            sent[(r.verb, r.gid)].append(r)
        for key, rs in sent.items():
            pairs.extend((r, s, ss) for r, s in zip(rs, spans.get(key, ())))
    return pairs


def main_spans(run):
    """{server: spans inside its main phases} over the epoch servers."""
    intervals = defaultdict(list)
    for server, t0, t1 in run.main:
        intervals[server].append((t0, t1))
    return {server: run.spansets[server].within(sorted(ivs))
            for server, ivs in intervals.items()}


def per_layer(run):
    """All per-layer metrics of one traced run, as {name: (value, unit)}."""
    # spans are numbered per process: (server, span id) names a span
    in_main = [(server, s) for server, spans in main_spans(run).items() for s in spans]
    ops = max(run.main_ops, 1)
    epochs = {lbl: run.spansets[lbl] for lbl in run.epoch_servers}
    self_ns = {(server, s[0]): run.spansets[server].self_ns(s) for server, s in in_main}

    def named(name):
        return [(server, s) for server, s in in_main if s[3] == name]

    m = {}
    for name, span in WINDOW_MS.items():
        m[name] = (_median_ms([s for _, s in named(span)]), "ms")
    for name, span in WINDOW_CALLS.items():
        m[name] = (len(named(span)) / ops, "count/op")

    every = list(run.spansets.values()) + run.train_spans
    m["bitimage.read_pbm.P1.ms"] = (
        _median_ms([s for ss in every for s in ss.named("bitimage.read_pbm.P1")]), "ms")
    trains = [s for ss in run.train_spans for s in ss.named("classify.train_model")]
    m["classify.train_model.s"] = (
        statistics.median(s[5] - s[4] for s in trains) / 1e9 if trains else 0.0, "s")
    m["classify.train_model.skipped"] = (
        statistics.median(s[6].get("skipped", 0) for s in trains) if trains else 0, "count")
    m["classify.load_model.ms"] = (
        _median_ms([s for ss in run.spansets.values() for s in ss.named("classify.load_model")]),
        "ms")
    m["cas.load_record.ms"] = (
        _median_ms([s for ss in epochs.values() for s in ss.named("cas.load_record")]), "ms")

    saves = named("cas.save_record")
    m["cas.save_record.bytes_written"] = (
        statistics.mean(s[6].get("bytes_written", 0) for _, s in saves) if saves else 0,
        "bytes")

    pairs = match_requests(run.spansets, run.reqs)
    for verb in VERBS:
        mine = [(r, s) for r, s, _ in pairs if r.verb == verb]
        m[f"cas.verb.{verb}.server_ms"] = (_median_ms([s for _, s in mine]), "ms")
        m[f"cas.verb.{verb}.wait_ms"] = (
            statistics.median(r.ms - (s[5] - s[4]) / 1e6 for r, s in mine) if mine else 0.0,
            "ms")

    # auth outcomes: every AUTH of the rounds for denials, legitimate ones for quality
    window_roots = {(r.server, s[0]) for r, s, _ in pairs
                    if r.phase == run.window_phase and r.verb == "AUTH"}
    legit_roots = {(r.server, s[0]) for r, s, _ in pairs
                   if r.phase == run.window_phase and r.verb == "AUTH" and r.kind == LEGIT}

    def of_roots(name, roots):
        return [s for lbl, ss in epochs.items() for s in ss.named(name) if (lbl, s[2]) in roots]

    auths = of_roots("cas.authenticate", window_roots)
    for reason in DENY_REASONS:
        m[f"cas.deny.{reason}"] = (sum(s[6].get("reason") == reason for s in auths), "count")
    legit_auths = of_roots("cas.authenticate", legit_roots)
    m["classify.glyph_match_ratio"] = (
        _ratio(sum(s[6]["glyph_ok"] for s in legit_auths),
               sum(s[6]["key_len"] for s in legit_auths)), "ratio")
    segs = of_roots("ocr.segment", legit_roots)
    m["ocr.segment.count_ok_ratio"] = (
        _ratio(sum(s[6]["glyphs"] == run.key_len for s in segs), len(segs)), "ratio")

    main_auths = named("cas.authenticate")
    m["cas.authenticate.self_ms"] = (
        statistics.median(self_ns[(lbl, s[0])] for lbl, s in main_auths) / 1e6
        if main_auths else 0.0, "ms")
    auth_roots = named("cas.verb.AUTH")
    auth_root_ids = {(lbl, s[0]) for lbl, s in auth_roots}
    filt = sum(s[5] - s[4] for lbl, s in named("denoise.adaptive_filter")
               if (lbl, s[2]) in auth_root_ids)
    m["denoise.adaptive_filter.share_of_auth"] = (
        _ratio(filt, sum(s[5] - s[4] for _, s in auth_roots)), "ratio")

    for mod in SELF_TIME_MODULES:
        total = sum(self_ns[(lbl, s[0])] for lbl, s in in_main if s[3].startswith(mod + "."))
        m[f"layer.{mod}.self_ms_per_op"] = (total / 1e6 / ops, "ms/op")
    return m


def summary(run):
    """Calls, total and self milliseconds of every span name in the main phases."""
    rows = defaultdict(lambda: [0, 0, 0])
    for server, spans in main_spans(run).items():
        ss = run.spansets[server]
        for s in spans:
            row = rows[s[3]]
            row[0] += 1
            row[1] += s[5] - s[4]
            row[2] += ss.self_ns(s)
    return {name: {"calls": c, "total_ms": round(tot / 1e6, 3), "self_ms": round(slf / 1e6, 3)}
            for name, (c, tot, slf) in sorted(rows.items(), key=lambda kv: -kv[1][2])}
