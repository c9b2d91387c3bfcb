"""Run a `viskey` CLI command with every public function of the package traced.

    python3 bench/launch.py SPANS_FILE -- serve --port 9000 --state st --model m.txt

Each public function of each `viskey` module is wrapped at every name its
callers use (the module attribute and every `from ... import` binding), and
the server's per-request dispatch is wrapped as the root span of each verb.
Spans stay in memory, with a per-thread parent stack, and are written to
SPANS_FILE as JSON when the command ends, including on SIGTERM.

A span is [id, parent, root, name, start_ns, end_ns, attrs]; times come from
CLOCK_MONOTONIC so that run.py can place them in its own phases.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import signal
import sys
import threading
import time

MODULES = ("bitimage", "vcs", "denoise", "ocr", "classify", "font", "cas", "cli")


def _thread_wchar():
    """Bytes this thread has passed to write(2) so far."""
    with open(f"/proc/self/task/{threading.get_native_id()}/io", "rb") as f:
        for line in f:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    return 0


def _glyph_matches(key, decoded):
    return sum(a == b for a, b in zip(key, decoded))


def _notes(name, args, kwargs, result):
    """Span name suffix and counts for the calls whose outcome the benchmark
    reports. Only counts are kept: never a key or a decoded string."""
    if name == "bitimage.read_pbm":
        return name + "." + bytes(args[0][:2]).decode("ascii", "replace"), {}
    if name == "bitimage.write_pbm":
        variant = args[1] if len(args) > 1 else kwargs.get("variant", "P1")
        return f"{name}.{variant}", {"bytes": len(result)}
    if name == "ocr.segment":
        return name, {"glyphs": len(result)}
    if name == "classify.train_model":
        return name, {"skipped": len(result.skipped)}
    if name == "cas.authenticate":
        key = args[0].key
        decoded = key if result.outcome == "Granted" else result.decoded
        return name, {"outcome": result.outcome, "reason": result.reason,
                      "key_len": len(key), "glyph_ok": _glyph_matches(key, decoded)}
    return name, {}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, notes=_notes):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            root = stack[0] if stack else sid
            stack.append(sid)
            wchar = _thread_wchar() if name == "cas.save_record" else None
            t0 = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                t1 = time.monotonic_ns()
                stack.pop()
                tracer.spans.append([sid, parent, root, name, t0, t1,
                                     {"error": type(e).__name__}])
                raise
            t1 = time.monotonic_ns()
            stack.pop()
            span_name, attrs = notes(name, args, kwargs, result)
            if wchar is not None:
                attrs["bytes_written"] = _thread_wchar() - wchar
            tracer.spans.append([sid, parent, root, span_name, t0, t1, attrs])
            return result

        return traced


def _dispatch_notes(name, args, kwargs, result):
    parts = args[2].split()
    verb = parts[0].upper() if parts else ""
    gid = parts[1] if len(parts) > 1 else ""
    return f"cas.verb.{verb}", {"gid": gid, "reply": result[0].split(" ", 1)[0]}


def instrument(tracer):
    """Replace every public function of the package, at every binding."""
    mods = {m: importlib.import_module(f"viskey.{m}") for m in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for attr, fn in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            wrapped[id(fn)] = tracer.wrap(f"{short}.{attr}", fn)
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped and inspect.isfunction(value):
                setattr(mod, attr, wrapped[id(value)])
    handler = mods["cas"]._Handler
    handler._dispatch = tracer.wrap("cas.verb", handler._dispatch, _dispatch_notes)
    return mods["cli"]


def _stop(signum, frame):
    sys.exit(0)


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: launch.py SPANS_FILE -- <viskey arguments>", file=sys.stderr)
        return 2
    spans_file, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    cli = instrument(tracer)
    signal.signal(signal.SIGTERM, _stop)
    code = 1
    try:
        code = cli.run_cli(cli_args)
    finally:
        with open(spans_file, "w") as f:
            json.dump(list(tracer.spans), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
