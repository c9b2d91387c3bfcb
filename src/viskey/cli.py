"""Single `viskey` executable exposing every pipeline stage and the service.

Exit status: 0 success, 1 domain error, 2 usage error. All randomness is
controlled through --seed flags so every stage is reproducible.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import cas, classify, font, vcs
from .bitimage import DimensionError, read_pbm, write_pbm
from .denoise import adaptive_filter
from .ocr import extract_features, normalize_glyph, segment


def _read(path):
    return read_pbm(Path(path).read_bytes())


def _write(path, img, variant):
    Path(path).write_bytes(write_pbm(img, variant))


def _glyph_features(path):
    """The 48 features of the one glyph in a PBM file; ValueError if the
    image holds another number of glyphs."""
    img = _read(path)
    boxes = segment(img)
    if len(boxes) != 1:
        raise ValueError(f"expected 1 glyph, found {len(boxes)}")
    return extract_features(normalize_glyph(img, boxes[0]))


def build_parser():
    ap = argparse.ArgumentParser(prog="viskey")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a random alphanumeric key")
    p.add_argument("--length", type=int, default=6)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("render", help="render a key string as a PBM image")
    p.add_argument("key")
    p.add_argument("--font", default=cas.DEFAULT_FONT)
    p.add_argument("--spacing", type=int, default=cas.DEFAULT_SPACING)
    p.add_argument("--out", required=True)

    p = sub.add_parser("encode", help="split a PBM secret into shares")
    p.add_argument("image")
    p.add_argument("--scheme", type=int, required=True, help="share count n")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--group-id", default="-")

    p = sub.add_parser("reconstruct", help="OR-stack share PBMs")
    p.add_argument("shares", nargs="+")
    p.add_argument("--out", required=True)

    p = sub.add_parser("denoise", help="decide each block of a stacked PBM")
    p.add_argument("image")
    p.add_argument("--sidecar", required=True, help="sidecar of any share in the stack")
    p.add_argument("--out", required=True)

    p = sub.add_parser("segment", help="print glyph bounding boxes")
    p.add_argument("image")

    p = sub.add_parser("features", help="print the 48 features of a glyph image")
    p.add_argument("image")

    p = sub.add_parser("train", help="train the recognition model on the built-in glyphs")
    # accepted for older command lines; training depends on neither
    p.add_argument("--scheme", type=int, help=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("classify", help="classify one glyph image")
    p.add_argument("image")
    p.add_argument("--model", required=True)

    p = sub.add_parser("decode", help="read a stacked key image back to text")
    p.add_argument("image")
    p.add_argument("--model", required=True)
    p.add_argument("--scheme", type=int, required=True)

    for name in ("create", "fetch", "submit", "auth"):
        p = sub.add_parser(name, help=f"{name.upper()} against a running CAS")
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, required=True)
        p.add_argument("group_id")
        if name == "create":
            p.add_argument("n", type=int)
            p.add_argument("key_len", type=int)
            p.add_argument("seed", type=int)
        elif name == "fetch":
            p.add_argument("member", type=int)
            p.add_argument("--out", required=True)
        elif name == "submit":
            p.add_argument("member", type=int)
            p.add_argument("share")

    p = sub.add_parser("serve", help="run the CAS service")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--host", default="127.0.0.1")

    p = sub.add_parser("demo", help="full create/distribute/authenticate story")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--key-len", type=int, default=6)
    return ap


def run_cli(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        return _run(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _run(args) -> int:
    cmd = args.command

    if cmd == "keygen":
        print(cas.generate_key(args.length, args.seed))
        return 0

    if cmd == "render":
        img = cas.render_key_image(args.key, args.font, args.spacing)
        _write(args.out, img, "P1")
        return 0

    if cmd == "encode":
        params = vcs.scheme_params(args.scheme)
        secret = _read(args.image)
        for i, share in enumerate(vcs.encode(secret, params, args.seed), start=1):
            _write(f"{args.out_prefix}_{i}.pbm", share, "P4")
            Path(f"{args.out_prefix}_{i}.txt").write_text(
                vcs.share_sidecar(params, share.a.shape, i, args.group_id)
            )
        print(f"wrote {params.n} shares to {args.out_prefix}_*.pbm")
        return 0

    if cmd == "reconstruct":
        merged = vcs.reconstruct([_read(p) for p in args.shares])
        _write(args.out, merged, "P1")
        return 0

    if cmd == "denoise":
        img = _read(args.image)
        params, sw, sh, *_ = vcs.parse_sidecar(Path(args.sidecar).read_text())
        if (img.width, img.height) != (sw * params.block_w, sh * params.block_h):
            raise DimensionError(f"stack is {img.width}x{img.height}, the sidecar's shares are "
                                 f"{sw * params.block_w}x{sh * params.block_h}")
        _write(args.out, adaptive_filter(img, params), "P1")
        return 0

    if cmd == "segment":
        for box in segment(_read(args.image)):
            print(f"{box.top} {box.bottom} {box.left} {box.right}")
        return 0

    if cmd == "features":
        print(",".join(f"{v:.6f}" for v in _glyph_features(args.image)))
        return 0

    if cmd == "train":
        model = classify.train_model(font.corpus())
        classify.save_model(model, args.out)
        print(f"trained {len(model.samples)} samples ({len(model.skipped)} skipped)")
        return 0

    if cmd == "classify":
        model = classify.load_model(args.model)
        label, dist = classify.classify_1nn(_glyph_features(args.image), model)
        print(f"{label} {dist:.6f}")
        return 0

    if cmd == "decode":
        model = classify.load_model(args.model)
        print(classify.decode_string(_read(args.image), model, vcs.scheme_params(args.scheme)))
        return 0

    if cmd in ("create", "fetch", "submit", "auth"):
        client = cas.CasClient(args.host, args.port)
        try:
            if cmd == "create":
                reply = client.create(args.group_id, args.n, args.key_len, args.seed)
            elif cmd == "fetch":
                reply, payload = client.fetch(args.group_id, args.member)
            elif cmd == "submit":
                reply = client.submit(args.group_id, args.member, Path(args.share).read_bytes())
            else:
                reply = client.auth(args.group_id)
        finally:
            client.close()
        print(reply)
        if cmd == "fetch" and payload:
            Path(args.out).write_bytes(payload)
        return 1 if reply.startswith(("ERR", "DENIED")) else 0  # the server refused

    if cmd == "serve":
        model = classify.load_model(args.model)
        cas.serve(args.port, args.state, model, args.host)
        return 0

    if cmd == "demo":
        return _demo(args)

    raise AssertionError(f"unhandled command {cmd}")


def _demo(args) -> int:
    params = vcs.scheme_params(args.n)
    print(f"scheme: n={params.n} m={params.m} block={params.block_h}x{params.block_w}")
    record = cas.create_group("demo", args.n, args.key_len, args.seed)
    print(f"key: {record.key}")
    h, w = record.shape
    print(f"shares: {params.n} of {w}x{h}")
    model = classify.train_model(font.corpus())
    print(f"model: {len(model.samples)} samples")
    record.submissions = {1: record.shares[0], 2: record.shares[1]}
    decision = cas.authenticate(record, model)
    if decision.outcome == cas.GRANTED:
        print("AUTH: GRANTED")
        return 0
    print(f"AUTH: DENIED {decision.reason} {decision.decoded}")
    return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
