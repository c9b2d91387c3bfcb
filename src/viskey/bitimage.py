"""Bilevel raster type, PBM I/O and the raster primitives used by the pipeline.

Convention: 1 = black (ink), 0 = white (background), matching PBM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PbmError(ValueError):
    """Malformed PBM input. Carries the byte offset where parsing failed."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class DimensionError(ValueError):
    pass


class BitImage:
    """Immutable rectangular bilevel raster backed by a uint8 numpy array."""

    __slots__ = ("a",)

    def __init__(self, a):
        a = np.asarray(a, dtype=np.uint8)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionError(f"image must be 2-d and nonempty, got shape {a.shape}")
        if a.max(initial=0) > 1:
            raise ValueError("pixel values must be 0 or 1")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    def __setattr__(self, name, value):
        raise AttributeError("BitImage is immutable")

    @property
    def height(self):
        return self.a.shape[0]

    @property
    def width(self):
        return self.a.shape[1]

    def __eq__(self, other):
        if not isinstance(other, BitImage):
            return NotImplemented
        return self.a.shape == other.a.shape and bool((self.a == other.a).all())

    def __hash__(self):
        return hash((self.a.shape, self.a.tobytes()))

    def __repr__(self):
        return f"BitImage({self.width}x{self.height}, {int(self.a.sum())} black)"


@dataclass(frozen=True)
class Rect:
    """Inclusive bounding box: rows top..bottom, columns left..right."""

    top: int
    bottom: int
    left: int
    right: int

    def __post_init__(self):
        if not (0 <= self.top <= self.bottom and 0 <= self.left <= self.right):
            raise ValueError(f"degenerate rect {self}")


_WHITESPACE_BYTES = b" \t\r\n\v\f"


def _tokens(data):
    """Yield (token, offset) over whitespace-separated header tokens, skipping
    '#' comments that run to end of line."""
    i, n = 0, len(data)
    while i < n:
        c = data[i : i + 1]
        if c in _WHITESPACE_BYTES:
            i += 1
        elif c == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
        else:
            start = i
            while i < n and data[i : i + 1] not in _WHITESPACE_BYTES + b"#":
                i += 1
            yield data[start:i], start, i
    yield None, n, n


_WHITESPACE = np.zeros(256, dtype=bool)
_WHITESPACE[list(_WHITESPACE_BYTES)] = True


def _read_p1_payload(data, start, w, h):
    """The w*h bits of a P1 payload that begins at byte `start`.

    Pixels are the bytes outside whitespace and '#' comments; a run of them
    is a token. The token holding the last pixel must end there, and every
    byte up to its end must be '0' or '1'; anything after it is ignored.
    """
    buf = np.frombuffer(data, dtype=np.uint8)[start:]
    pos = np.arange(len(buf))
    last_hash = np.maximum.accumulate(np.where(buf == 0x23, pos, -1))
    last_newline = np.maximum.accumulate(np.where(buf == 0x0A, pos, -1))
    kept = np.flatnonzero(~_WHITESPACE[buf] & (last_hash <= last_newline))
    need = w * h
    # kept indices where a token ends (the next kept byte is not adjacent)
    token_ends = np.append(np.flatnonzero(np.diff(kept) != 1), len(kept) - 1)
    k = np.searchsorted(token_ends, need - 1)
    stop = token_ends[k] + 1 if k < len(token_ends) else len(kept)
    vals = buf[kept[:stop]]
    bad = np.flatnonzero((vals != 0x30) & (vals != 0x31))
    if len(bad):
        i = bad[0]
        raise PbmError(f"invalid P1 bit {chr(vals[i])!r}", start + int(kept[i]))
    if stop < need:
        raise PbmError(f"truncated P1 payload: got {stop} of {need} bits", len(data))
    if stop > need:
        first = token_ends[k - 1] + 1 if k else 0
        raise PbmError(f"trailing bits beyond {need}", start + int(kept[first]))
    return (vals - 0x30).reshape(h, w)


def read_pbm(data: bytes) -> BitImage:
    """Parse a P1 (ASCII) or P4 (packed binary) PBM file."""
    toks = _tokens(data)
    magic, off, _ = next(toks)
    if magic not in (b"P1", b"P4"):
        raise PbmError(f"bad magic {magic!r}, expected P1 or P4", off)
    dims = []
    for _ in range(2):
        tok, off, end = next(toks)
        if tok is None or not tok.isdigit():
            raise PbmError(f"expected numeric dimension, got {tok!r}", off)
        dims.append(int(tok))
    w, h = dims
    if w <= 0 or h <= 0:
        raise PbmError(f"dimensions must be positive, got {w}x{h}", off)

    if magic == b"P1":
        return BitImage(_read_p1_payload(data, end, w, h))

    # P4: payload starts one whitespace byte after the height token (its end
    # is still in `end`); the payload bytes must not be tokenized.
    payload_start = end + 1
    row_bytes = (w + 7) // 8
    need = row_bytes * h
    payload = data[payload_start : payload_start + need]
    if len(payload) < need:
        raise PbmError(
            f"truncated P4 payload: got {len(payload)} of {need} bytes",
            payload_start + len(payload),
        )
    rows = np.frombuffer(payload, dtype=np.uint8).reshape(h, row_bytes)
    bits = np.unpackbits(rows, axis=1)[:, :w]
    return BitImage(bits)


def write_pbm(img: BitImage, variant: str = "P1") -> bytes:
    """Serialize canonically: 'P1\\n<w> <h>\\n' + one row per line, or
    'P4\\n<w> <h>\\n' + MSB-first packed rows padded with zero bits."""
    header = f"{variant}\n{img.width} {img.height}\n".encode()
    if variant == "P1":
        body = np.full((img.height, 2 * img.width), ord(" "), dtype=np.uint8)
        body[:, 0::2] = img.a + ord("0")
        body[:, -1] = ord("\n")
        return header + body.tobytes()
    if variant == "P4":
        packed = np.packbits(img.a, axis=1)
        return header + packed.tobytes()
    raise ValueError(f"unknown PBM variant {variant!r}")


def or_merge(images) -> BitImage:
    """Pixelwise OR of equally sized images."""
    images = list(images)
    if not images:
        raise ValueError("or_merge of empty sequence")
    first = images[0]
    acc = first.a.copy()
    for idx, img in enumerate(images[1:], start=1):
        if img.a.shape != first.a.shape:
            raise DimensionError(
                f"image {idx} is {img.width}x{img.height}, "
                f"image 0 is {first.width}x{first.height}"
            )
        acc |= img.a
    return BitImage(acc)


def downsample_majority(img: BitImage, block_h: int, block_w: int) -> BitImage:
    """Collapse each block_h x block_w tile to one pixel by majority vote;
    ties go to black."""
    if img.height % block_h or img.width % block_w:
        raise DimensionError(
            f"{img.width}x{img.height} not divisible into {block_h}x{block_w} blocks"
        )
    h, w = img.height // block_h, img.width // block_w
    sums = img.a.reshape(h, block_h, w, block_w).sum(axis=(1, 3))
    threshold = (block_h * block_w + 1) // 2
    return BitImage((sums >= threshold).astype(np.uint8))
