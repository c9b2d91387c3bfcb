"""Decode of OR-stacked share images: one decision per block.

In a clean stack of two or more shares, the number of black subpixels in a
block is one of a few legal weights, and the weight alone tells white from
black (the contrast property of the scheme). A block with a legal count
takes that colour. A block with any other count (noise) takes the majority,
ties black, of the windowed filter's subpixels in that block.

Windowed filter: per pixel, the black ratio of a window clipped to the image
is compared against two cutoffs: below the white cutoff the pixel becomes
white, above the black cutoff it becomes black, and in between the window
grows until the upper size limit; a pixel that is still undecided keeps its
input value. All decisions read the input raster only, so visit order is
irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitimage import BitImage, DimensionError, downsample_majority
from .vcs import TWO_OF_TWO, SchemeParams

# odd window sizes, grown by an even step so every window stays centred
INITIAL_WINDOW = 3
MAX_WINDOW = 11
GROWTH_STEP = 2


@dataclass(frozen=True)
class FilterParams:
    """Block geometry and the black-subpixel counts a clean stacked block of
    each colour can have."""

    block_h: int
    block_w: int
    white: tuple
    black: tuple

    def __post_init__(self):
        if self.block_h < 1 or self.block_w < 1:
            raise ValueError(f"block must be at least 1x1, got {self.block_h}x{self.block_w}")
        legal = range(self.block_h * self.block_w + 1)
        if not all(c in legal for c in self.white + self.black):
            raise ValueError(f"weights must lie in 0..{self.block_h * self.block_w}")
        if not (self.white and self.black and max(self.white) < min(self.black)):
            raise ValueError("every white weight must lie below every black weight")

    @property
    def cutoffs(self) -> tuple:
        """The windowed filter's white and black cutoffs. d_w is the stacked
        black density of a white block and d_b the least density of a black
        one; the cutoffs sit at one-third margins inside the (d_w, d_b) gap."""
        m = self.block_h * self.block_w
        d_w, d_b = max(self.white) / m, min(self.black) / m
        gap = d_b - d_w
        return d_w + gap / 3, d_b - gap / 3


def default_params(params: SchemeParams) -> FilterParams:
    """The scheme's block geometry and stacked weights.

    All rows of the white basis matrix are equal, so a stack of any two or
    more shares gives a white block t-1 black subpixels; a black block has
    2t-3 (two shares) up to m (2-of-2: 1 and 2).
    """
    if params.variant == TWO_OF_TWO:
        white, black = (1,), (2,)
    else:
        white, black = (params.t - 1,), tuple(range(2 * params.t - 3, params.m + 1))
    return FilterParams(params.block_h, params.block_w, white, black)


def _window_counts(cum, i0, i1, j0, j1):
    # cum is the zero-padded 2-d prefix sum; slices are half-open row/col
    # bounds per pixel (arrays).
    return cum[i1, j1] - cum[i0, j1] - cum[i1, j0] + cum[i0, j0]


def decide_blocks(img: BitImage, fp: FilterParams) -> BitImage:
    """One pixel per block (see the module docstring). The windowed pass runs
    only if some block count is not a legal weight."""
    bh, bw = fp.block_h, fp.block_w
    h, w = img.a.shape
    if h % bh or w % bw:
        raise DimensionError(f"{w}x{h} not divisible into {bh}x{bw} blocks")
    counts = img.a.reshape(h // bh, bh, w // bw, bw).sum(axis=(1, 3))
    colour = np.full(bh * bw + 1, -1, dtype=np.int8)  # count -> 0 white, 1 black, -1 noise
    colour[list(fp.white)] = 0
    colour[list(fp.black)] = 1
    out = colour[counts]
    noise = out < 0
    if noise.any():
        windowed = BitImage(_window_filter(img.a, *fp.cutoffs))
        out[noise] = downsample_majority(windowed, bh, bw).a[noise]
    return BitImage(out)


def adaptive_filter(img: BitImage, fp: FilterParams) -> BitImage:
    """`decide_blocks` expanded back to solid blocks at the input's size."""
    out = decide_blocks(img, fp).a
    return BitImage(np.repeat(np.repeat(out, fp.block_h, axis=0), fp.block_w, axis=1))


def _window_filter(a: np.ndarray, white_cutoff: float, black_cutoff: float) -> np.ndarray:
    """The windowed filter, vectorized over pixels, iterating window sizes
    from INITIAL_WINDOW to MAX_WINDOW.

    Comparisons are strict: a ratio strictly below the white cutoff decides
    white, strictly above the black cutoff decides black; a ratio exactly at
    a cutoff stays indecisive and the window keeps growing.
    """
    h, w = a.shape
    cum = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(np.cumsum(a, axis=0), axis=1, out=cum[1:, 1:])

    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    out = a.copy()
    undecided = np.ones((h, w), dtype=bool)

    win = INITIAL_WINDOW
    while True:
        r = win // 2
        i0 = np.maximum(rows - r, 0)
        i1 = np.minimum(rows + r + 1, h)
        j0 = np.maximum(cols - r, 0)
        j1 = np.minimum(cols + r + 1, w)
        area = (i1 - i0) * (j1 - j0)
        black = _window_counts(cum, np.broadcast_to(i0, (h, w)), np.broadcast_to(i1, (h, w)),
                               np.broadcast_to(j0, (h, w)), np.broadcast_to(j1, (h, w)))
        ratio = black / area
        white_now = undecided & (ratio < white_cutoff)
        black_now = undecided & (ratio > black_cutoff)
        out[white_now] = 0
        out[black_now] = 1
        undecided &= ~(white_now | black_now)
        if win >= MAX_WINDOW or not undecided.any():
            break
        win += GROWTH_STEP
    # pixels still undecided keep their input value (out started as a copy)
    return out
