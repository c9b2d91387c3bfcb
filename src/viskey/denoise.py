"""Decode of OR-stacked share images: one decision per block.

In a clean stack of two or more shares, the number of black subpixels in a
block is one of a few legal weights, and the weight alone tells white from
black (the contrast property of the scheme). A block with a legal count
takes that colour. A block with any other count (noise) takes the majority,
ties black, of the windowed filter evaluated at that block's subpixels only.

Windowed filter: per pixel, the black ratio of a window clipped to the image
is compared against two cutoffs: below the white cutoff the pixel becomes
white, above the black cutoff it becomes black, and in between the window
grows until the upper size limit; a pixel that is still undecided keeps its
input value. All decisions read the input raster only, so visit order and
the set of pixels evaluated change no decision.
"""

from __future__ import annotations

import numpy as np

from .bitimage import BitImage, DimensionError
from .vcs import SchemeParams

# odd window sizes, grown by an even step so every window stays centred
INITIAL_WINDOW = 3
MAX_WINDOW = 11
GROWTH_STEP = 2


def cutoffs(params: SchemeParams) -> tuple:
    """The windowed filter's white and black cutoffs. d_w is the stacked
    black density of a white block and d_b the least density of a black one;
    the cutoffs sit at one-third margins inside the (d_w, d_b) gap."""
    d_w, d_b = max(params.white) / params.m, min(params.black) / params.m
    gap = d_b - d_w
    return d_w + gap / 3, d_b - gap / 3


def decide_blocks(img: BitImage, params: SchemeParams) -> BitImage:
    """One pixel per block (see the module docstring). The windowed filter
    runs only at the subpixels of blocks whose count is not a legal weight."""
    bh, bw = params.block_h, params.block_w
    h, w = img.a.shape
    if h % bh or w % bw:
        raise DimensionError(f"{w}x{h} not divisible into {bh}x{bw} blocks")
    counts = img.a.reshape(h // bh, bh, w // bw, bw).sum(axis=(1, 3))
    colour = np.full(bh * bw + 1, -1, dtype=np.int8)  # count -> 0 white, 1 black, -1 noise
    colour[list(params.white)] = 0
    colour[list(params.black)] = 1
    out = colour[counts]
    noise = out < 0
    if noise.any():
        bi, bj = np.nonzero(noise)
        rows = (bi * bh)[:, None, None] + np.arange(bh)[:, None]  # (k, bh, 1)
        cols = (bj * bw)[:, None, None] + np.arange(bw)  # (k, 1, bw)
        windowed = _window_filter(img.a, *cutoffs(params), rows, cols)
        out[noise] = 2 * windowed.sum(axis=(1, 2)) >= bh * bw  # ties black
    return BitImage(out)


def adaptive_filter(img: BitImage, params: SchemeParams) -> BitImage:
    """`decide_blocks` expanded back to solid blocks at the input's size."""
    out = decide_blocks(img, params).a
    return BitImage(np.repeat(np.repeat(out, params.block_h, axis=0), params.block_w, axis=1))


def _window_filter(a: np.ndarray, white_cutoff: float, black_cutoff: float,
                   rows=None, cols=None) -> np.ndarray:
    """The windowed filter at pixels (rows, cols), index arrays that broadcast
    together (every pixel if omitted); the output has their broadcast shape.
    Window sizes grow from INITIAL_WINDOW to MAX_WINDOW.

    Comparisons are strict: a ratio strictly below the white cutoff decides
    white, strictly above the black cutoff decides black; a ratio exactly at
    a cutoff stays indecisive and the window keeps growing.
    """
    h, w = a.shape
    if rows is None:
        rows, cols = np.ogrid[:h, :w]
    # zero-padded 2-d prefix sum: cum[i, j] counts the black pixels of a[:i, :j]
    cum = np.zeros((h + 1, w + 1), dtype=np.int64)
    cum[1:, 1:] = a
    cum.cumsum(axis=0, out=cum)  # in place, with no wider temporary
    cum.cumsum(axis=1, out=cum)

    out = a[rows, cols]
    undecided = np.ones(out.shape, dtype=bool)

    win = INITIAL_WINDOW
    while True:
        r = win // 2
        i0 = np.maximum(rows - r, 0)
        i1 = np.minimum(rows + r + 1, h)
        j0 = np.maximum(cols - r, 0)
        j1 = np.minimum(cols + r + 1, w)
        black = cum[i1, j1] - cum[i0, j1] - cum[i1, j0] + cum[i0, j0]
        ratio = black / ((i1 - i0) * (j1 - j0))
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
