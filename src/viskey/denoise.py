"""Filter for OR-stacked share images: exact block counts, windowed fallback.

Block mode: in a clean stack of two or more shares, the number of black
subpixels in a block is one of a few legal weights, and the weight alone
tells white from black (the contrast property of the scheme). A block with a
legal count becomes solid white or solid black; only blocks with any other
count (noise) take the windowed filter's output.

Pixel mode (no block geometry, or an image that does not tile into blocks):
per pixel, the black ratio of a window clipped to the image is compared
against two cutoffs: below the white cutoff the pixel becomes white, above
the black cutoff it becomes black, and in between the window grows until the
upper size limit; a pixel that is still undecided keeps its input value.
All decisions read the input raster only, so visit order is irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitimage import BitImage
from .vcs import TWO_OF_TWO, SchemeParams


@dataclass(frozen=True)
class BlockWeights:
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
        if set(self.white) & set(self.black):
            raise ValueError("a count cannot be both a white and a black weight")


@dataclass(frozen=True)
class FilterParams:
    white_cutoff: float
    black_cutoff: float
    initial_window: int = 3
    max_window: int = 11
    growth_step: int = 2
    blocks: BlockWeights | None = None  # None: pixel mode only

    def __post_init__(self):
        if not (0 < self.white_cutoff < self.black_cutoff < 1):
            raise ValueError(
                f"need 0 < white_cutoff < black_cutoff < 1, got "
                f"{self.white_cutoff}, {self.black_cutoff}"
            )
        if self.initial_window % 2 == 0 or self.max_window % 2 == 0:
            raise ValueError("window sizes must be odd")
        if self.initial_window < 3 or self.max_window < self.initial_window:
            raise ValueError("need 3 <= initial_window <= max_window")
        if self.growth_step % 2:
            raise ValueError("growth_step must be even")


def default_params(params: SchemeParams) -> FilterParams:
    """Block weights and cutoffs derived from the scheme's stacked weights.

    All rows of the white basis matrix are equal, so a stack of any two or
    more shares gives a white block t-1 black subpixels; a black block has
    2t-3 (two shares) up to m (2-of-2: 1 and 2). For the windowed fallback,
    d_w is the stacked black density of a white region and d_b the minimum
    stacked density of a black region; the cutoffs sit at one-third margins
    inside the (d_w, d_b) gap.
    """
    if params.variant == TWO_OF_TWO:
        white, black = (1,), (2,)
    else:
        white, black = (params.t - 1,), tuple(range(2 * params.t - 3, params.m + 1))
    d_w, d_b = white[0] / params.m, black[0] / params.m
    gap = d_b - d_w
    return FilterParams(d_w + gap / 3, d_b - gap / 3,
                        blocks=BlockWeights(params.block_h, params.block_w, white, black))


def _window_counts(cum, i0, i1, j0, j1):
    # cum is the zero-padded 2-d prefix sum; slices are half-open row/col
    # bounds per pixel (arrays).
    return cum[i1, j1] - cum[i0, j1] - cum[i1, j0] + cum[i0, j0]


def adaptive_filter(img: BitImage, p: FilterParams) -> BitImage:
    """Block mode when p carries block weights and img tiles into blocks,
    pixel mode otherwise (see the module docstring).

    In block mode the windowed pass runs only if some block count is not a
    legal weight, and its output is used for those blocks only.
    """
    b = p.blocks
    h, w = img.a.shape
    if b is None or h % b.block_h or w % b.block_w:
        return BitImage(_window_filter(img.a, p))
    bh, bw = b.block_h, b.block_w
    counts = img.a.reshape(h // bh, bh, w // bw, bw).sum(axis=(1, 3))
    colour = np.full(bh * bw + 1, -1, dtype=np.int8)  # count -> 0 white, 1 black, -1 noise
    colour[list(b.white)] = 0
    colour[list(b.black)] = 1
    per_block = colour[counts]
    out = np.repeat(np.repeat(per_block, bh, axis=0), bw, axis=1)
    noise = out < 0
    if noise.any():
        out[noise] = _window_filter(img.a, p)[noise]
    return BitImage(out.astype(np.uint8))


def _window_filter(a: np.ndarray, p: FilterParams) -> np.ndarray:
    """Pixel mode, vectorized over pixels, iterating window sizes from
    initial to max.

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

    win = p.initial_window
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
        white_now = undecided & (ratio < p.white_cutoff)
        black_now = undecided & (ratio > p.black_cutoff)
        out[white_now] = 0
        out[black_now] = 1
        undecided &= ~(white_now | black_now)
        if win >= p.max_window or not undecided.any():
            break
        win += p.growth_step
    # pixels still undecided keep their input value (out started as a copy)
    return out
