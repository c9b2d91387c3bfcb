"""Glyph isolation and the 48-dimensional density/centroid feature extractor.

A denoised single-line key image is cut into per-character bounding boxes by
projection profiles, each box is stretched to a 32x32 bitmap, and every 8x8
zone contributes (density, x-centroid, y-centroid), all scaled into [0, 1].
"""

from __future__ import annotations

import numpy as np

from .bitimage import BitImage, DimensionError, Rect

GLYPH_SIZE = 32
ZONE = 8  # 4x4 grid of 8x8 zones
FEATURE_LEN = 48
MIN_GLYPH_WIDTH = 2  # narrower column runs are specks, not characters


def segment(img: BitImage):
    """Left-to-right character boxes of a one-line image.

    Maximal runs of columns that hold ink, in any row, become glyphs, each
    tightened to its own row extent. Runs narrower than MIN_GLYPH_WIDTH
    columns are discarded.
    """
    # a run starts and ends where the padded filled-column mask changes
    edges = np.flatnonzero(np.diff(np.pad(img.a.any(axis=0), 1)))
    boxes = []
    for start, stop in edges.reshape(-1, 2).tolist():
        if stop - start >= MIN_GLYPH_WIDTH:
            rows = np.flatnonzero(img.a[:, start:stop].any(axis=1))
            boxes.append(Rect(int(rows[0]), int(rows[-1]), start, stop - 1))
    return boxes


def normalize_glyphs(img: BitImage, boxes) -> np.ndarray:
    """Crop every box and stretch it to the 32x32 classification grid.

    One gather for all boxes: output row i of a box reads its row
    top + (i * height) // 32, and columns likewise (nearest neighbor, aspect
    not kept); returns a (len(boxes), 32, 32) array. `font.render_variant`
    draws every corpus glyph through this step too, so a glyph read from a
    clean stack equals its corpus glyph.
    """
    b = np.array([(r.top, r.bottom, r.left, r.right) for r in boxes], dtype=np.intp).reshape(-1, 4)
    if b.size and (b[:, 1].max() >= img.height or b[:, 3].max() >= img.width):
        raise DimensionError(f"a box exceeds the {img.width}x{img.height} image")
    steps = np.arange(GLYPH_SIZE)
    rows = b[:, :1] + (steps * (b[:, 1:2] - b[:, :1] + 1)) // GLYPH_SIZE
    cols = b[:, 2:3] + (steps * (b[:, 3:4] - b[:, 2:3] + 1)) // GLYPH_SIZE
    return img.a[rows[:, :, None], cols[:, None, :]]


def normalize_glyph(img: BitImage, box: Rect) -> np.ndarray:
    """The 32x32 bitmap of one box; see `normalize_glyphs`."""
    return normalize_glyphs(img, [box])[0]


def geometric_moment(block, p: int, q: int):
    """m_pq = sum_x sum_y x^p y^q f(x, y) over the last two axes, with
    x = column, y = row; one moment per leading index."""
    block = np.asarray(block)
    h, w = block.shape[-2:]
    weights = np.outer(np.arange(h) ** q, np.arange(w) ** p)
    return (block * weights).sum(axis=(-2, -1))


def extract_features(glyphs) -> np.ndarray:
    """48 features per (..., 32, 32) bitmap: (density, x_c, y_c) per 8x8
    zone, zones row-major; returns (..., 48).

    Centroids are m10/m00 and m01/m00 divided by 7 (the largest local
    coordinate), so every component lives in [0, 1]; an empty zone reports
    centroid (0.5, 0.5).
    """
    a = np.asarray(glyphs)
    if a.shape[-2:] != (GLYPH_SIZE, GLYPH_SIZE):
        raise ValueError(f"glyph bitmaps must be {GLYPH_SIZE}x{GLYPH_SIZE}, got {a.shape}")
    lead = a.shape[:-2]
    grid = GLYPH_SIZE // ZONE
    zones = a.reshape(lead + (grid, ZONE, grid, ZONE)).swapaxes(-3, -2)
    m00 = geometric_moment(zones, 0, 0)
    empty = m00 == 0
    safe = np.where(empty, 1, m00)
    # (m / m00) / 7 in that order: the same float as the zone mean over 7
    xc = np.where(empty, 0.5, (geometric_moment(zones, 1, 0) / safe) / (ZONE - 1))
    yc = np.where(empty, 0.5, (geometric_moment(zones, 0, 1) / safe) / (ZONE - 1))
    feats = np.stack([m00 / (ZONE * ZONE), xc, yc], axis=-1)
    return feats.reshape(lead + (FEATURE_LEN,))
