"""Built-in 5x7 glyph set: the one source of every glyph the package draws.

The corpus is 36 classes (0-9, A-Z) times 10 font variants of 32x32 glyphs,
generated in memory. Key images are drawn from it and the recognition model
is trained on it. Variants are derived from one hand-drawn base by
thickening, shearing and resampling, so results are reproducible without any
font-rendering dependency or data file.
"""

from __future__ import annotations

import functools

import numpy as np

from .bitimage import BitImage, Rect
from .ocr import normalize_glyph

ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
FONT_IDS = tuple(f"f{i}" for i in range(10))

# 5 columns x 7 rows, '#' = ink. Confusable pairs are deliberately separated:
# 0 carries an inner diagonal, 1 and I differ in their top, B and D have a
# double-thick left stem while 8 is waisted and O is round, Q has a tail,
# N's diagonal is thickened so slanted variants keep it visible.
_GLYPHS = {
    "0": (" ### ", "#   #", "#  ##", "# # #", "##  #", "#   #", " ### "),
    "1": ("  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "),
    "2": (" ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####"),
    "3": (" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "),
    "4": ("   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "),
    "5": ("#####", "#    ", "#### ", "    #", "    #", "#   #", " ### "),
    "6": ("  ## ", " #   ", "#    ", "#### ", "#   #", "#   #", " ### "),
    "7": ("#####", "    #", "   # ", "  #  ", " #   ", " #   ", " #   "),
    "8": (" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "),
    "9": (" ### ", "#   #", "#   #", " ####", "    #", "   # ", " ##  "),
    "A": ("  #  ", " # # ", "#   #", "#   #", "#####", "#   #", "#   #"),
    "B": ("#### ", "##  #", "##  #", "#### ", "##  #", "##  #", "#### "),
    "C": (" ### ", "#   #", "#    ", "#    ", "#    ", "#   #", " ### "),
    "D": ("#### ", "##  #", "##  #", "##  #", "##  #", "##  #", "#### "),
    "E": ("#####", "#    ", "#    ", "#### ", "#    ", "#    ", "#####"),
    "F": ("#####", "#    ", "#    ", "#### ", "#    ", "#    ", "#    "),
    "G": (" ### ", "#   #", "#    ", "# ###", "#   #", "#   #", " ####"),
    "H": ("#   #", "#   #", "#   #", "#####", "#   #", "#   #", "#   #"),
    "I": (" ### ", "  #  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "),
    "J": ("  ###", "   # ", "   # ", "   # ", "   # ", "#  # ", " ##  "),
    "K": ("#   #", "#  # ", "# #  ", "##   ", "# #  ", "#  # ", "#   #"),
    "L": ("#    ", "#    ", "#    ", "#    ", "#    ", "#    ", "#####"),
    "M": ("#   #", "## ##", "# # #", "# # #", "#   #", "#   #", "#   #"),
    "N": ("#   #", "##  #", "##  #", "# # #", "#  ##", "#  ##", "#   #"),
    "O": (" ### ", "#   #", "#   #", "#   #", "#   #", "#   #", " ### "),
    "P": ("#### ", "#   #", "#   #", "#### ", "#    ", "#    ", "#    "),
    "Q": (" ### ", "#   #", "#   #", "#   #", "# # #", "#  # ", " ## #"),
    "R": ("#### ", "#   #", "#   #", "#### ", "# #  ", "#  # ", "#   #"),
    "S": (" ####", "#    ", "#    ", " ### ", "    #", "    #", "#### "),
    "T": ("#####", "  #  ", "  #  ", "  #  ", "  #  ", "  #  ", "  #  "),
    "U": ("#   #", "#   #", "#   #", "#   #", "#   #", "#   #", " ### "),
    "V": ("#   #", "#   #", "#   #", "#   #", "#   #", " # # ", "  #  "),
    "W": ("#   #", "#   #", "#   #", "# # #", "# # #", "## ##", "#   #"),
    "X": ("#   #", "#   #", " # # ", "  #  ", " # # ", "#   #", "#   #"),
    "Y": ("#   #", "#   #", " # # ", "  #  ", "  #  ", "  #  ", "  #  "),
    "Z": ("#####", "    #", "   # ", "  #  ", " #   ", "#    ", "#####"),
}


def base_glyph(label: str) -> np.ndarray:
    rows = _GLYPHS.get(label)
    if rows is None:
        raise ValueError(f"no glyph for {label!r}: the alphabet is 0-9, A-Z")
    return np.array([[1 if ch == "#" else 0 for ch in row] for row in rows], dtype=np.uint8)


def _upscale(a, factor):
    return np.kron(a, np.ones((factor, factor), dtype=np.uint8))


def _dilate(a, dr, dc):
    out = a.copy()
    if dr:
        out[dr:, :] |= a[:-dr, :]
    if dc:
        out[:, dc:] |= a[:, :-dc]
    return out


def _shear(a, direction, maxshift=2):
    # slant: shift rows horizontally by up to maxshift px, then thicken by
    # one column so staircased diagonals stay connected
    h, w = a.shape
    out = np.zeros((h, w + maxshift + 1), dtype=np.uint8)
    for r in range(h):
        s = (r * maxshift) // (h - 1)
        if direction < 0:
            s = maxshift - s
        out[r, s : s + w] = a[r]
    return _dilate(out, 0, 1)


@functools.cache  # BitImage is immutable; at most 360 glyphs
def render_variant(label: str, font_id: str) -> BitImage:
    """One 32x32 corpus bitmap: base glyph -> variant transform -> its ink
    box stretched to the classification grid by `ocr.normalize_glyph`, the
    step that also reads every glyph of a stacked key image. Each is drawn
    once per process."""
    if font_id not in FONT_IDS:
        raise ValueError(f"unknown font id {font_id!r}")
    base = base_glyph(label)
    i = FONT_IDS.index(font_id)
    if i == 0:
        a = _upscale(base, 3)
    elif i == 1:
        a = _shear(_upscale(base, 4), +1, maxshift=1)  # near-upright slant
    elif i == 2:
        a = _dilate(_upscale(base, 3), 1, 1)
    elif i == 3:
        a = _dilate(_upscale(base, 4), 1, 1)
    elif i == 4:
        a = _shear(_upscale(base, 3), +1)
    elif i == 5:
        a = _shear(_upscale(base, 3), -1)
    elif i == 6:
        a = _dilate(_upscale(base, 3), 0, 1)  # horizontally bold
    elif i == 7:
        a = _dilate(_upscale(base, 3), 1, 0)  # vertically bold
    elif i == 8:
        a = _upscale(base, 5)[:, ::2]  # condensed
    else:
        a = _dilate(_upscale(base, 5), 2, 2)  # heavy
    rows = np.flatnonzero(a.any(axis=1))
    cols = np.flatnonzero(a.any(axis=0))
    box = Rect(int(rows[0]), int(rows[-1]), int(cols[0]), int(cols[-1]))
    return BitImage(normalize_glyph(BitImage(a), box))


def corpus() -> tuple:
    """All 360 glyphs as (source_id, BitImage) pairs, source ids of the form
    <LABEL>_<FONTID> (e.g. "A_f0"), in ALPHABET x FONT_IDS order."""
    return tuple((f"{label}_{font_id}", render_variant(label, font_id))
                 for label in ALPHABET for font_id in FONT_IDS)
