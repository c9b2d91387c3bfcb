"""2-of-2 and Latin-square (2,n) visual threshold schemes.

The (2,n) construction (n = 3t, t >= 3) builds basis matrices from an
idempotent Latin square L of order t, given in closed form. Its blocks are
the triples (a, b, L(a, b)) for a != b, read as blocks of a design on 3t
treatments (three thirds of t); the treatment/block incidence matrix is the
black-pixel basis. Pixel expansion is m = t(t-1) = n(n-3)/9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitimage import BitImage, or_merge

TWO_OF_TWO = "2of2"
TWO_OF_N = "2ofn"


@dataclass(frozen=True)
class SchemeParams:
    variant: str
    t: int  # Latin-square order, 0 for 2of2
    n: int  # number of shares
    m: int  # pixel expansion (subpixels per secret pixel)
    block_h: int
    block_w: int

    @property
    def white(self) -> tuple:
        """Black-subpixel counts of a white block in a stack of two or more
        shares: t-1 (2-of-2: 1), as all rows of the white basis are equal."""
        return (1,) if self.variant == TWO_OF_TWO else (self.t - 1,)

    @property
    def black(self) -> tuple:
        """Those of a black block: 2t-3 (two shares) up to m (2-of-2: 2)."""
        return (2,) if self.variant == TWO_OF_TWO else tuple(range(2 * self.t - 3, self.m + 1))


@dataclass(frozen=True)
class BasisMatrices:
    s0: np.ndarray  # n x m, white pixel
    s1: np.ndarray  # n x m, black pixel


def _block_geometry(m):
    # largest divisor of m not exceeding floor(sqrt(m))
    best = 1
    d = 1
    while d * d <= m:
        if m % d == 0:
            best = d
        d += 1
    return best, m // best


# Memory sets the cap: at n = 33 with a 16-character key, `cas.create_group`
# peaks at 142 MB RSS, as `encode` gathers every share at one byte per
# subpixel; the group then holds its shares packed as P4, 9.0 MB in all.
MAX_SHARES = 33


def scheme_params(n: int) -> SchemeParams:
    """Parameters for the supported share counts: n = 2 or n = 3t,
    3 <= t <= MAX_SHARES / 3."""
    if n == 2:
        return SchemeParams(TWO_OF_TWO, 0, 2, 2, 1, 2)
    if 9 <= n <= MAX_SHARES and n % 3 == 0:
        t = n // 3
        m = t * (t - 1)
        bh, bw = _block_geometry(m)
        return SchemeParams(TWO_OF_N, t, n, m, bh, bw)
    raise ValueError(
        f"unsupported share count {n}: admissible counts are 2 or a multiple "
        f"of 3 from 9 to {MAX_SHARES} (9, 12, 15, ...)"
    )


def idempotent_latin_square(t: int) -> np.ndarray:
    """A t x t Latin square with entries 1..t and diagonal 1..t, in closed form.

    Odd t (0-based): L(i, j) = (i + j)(t + 1)/2 mod t. Even t: take the
    square of odd order q = t - 1, whose cells (i, i + 1 mod q) hold q
    distinct values; move each to row q (same column) and to column q (same
    row), and put the new symbol q in the cells they left and at (q, q).
    """
    if t < 3:
        raise ValueError(f"order must be >= 3, got {t}")
    q = t - 1 if t % 2 == 0 else t
    i = np.arange(q)
    square = np.full((t, t), q)
    square[:q, :q] = (i[:, None] + i) * ((q + 1) // 2) % q
    if q < t:
        j = (i + 1) % q
        square[q, j] = square[i, q] = square[i, j]
        square[i, j] = q
    return square + 1


def basis_matrices(t: int) -> BasisMatrices:
    """Basis matrices of the (2, 3t) scheme. Column j of s1 is the block
    (a, b, L(a, b)), a != b in row-major order: black in rows a, t + b and
    2t + L(a, b) - 1 (0-based)."""
    square = idempotent_latin_square(t)
    a, b = np.nonzero(~np.eye(t, dtype=bool))
    n, m = 3 * t, t * (t - 1)
    s1 = np.zeros((n, m), dtype=np.uint8)
    s1[np.stack([a, t + b, 2 * t + square[a, b] - 1]), np.arange(m)] = 1
    s0 = np.zeros((n, m), dtype=np.uint8)
    s0[:, : t - 1] = 1
    return BasisMatrices(s0, s1)


def scheme_basis(params: SchemeParams) -> BasisMatrices:
    if params.variant == TWO_OF_TWO:
        s0 = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        s1 = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        return BasisMatrices(s0, s1)
    return basis_matrices(params.t)


def encode(secret: BitImage, params: SchemeParams, seed: int) -> tuple:
    """Split a secret into n shares at expanded resolution, member 1 first.

    Each secret pixel draws one uniformly random column permutation of the
    appropriate basis matrix; the permuted row i fills share i's subpixel
    block row-major. Randomness comes from numpy's seeded PCG64 generator,
    one permutation per pixel in row-major pixel order.

    All n shares come from one gather: over the n x 2m table [s0 | s1], the
    subpixel at block slot j of a pixel with color c and permutation p reads
    column c*m + p[j], for every share row at once. The column indices are
    put in share-raster order first, so share i is row i of the gathered
    (n, H, W) array and is C-contiguous.
    """
    basis = scheme_basis(params)
    rng = np.random.default_rng(seed)
    h, w = secret.height, secret.width
    m, bh, bw = params.m, params.block_h, params.block_w
    columns = rng.permuted(np.tile(np.arange(m), (h * w, 1)), axis=1)
    columns += secret.a.reshape(-1, 1) * np.intp(m)  # m can exceed uint8
    raster_order = columns.reshape(h, w, bh, bw).transpose(0, 2, 1, 3)
    table = np.concatenate([basis.s0, basis.s1], axis=1)
    rasters = np.take(table, raster_order, axis=1).reshape(params.n, h * bh, w * bw)
    return tuple(BitImage(r) for r in rasters)


def reconstruct(shares) -> BitImage:
    """OR-stack two or more shares; output stays at expanded resolution."""
    shares = list(shares)
    if len(shares) < 2:
        raise ValueError(f"need at least 2 shares, got {len(shares)}")
    return or_merge(shares)


def format_scheme(params: SchemeParams) -> str:
    """The six scheme fields as stored in share sidecars and group records."""
    return (f"{params.variant} {params.t} {params.n} {params.m} "
            f"{params.block_h} {params.block_w}")


def parse_scheme(fields) -> SchemeParams:
    """Read the six fields `format_scheme` writes; they must be exactly
    `scheme_params(n)` for their own n."""
    if len(fields) != 6:
        raise ValueError(f"scheme must have 6 fields, got {len(fields)}")
    params = SchemeParams(fields[0], *(int(v) for v in fields[1:]))
    if params != scheme_params(params.n):
        raise ValueError(f"scheme parameters {params} inconsistent with n={params.n}")
    return params


def share_sidecar(params: SchemeParams, shape, share_index, group_id) -> str:
    """One-line text header accompanying a serialized share of shape (h, w)."""
    secret_w, secret_h = shape[1] // params.block_w, shape[0] // params.block_h
    return f"{format_scheme(params)} {secret_w} {secret_h} {share_index} {group_id}\n"


def parse_sidecar(line: str):
    parts = line.split()
    if len(parts) != 10:
        raise ValueError(f"sidecar must have 10 fields, got {len(parts)}")
    params = parse_scheme(parts[:6])
    sw, sh, idx = (int(p) for p in parts[6:9])
    return params, sw, sh, idx, parts[9]
