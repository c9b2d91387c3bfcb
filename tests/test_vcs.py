import hashlib
import itertools

import numpy as np
import pytest

from conftest import blank, random_image
from viskey import vcs

# Frozen fixture: s1 of the t=3 scheme in surviving-column order,
# rows v1..v9 over blocks B1..B6.
T3_S1 = np.array(
    [
        [1, 1, 0, 0, 0, 0],  # v1
        [0, 0, 1, 1, 0, 0],  # v2
        [0, 0, 0, 0, 1, 1],  # v3
        [0, 0, 1, 0, 1, 0],  # v4
        [1, 0, 0, 0, 0, 1],  # v5
        [0, 1, 0, 1, 0, 0],  # v6
        [0, 0, 0, 1, 0, 1],  # v7
        [0, 1, 0, 0, 1, 0],  # v8
        [1, 0, 1, 0, 0, 0],  # v9
    ],
    dtype=np.uint8,
)


class TestSchemeParams:
    def test_two_of_two(self):
        p = vcs.scheme_params(2)
        assert (p.variant, p.t, p.n, p.m, p.block_h, p.block_w) == ("2of2", 0, 2, 2, 1, 2)

    def test_n9(self):
        p = vcs.scheme_params(9)
        assert (p.variant, p.t, p.m, p.block_h, p.block_w) == ("2ofn", 3, 6, 2, 3)

    def test_n12(self):
        p = vcs.scheme_params(12)
        assert (p.t, p.m, p.block_h, p.block_w) == (4, 12, 3, 4)

    def test_expansion_law(self):
        for n in (9, 12, 15, 21):
            p = vcs.scheme_params(n)
            assert p.m == n * (n - 3) // 9 == p.t * (p.t - 1)
            assert p.block_h * p.block_w == p.m
            assert p.block_h <= p.block_w

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 6, 7, 8, 10, 11, 36, 42])
    def test_inadmissible(self, n):
        with pytest.raises(ValueError) as e:
            vcs.scheme_params(n)
        assert "9" in str(e.value)


def brute_force_min_idempotent_order3():
    """Independent oracle: lexicographically smallest order-3 Latin square
    with natural diagonal, by exhaustive search over all cell assignments."""
    best = None
    for cells in itertools.product(range(1, 4), repeat=9):
        rows = [cells[0:3], cells[3:6], cells[6:9]]
        if any(rows[i][i] != i + 1 for i in range(3)):
            continue
        if any(len(set(r)) != 3 for r in rows):
            continue
        if any(len({rows[i][j] for i in range(3)}) != 3 for j in range(3)):
            continue
        if best is None or cells < best:
            best = cells
    return tuple(tuple(best[3 * i : 3 * i + 3]) for i in range(3))


# every order the supported share counts use: t = 3 .. MAX_SHARES / 3
ORDERS = range(3, vcs.MAX_SHARES // 3 + 1)


def is_idempotent_latin_square(square):
    """Every row and every column holds 1..t once, and cell (i, i) holds i + 1."""
    t = len(square)
    full = set(range(1, t + 1))
    rows_ok = all(set(row) == full for row in square.tolist())
    cols_ok = all(set(col) == full for col in square.T.tolist())
    diag_ok = all(square[i, i] == i + 1 for i in range(t))
    return rows_ok and cols_ok and diag_ok


class TestIdempotentLatinSquare:
    def test_t3_fixture(self):
        ls = vcs.idempotent_latin_square(3)
        assert ls.tolist() == [[1, 3, 2], [3, 2, 1], [2, 1, 3]]

    def test_t3_matches_exhaustive_oracle(self):
        ls = vcs.idempotent_latin_square(3)
        assert tuple(map(tuple, ls.tolist())) == brute_force_min_idempotent_order3()

    @pytest.mark.parametrize("t", ORDERS)
    def test_invariants(self, t):
        ls = vcs.idempotent_latin_square(t)
        assert ls.shape == (t, t)
        assert is_idempotent_latin_square(ls)
        assert tuple(ls.diagonal()) == tuple(range(1, t + 1))

    def test_deterministic(self):
        assert np.array_equal(vcs.idempotent_latin_square(5), vcs.idempotent_latin_square(5))

    def test_too_small(self):
        with pytest.raises(ValueError):
            vcs.idempotent_latin_square(2)


class TestBasisMatrices:
    def test_t3_fixture(self):
        b = vcs.basis_matrices(3)
        assert np.array_equal(b.s1, T3_S1)

    def test_t3_s0(self):
        b = vcs.basis_matrices(3)
        assert np.array_equal(b.s0, np.tile([1, 1, 0, 0, 0, 0], (9, 1)))

    @pytest.mark.parametrize("t", ORDERS)
    def test_row_weights(self, t):
        b = vcs.basis_matrices(t)
        n, m = 3 * t, t * (t - 1)
        assert b.s1.shape == (n, m) and b.s0.shape == (n, m)
        assert np.all(b.s1.sum(axis=1) == t - 1)
        assert np.all(b.s0.sum(axis=1) == t - 1)

    @pytest.mark.parametrize("t", ORDERS)
    def test_pairwise_or_weights(self, t):
        b = vcs.basis_matrices(t)
        for i, j in itertools.combinations(range(3 * t), 2):
            w1 = int((b.s1[i] | b.s1[j]).sum())
            assert w1 in (2 * t - 3, 2 * (t - 1))
            assert int((b.s0[i] | b.s0[j]).sum()) == t - 1

    @pytest.mark.parametrize("t", ORDERS)
    def test_block_design_cooccurrence(self, t):
        # treatments from different thirds co-occur in exactly one block or
        # not at all; treatments within the same third never co-occur
        b = vcs.basis_matrices(t)
        cross_pairs = 0
        for i, j in itertools.combinations(range(3 * t), 2):
            together = int((b.s1[i] & b.s1[j]).sum())
            if i // t == j // t:
                assert together == 0
            else:
                assert together in (0, 1)
                cross_pairs += together
        # every block holds one treatment per third: 3 pairs per block
        assert cross_pairs == 3 * t * (t - 1)

    def test_two_of_two_basis(self):
        b = vcs.scheme_basis(vcs.scheme_params(2))
        assert np.array_equal(b.s0, [[1, 0], [1, 0]])
        assert np.array_equal(b.s1, [[1, 0], [0, 1]])


class TestEncode:
    def test_share_dimensions(self):
        rng = np.random.default_rng(0)
        secret = random_image(rng, 5, 4)
        for n in (2, 9):
            p = vcs.scheme_params(n)
            shares = vcs.encode(secret, p, 1)
            assert len(shares) == n
            for sh in shares:
                assert (sh.height, sh.width) == (4 * p.block_h, 5 * p.block_w)

    def test_two_of_two_white_identical_black_complementary(self):
        from conftest import bits

        p = vcs.scheme_params(2)
        a, b = (sh.a for sh in vcs.encode(bits("01"), p, 5))
        # white pixel: identical blocks with one black subpixel
        assert np.array_equal(a[0, :2], b[0, :2]) and a[0, :2].sum() == 1
        # black pixel: complementary blocks
        assert np.array_equal(a[0, 2:] ^ b[0, 2:], [1, 1])

    def test_constant_block_counts(self):
        rng = np.random.default_rng(1)
        secret = random_image(rng, 8, 8)
        for n, expect in ((2, 1), (9, 2)):
            p = vcs.scheme_params(n)
            for sh in vcs.encode(secret, p, 2):
                sums = sh.a.reshape(8, p.block_h, 8, p.block_w).sum(axis=(1, 3))
                assert np.all(sums == expect)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        secret = random_image(rng, 6, 6)
        p = vcs.scheme_params(9)
        assert vcs.encode(secret, p, 42) == vcs.encode(secret, p, 42)
        assert vcs.encode(secret, p, 42) != vcs.encode(secret, p, 43)

    # SHA-256 over every share's raster, in share order, for one fixed secret
    # and seed. For n >= 12 the digest also pins the Latin square of order
    # n / 3: another valid square gives other shares.
    PINNED_DIGESTS = {
        2: "90dbe17a558665f35a594729971b9b20bbb9af7320c35638967fafd0e758018c",
        9: "96651b45cd6324abaef0d01515cb690e4d02b2eb2a8b5ef33090c145b7d59feb",
        21: "f46efeb97002bf35908e79ab88c60c74579abb5a9e02550eed7763a4b41e393f",
    }

    @pytest.mark.parametrize("n", sorted(PINNED_DIGESTS))
    def test_output_pinned(self, n):
        secret = random_image(np.random.default_rng(20), 17, 11)
        p = vcs.scheme_params(n)
        shares = vcs.encode(secret, p, 424242)
        digest = hashlib.sha256()
        for sh in shares:
            assert (sh.height, sh.width) == (11 * p.block_h, 17 * p.block_w)
            assert sh.a.flags.c_contiguous
            digest.update(sh.a.tobytes())
        assert digest.hexdigest() == self.PINNED_DIGESTS[n]


class TestReconstruct:
    def test_needs_two(self):
        from conftest import bits

        with pytest.raises(ValueError):
            vcs.reconstruct([bits("10")])

    def test_fig4_stacking(self):
        from conftest import bits

        p = vcs.scheme_params(2)
        merged = vcs.reconstruct(vcs.encode(bits("01"), p, 9))
        assert merged.a[0, 2:].sum() == 2  # black pixel fully black
        assert merged.a[0, :2].sum() == 1  # white pixel half black

    @pytest.mark.parametrize("n", [3 * t for t in ORDERS])
    def test_stacked_weights_all_pairs(self, n):
        from conftest import bits

        p = vcs.scheme_params(n)
        shares = vcs.encode(bits("01"), p, 11)
        for i, j in itertools.combinations(range(n), 2):
            merged = vcs.reconstruct([shares[i], shares[j]])
            white = int(merged.a[:, : p.block_w].sum())
            black = int(merged.a[:, p.block_w :].sum())
            assert white == p.t - 1
            assert black in (2 * p.t - 3, 2 * p.t - 2)


class TestSidecar:
    def test_roundtrip(self):
        p = vcs.scheme_params(9)
        line = vcs.share_sidecar(p, (30 * 2, 40 * 3), 4, "grp-7")
        params, sw, sh, idx, gid = vcs.parse_sidecar(line)
        assert params == p and (sw, sh, idx, gid) == (40, 30, 4, "grp-7")

    def test_field_count(self):
        with pytest.raises(ValueError):
            vcs.parse_sidecar("2of2 0 2 2 1 2 8 8 1")
        for fields in ("2of2 0 2 2 1", "2of2 0 2 2 1 2 8"):
            with pytest.raises(ValueError, match="scheme must have 6 fields"):
                vcs.parse_scheme(fields.split())

    def test_inconsistent_params(self):
        with pytest.raises(ValueError):
            vcs.parse_sidecar("2ofn 3 9 8 2 4 8 8 1 g")
