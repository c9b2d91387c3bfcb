import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits, random_image
from viskey import denoise, vcs
from viskey.bitimage import BitImage, DimensionError, downsample_majority, write_pbm
from viskey.denoise import adaptive_filter, cutoffs, decide_blocks

TWO_OF_TWO_CUTOFFS = cutoffs(vcs.scheme_params(2))


def reference_window_filter(a, white_cutoff, black_cutoff):
    """The windowed filter pixel by pixel, with explicit window sums: the
    window grows from INITIAL_WINDOW by GROWTH_STEP up to MAX_WINDOW, clipped
    to the image, until its black ratio is strictly below the white cutoff
    or strictly above the black one; an undecided pixel keeps its value."""
    h, w = a.shape
    out = a.copy()
    for i in range(h):
        for j in range(w):
            for win in range(denoise.INITIAL_WINDOW, denoise.MAX_WINDOW + 1,
                             denoise.GROWTH_STEP):
                r = win // 2
                window = a[max(i - r, 0) : i + r + 1, max(j - r, 0) : j + r + 1]
                ratio = int(window.sum()) / window.size
                if ratio < white_cutoff:
                    out[i, j] = 0
                    break
                if ratio > black_cutoff:
                    out[i, j] = 1
                    break
    return out


class TestDefaultParams:
    """The scheme's stacked weights and the cutoffs that follow from them."""

    def test_two_of_two_cutoffs(self):
        assert cutoffs(vcs.scheme_params(2)) == pytest.approx((2 / 3, 5 / 6))
        assert (denoise.INITIAL_WINDOW, denoise.MAX_WINDOW, denoise.GROWTH_STEP) == (3, 11, 2)

    def test_t3_cutoffs(self):
        assert cutoffs(vcs.scheme_params(9)) == pytest.approx((0.3889, 0.4444), abs=1e-4)

    def test_block_weights(self):
        def weights(n):
            p = vcs.scheme_params(n)
            return p.block_h, p.block_w, p.white, p.black

        assert weights(2) == (1, 2, (1,), (2,))
        assert weights(9) == (2, 3, (2,), (3, 4, 5, 6))
        assert weights(12) == (3, 4, (3,), (5, 6, 7, 8, 9, 10, 11, 12))

    @pytest.mark.parametrize("n", [2, 9, 12, 15])
    def test_ordering(self, n):
        lo, hi = cutoffs(vcs.scheme_params(n))
        assert lo < hi


class TestAdaptiveFilter:
    def test_all_black_stays_black(self):
        p = vcs.scheme_params(2)
        img = BitImage(np.ones((20, 20), dtype=np.uint8))
        assert adaptive_filter(img, p) == img

    def test_half_density_tiling_goes_white(self):
        # large region tiled with [initial 1, 0] blocks: every 3x3 window has
        # ratio in [4/9, 5/9], strictly below the 2/3 white cutoff
        p = vcs.scheme_params(2)
        tile = np.tile([1, 0], (20, 10)).astype(np.uint8)
        out = adaptive_filter(BitImage(tile), p)
        assert out.a[5:15, 5:15].sum() == 0
        assert denoise._window_filter(tile, *cutoffs(p))[5:15, 5:15].sum() == 0

    def test_single_white_speck_restored(self):
        a = np.ones((9, 9), dtype=np.uint8)
        a[4, 4] = 0
        assert denoise._window_filter(a, *TWO_OF_TWO_CUTOFFS)[4, 4] == 1

    def test_single_black_speck_removed(self):
        a = np.zeros((9, 9), dtype=np.uint8)
        a[4, 4] = 1
        assert denoise._window_filter(a, *TWO_OF_TWO_CUTOFFS)[4, 4] == 0

    def test_exact_cutoff_is_indecisive(self):
        # a 3x3 image: every window from 3x3 up clips to the whole image, so
        # the center ratio stays pinned between the cutoffs and the
        # undecided pixel must keep its input value
        img = bits("110\n011\n100")  # 5 of 9 black
        out = denoise._window_filter(img.a, 4 / 9, 2 / 3)
        # center window ratio 5/9: between 4/9 and 6/9 exclusive -> unchanged
        assert out[1, 1] == img.a[1, 1]

    def test_strict_comparison_at_cutoff(self):
        # ratio exactly equal to the white cutoff must NOT decide white
        img = bits("110\n011\n100")  # every window ratio 5/9 at center
        out = denoise._window_filter(img.a, 5 / 9, 8 / 9)
        assert out[1, 1] == 1  # stays black because 5/9 is not < 5/9

    def test_border_clipping(self):
        # corner pixel of an all-black image sees a 2x2 clipped window: ratio 1
        a = np.ones((3, 3), dtype=np.uint8)
        assert denoise._window_filter(a, *TWO_OF_TWO_CUTOFFS)[0, 0] == 1

    def test_interior_stability(self):
        # a pixel whose largest-window neighborhood is uniform keeps its color
        a = np.zeros((30, 30), dtype=np.uint8)
        a[:, 15:] = 1
        out = denoise._window_filter(a, *TWO_OF_TWO_CUTOFFS)
        assert out[15, 0:9].sum() == 0
        assert out[15, 21:30].sum() == 9

    def test_window_growth_used(self):
        # 3x3 ratio indecisive, 5x5 decisive white: checkerboard patch inside
        # a white field under tight cutoffs
        a = np.zeros((11, 11), dtype=np.uint8)
        a[4:7, 4:7] = [[1, 0, 1], [0, 1, 0], [1, 0, 1]]
        out = denoise._window_filter(a, 0.4, 0.7)
        # center: 3x3 ratio 5/9 between cutoffs; 5x5 ratio 5/25 < 0.4 -> white
        assert out[5, 5] == 0

    def test_monotone_sanity(self):
        # raising both cutoffs by the same amount never turns a white output
        # pixel black
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = random_image(rng, 16, 16).a
            out_lo = denoise._window_filter(a, 0.4, 0.6)
            out_hi = denoise._window_filter(a, 0.5, 0.7)
            assert not np.any((out_lo == 0) & (out_hi == 1))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_any_coordinates_match_all_pixels(self, data):
        h, w = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 24))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        a = random_image(rng, w, h, density=data.draw(st.floats(0, 1))).a
        lo = data.draw(st.floats(0, 1))
        hi = data.draw(st.floats(lo, 1))
        full = denoise._window_filter(a, lo, hi)
        k = data.draw(st.integers(0, 12))
        rows = np.array(data.draw(st.lists(st.integers(0, h - 1), min_size=k, max_size=k)),
                        dtype=np.intp)
        cols = np.array(data.draw(st.lists(st.integers(0, w - 1), min_size=k, max_size=k)),
                        dtype=np.intp)
        if data.draw(st.booleans()):  # an outer grid instead of k pairs
            rows, cols = rows[:, None], cols[None, :]
        got = denoise._window_filter(a, lo, hi, rows, cols)
        assert np.array_equal(got, full[rows, cols])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        h, w = data.draw(st.integers(1, 16)), data.draw(st.integers(1, 16))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        a = random_image(rng, w, h, density=data.draw(st.floats(0, 1))).a
        # a cutoff k/q with q a window area lets a ratio land exactly on it
        cutoff = st.floats(0, 1) | st.sampled_from([4, 6, 9, 15, 25, 49]).flatmap(
            lambda q: st.integers(0, q).map(lambda k: k / q))
        lo, hi = sorted((data.draw(cutoff), data.draw(cutoff)))
        got = denoise._window_filter(a, lo, hi)
        assert got.dtype == a.dtype
        assert np.array_equal(got, reference_window_filter(a, lo, hi))

    def test_pure_function(self):
        rng = np.random.default_rng(29)
        img = random_image(rng, 20, 20)
        p = vcs.scheme_params(2)
        assert adaptive_filter(img, p) == adaptive_filter(img, p)
        assert decide_blocks(img, p) == decide_blocks(img, p)


class TestBlockMode:
    @pytest.mark.parametrize("n", [2, 9, 12])
    def test_clean_stack_recovers_secret(self, n):
        p = vcs.scheme_params(n)
        rng = np.random.default_rng(31 + n)
        for trial in range(20):
            secret = random_image(rng, 12, 10)
            shares = vcs.encode(secret, p, 700 + trial)
            for k in sorted({2, min(3, n), n}):
                picked = rng.choice(n, size=k, replace=False)
                stacked = vcs.reconstruct([shares[i] for i in picked])
                assert decide_blocks(stacked, p) == secret, k
                filtered = adaptive_filter(stacked, p)
                assert downsample_majority(filtered, p.block_h, p.block_w) == secret, k

    def test_clean_stack_runs_no_window_pass(self, monkeypatch):
        def no_window(*args):
            raise AssertionError("window pass ran")

        monkeypatch.setattr(denoise, "_window_filter", no_window)
        p = vcs.scheme_params(9)
        secret = random_image(np.random.default_rng(37), 16, 8)
        shares = vcs.encode(secret, p, 41)
        for k in (2, 3, 9):
            assert decide_blocks(vcs.reconstruct(shares[:k]), p) == secret, k

    def test_noise_block_takes_windowed_output_only(self, monkeypatch):
        # every 1x2 block holds one black subpixel (white under 2-of-2)
        # except two planted noise blocks with none; the stand-in windowed
        # filter calls every subpixel black but splits the second noise block
        # 1:1, a tie that goes black
        p = vcs.scheme_params(2)
        a = np.tile([1, 0], (6, 5)).astype(np.uint8)
        a[3, 4:6] = 0
        a[5, 0:2] = 0
        calls = []

        def windowed(arr, lo, hi, rows, cols):
            rows, cols = np.broadcast_arrays(rows, cols)
            calls.append((lo, hi, sorted(zip(rows.ravel().tolist(), cols.ravel().tolist()))))
            return ((rows != 5) | (cols != 0)).astype(np.uint8)

        monkeypatch.setattr(denoise, "_window_filter", windowed)
        expected = np.zeros((6, 5), dtype=np.uint8)
        expected[3, 2] = expected[5, 0] = 1
        assert np.array_equal(decide_blocks(BitImage(a), p).a, expected)
        # asked once, for the planted blocks' subpixels only
        assert calls == [(*cutoffs(p), [(3, 4), (3, 5), (5, 0), (5, 1)])]
        assert np.array_equal(adaptive_filter(BitImage(a), p).a, np.repeat(expected, 2, axis=1))

    @pytest.mark.parametrize("n", [2] + list(range(9, vcs.MAX_SHARES + 1, 3)))
    def test_noise_blocks_match_full_image_filter(self, n):
        # the windowed filter run over the whole image, then a majority per
        # block, as the decode did before it evaluated noise blocks only
        p = vcs.scheme_params(n)
        bh, bw = p.block_h, p.block_w
        rng = np.random.default_rng([n, 47])
        for trial in range(3):
            secret = random_image(rng, 6, 4)
            a = vcs.reconstruct(list(vcs.encode(secret, p, 950 + trial)[:2])).a.copy()
            a ^= (rng.random(a.shape) < 0.02).astype(np.uint8)
            a[:bh, :bw] = 0  # no legal weight is 0: one sure noise block
            h, w = a.shape
            counts = a.reshape(h // bh, bh, w // bw, bw).sum(axis=(1, 3))
            noise = ~np.isin(counts, p.white + p.black)
            assert noise.any()
            full = downsample_majority(BitImage(denoise._window_filter(a, *cutoffs(p))), bh, bw)
            assert np.array_equal(decide_blocks(BitImage(a), p).a[noise], full.a[noise])

    @pytest.mark.parametrize("n,h,w", [(2, 9, 9), (2, 3, 3), (9, 8, 10), (9, 7, 9)])
    def test_untiled_image_raises(self, n, h, w):
        p = vcs.scheme_params(n)
        img = random_image(np.random.default_rng(43), w, h)
        with pytest.raises(DimensionError):
            decide_blocks(img, p)
        with pytest.raises(DimensionError):
            adaptive_filter(img, p)


def _damaged_stacks(n, flip, torn):
    """Seeded two-share stacks with subpixel flips at rate `flip` and, if
    `torn`, a rectangle set to white; every case holds noise blocks."""
    p = vcs.scheme_params(n)
    rng = np.random.default_rng([n, int(flip * 1000), torn])
    for trial in range(4):
        secret = random_image(rng, 24, 16)
        shares = vcs.encode(secret, p, 900 + trial)
        i, j = rng.choice(n, size=2, replace=False)
        a = vcs.reconstruct([shares[i], shares[j]]).a.copy()
        a ^= (rng.random(a.shape) < flip).astype(np.uint8)
        if torn:
            r, c = rng.integers(0, a.shape[0] // 2), rng.integers(0, a.shape[1] // 2)
            a[r : r + a.shape[0] // 3, c : c + a.shape[1] // 4] = 0
        yield p, BitImage(a)


class TestDamagedStackDecode:
    # SHA-256 over the P4 bytes of each case's four decoded stacks
    DIGESTS = {
        (2, 0.005, False): "c3010bdeab328092f8871a262b981ca96ceae16447ece538029c00ad6e0a581f",
        (2, 0.02, False): "f63f8b9a920c6e9a0d342229271416cae50621361fd0343a9df493ae7cd0213d",
        (9, 0.005, False): "8d1be7a2dae9d68b2848730f6539b7067d8be67aeca6fe2383fa65d728c450b2",
        (9, 0.02, False): "0511f082cb0d945abe89291b211eb662f91cdb84c3b9207e78e56da93e5e0739",
        (21, 0.005, False): "6b8fe2e760d7153b29d52495f985114c2f92a9fe8817d59740bdf5a85ba00aa1",
        (21, 0.02, False): "404957cae157d0c8757f3c78bfbca1575ae0f06f1b9a096e41a5ad921b0625bb",
        (9, 0.02, True): "909419e9c0a86dfdfe8ac03f38c08e1e99b08dc6fdd4b8f336c9d8c2100b6be1",
    }

    @pytest.mark.parametrize("case", list(DIGESTS),
                             ids=lambda c: f"n{c[0]}-{c[1]:.1%}" + ("-torn" if c[2] else ""))
    def test_decode_digest_pinned(self, case):
        via_filter, direct = hashlib.sha256(), hashlib.sha256()
        for p, img in _damaged_stacks(*case):
            filtered = adaptive_filter(img, p)
            via_filter.update(write_pbm(downsample_majority(filtered, p.block_h, p.block_w), "P4"))
            direct.update(write_pbm(decide_blocks(img, p), "P4"))
        assert via_filter.hexdigest() == direct.hexdigest() == self.DIGESTS[case]
