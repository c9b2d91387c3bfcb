from dataclasses import replace

import numpy as np
import pytest

from conftest import bits, random_image
from viskey import denoise, vcs
from viskey.bitimage import BitImage, downsample_majority
from viskey.denoise import BlockWeights, FilterParams, adaptive_filter, default_params


class TestFilterParams:
    def test_cutoff_order(self):
        with pytest.raises(ValueError):
            FilterParams(0.8, 0.5)
        with pytest.raises(ValueError):
            FilterParams(0.0, 0.5)

    def test_windows_odd(self):
        with pytest.raises(ValueError):
            FilterParams(0.3, 0.6, initial_window=4)
        with pytest.raises(ValueError):
            FilterParams(0.3, 0.6, max_window=10)

    def test_window_order(self):
        with pytest.raises(ValueError):
            FilterParams(0.3, 0.6, initial_window=11, max_window=9)

    def test_growth_step_even(self):
        with pytest.raises(ValueError):
            FilterParams(0.3, 0.6, growth_step=3)

    def test_block_weights_disjoint_and_in_range(self):
        with pytest.raises(ValueError):
            BlockWeights(1, 2, (1,), (1, 2))
        with pytest.raises(ValueError):
            BlockWeights(1, 2, (1,), (3,))
        with pytest.raises(ValueError):
            BlockWeights(0, 2, (1,), (2,))


class TestDefaultParams:
    def test_two_of_two_cutoffs(self):
        fp = default_params(vcs.scheme_params(2))
        assert fp.white_cutoff == pytest.approx(2 / 3)
        assert fp.black_cutoff == pytest.approx(5 / 6)
        assert (fp.initial_window, fp.max_window, fp.growth_step) == (3, 11, 2)

    def test_t3_cutoffs(self):
        fp = default_params(vcs.scheme_params(9))
        assert fp.white_cutoff == pytest.approx(0.3889, abs=1e-4)
        assert fp.black_cutoff == pytest.approx(0.4444, abs=1e-4)

    def test_block_weights(self):
        assert default_params(vcs.scheme_params(2)).blocks == BlockWeights(1, 2, (1,), (2,))
        assert default_params(vcs.scheme_params(9)).blocks == BlockWeights(2, 3, (2,), (3, 4, 5, 6))
        assert default_params(vcs.scheme_params(12)).blocks == BlockWeights(
            3, 4, (3,), (5, 6, 7, 8, 9, 10, 11, 12))

    @pytest.mark.parametrize("n", [2, 9, 12, 15])
    def test_ordering(self, n):
        fp = default_params(vcs.scheme_params(n))
        assert fp.white_cutoff < fp.black_cutoff


class TestAdaptiveFilter:
    def test_all_black_stays_black(self):
        fp = default_params(vcs.scheme_params(2))
        img = BitImage(np.ones((20, 20), dtype=np.uint8))
        assert adaptive_filter(img, fp) == img

    def test_half_density_tiling_goes_white(self):
        # large region tiled with [initial 1, 0] blocks: every 3x3 window has
        # ratio in [4/9, 5/9], strictly below the 2/3 white cutoff
        fp = default_params(vcs.scheme_params(2))
        tile = np.tile([1, 0], (20, 10)).astype(np.uint8)
        out = adaptive_filter(BitImage(tile), fp)
        assert out.a[5:15, 5:15].sum() == 0

    def test_single_white_speck_restored(self):
        fp = default_params(vcs.scheme_params(2))
        a = np.ones((9, 9), dtype=np.uint8)
        a[4, 4] = 0
        out = adaptive_filter(BitImage(a), fp)
        assert out.a[4, 4] == 1

    def test_single_black_speck_removed(self):
        fp = default_params(vcs.scheme_params(2))
        a = np.zeros((9, 9), dtype=np.uint8)
        a[4, 4] = 1
        out = adaptive_filter(BitImage(a), fp)
        assert out.a[4, 4] == 0

    def test_exact_cutoff_is_indecisive(self):
        # a 3x3 image whose every clipped window ratio stays pinned between
        # the cutoffs: undecided pixels must keep their input value
        fp = FilterParams(4 / 9, 2 / 3, initial_window=3, max_window=3)
        img = bits("110\n011\n100")  # 5 of 9 black; corner windows 2/4 or 3/4
        out = adaptive_filter(img, fp)
        # center window ratio 5/9: between 4/9 and 6/9 exclusive -> unchanged
        assert out.a[1, 1] == img.a[1, 1]

    def test_strict_comparison_at_cutoff(self):
        # ratio exactly equal to the white cutoff must NOT decide white
        fp = FilterParams(5 / 9, 8 / 9, initial_window=3, max_window=3)
        img = bits("110\n011\n100")  # every full window ratio 5/9 at center
        out = adaptive_filter(img, fp)
        assert out.a[1, 1] == 1  # stays black because 5/9 is not < 5/9

    def test_border_clipping(self):
        # corner pixel of an all-black image sees a 2x2 clipped window: ratio 1
        fp = default_params(vcs.scheme_params(2))
        img = BitImage(np.ones((3, 3), dtype=np.uint8))
        assert adaptive_filter(img, fp).a[0, 0] == 1

    def test_interior_stability(self):
        # a pixel whose max_window neighborhood is uniform keeps its color
        fp = default_params(vcs.scheme_params(2))
        a = np.zeros((30, 30), dtype=np.uint8)
        a[:, 15:] = 1
        out = adaptive_filter(BitImage(a), fp)
        assert out.a[15, 0:9].sum() == 0
        assert out.a[15, 21:30].sum() == 9

    def test_window_growth_used(self):
        # 3x3 ratio indecisive, 5x5 decisive white: checkerboard patch inside
        # a white field under tight cutoffs
        fp = FilterParams(0.4, 0.7, initial_window=3, max_window=5)
        a = np.zeros((11, 11), dtype=np.uint8)
        a[4:7, 4:7] = [[1, 0, 1], [0, 1, 0], [1, 0, 1]]
        out = adaptive_filter(BitImage(a), fp)
        # center: 3x3 ratio 5/9 between cutoffs; 5x5 ratio 5/25 < 0.4 -> white
        assert out.a[5, 5] == 0

    def test_monotone_sanity(self):
        # raising both cutoffs by the same amount never turns a white output
        # pixel black
        rng = np.random.default_rng(23)
        lo = FilterParams(0.4, 0.6)
        hi = FilterParams(0.5, 0.7)
        for _ in range(10):
            img = random_image(rng, 16, 16)
            out_lo = adaptive_filter(img, lo)
            out_hi = adaptive_filter(img, hi)
            assert not np.any((out_lo.a == 0) & (out_hi.a == 1))

    def test_pure_function(self):
        rng = np.random.default_rng(29)
        img = random_image(rng, 20, 20)
        fp = default_params(vcs.scheme_params(2))
        assert adaptive_filter(img, fp) == adaptive_filter(img, fp)


class TestBlockMode:
    @pytest.mark.parametrize("n", [2, 9, 12])
    def test_clean_stack_recovers_secret(self, n):
        p = vcs.scheme_params(n)
        fp = default_params(p)
        rng = np.random.default_rng(31 + n)
        for trial in range(20):
            secret = random_image(rng, 12, 10)
            shares = vcs.encode(secret, p, 700 + trial).shares
            for k in sorted({2, min(3, n), n}):
                picked = rng.choice(n, size=k, replace=False)
                stacked = vcs.reconstruct([shares[i] for i in picked])
                filtered = adaptive_filter(stacked, fp)
                assert downsample_majority(filtered, p.block_h, p.block_w) == secret, k

    def test_clean_stack_runs_no_window_pass(self, monkeypatch):
        def no_window(*args):
            raise AssertionError("window pass ran")

        monkeypatch.setattr(denoise, "_window_counts", no_window)
        p = vcs.scheme_params(9)
        secret = random_image(np.random.default_rng(37), 16, 8)
        shares = vcs.encode(secret, p, 41).shares
        for k in (2, 3, 9):
            filtered = adaptive_filter(vcs.reconstruct(shares[:k]), default_params(p))
            assert downsample_majority(filtered, p.block_h, p.block_w) == secret, k

    def test_noise_block_takes_windowed_output_only(self):
        # every 1x2 block holds one black subpixel (white under 2-of-2) except
        # one planted block with none; cutoffs this low make the windowed
        # filter call the whole image black
        fp = replace(default_params(vcs.scheme_params(2)), white_cutoff=0.1, black_cutoff=0.2)
        a = np.tile([1, 0], (6, 5)).astype(np.uint8)
        a[3, 4:6] = 0
        img = BitImage(a)
        windowed = adaptive_filter(img, replace(fp, blocks=None))
        assert windowed.a.all()
        out = adaptive_filter(img, fp)
        expected = np.zeros_like(a)
        expected[3, 4:6] = windowed.a[3, 4:6]
        assert np.array_equal(out.a, expected)

    @pytest.mark.parametrize("n,h,w", [(2, 9, 9), (2, 3, 3), (9, 8, 10), (9, 7, 9)])
    def test_untiled_image_is_pixel_mode(self, n, h, w):
        fp = default_params(vcs.scheme_params(n))
        rng = np.random.default_rng(43)
        for _ in range(5):
            img = random_image(rng, w, h)
            out = adaptive_filter(img, fp)
            assert out.a.dtype == np.uint8
            assert out.a.tobytes() == adaptive_filter(img, replace(fp, blocks=None)).a.tobytes()
            assert out.a.tobytes() == denoise._window_filter(img.a, fp).tobytes()
