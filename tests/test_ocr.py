import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits, blank, random_image
from viskey import font
from viskey.bitimage import BitImage, DimensionError, Rect
from viskey.ocr import (
    FEATURE_LEN,
    GLYPH_SIZE,
    MIN_GLYPH_WIDTH,
    ZONE,
    extract_features,
    geometric_moment,
    normalize_glyph,
    normalize_glyphs,
    segment,
)


def brute_moment(block, p, q):
    total = 0.0
    for y in range(block.shape[0]):
        for x in range(block.shape[1]):
            if block[y, x]:
                total += (x**p) * (y**q)
    return total


def reference_features(a):
    """The per-zone loop `extract_features` used before it was vectorised,
    kept as the oracle for one 32x32 bitmap."""
    feats = np.empty(FEATURE_LEN)
    k = 0
    for zi in range(0, GLYPH_SIZE, ZONE):
        for zj in range(0, GLYPH_SIZE, ZONE):
            block = a[zi : zi + ZONE, zj : zj + ZONE]
            m00 = int(block.sum())
            density = m00 / (ZONE * ZONE)
            if m00 == 0:
                xc = yc = 0.5
            else:
                ys, xs = np.nonzero(block)
                xc = float(xs.mean()) / (ZONE - 1)
                yc = float(ys.mean()) / (ZONE - 1)
            feats[k : k + 3] = (density, xc, yc)
            k += 3
    return feats


def reference_segment(img):
    """The column-by-column loop `segment` used before it found runs from
    column edges, kept as its oracle."""
    nonzero_rows = np.flatnonzero(img.a.sum(axis=1))
    if nonzero_rows.size == 0:
        return []
    band_top, band_bottom = int(nonzero_rows[0]), int(nonzero_rows[-1])
    band = img.a[band_top : band_bottom + 1]
    col_counts = band.sum(axis=0)
    boxes = []
    in_run = False
    start = 0
    for j in range(len(col_counts) + 1):
        filled = j < len(col_counts) and col_counts[j] > 0
        if filled and not in_run:
            in_run, start = True, j
        elif not filled and in_run:
            in_run = False
            if j - start >= MIN_GLYPH_WIDTH:
                rows = np.flatnonzero(band[:, start:j].sum(axis=1))
                boxes.append(
                    Rect(band_top + int(rows[0]), band_top + int(rows[-1]), start, j - 1)
                )
    return boxes


def bitmaps():
    """32x32 bitmaps: one random byte string is about half black; ANDing
    more makes them sparser, ORing them denser."""
    layers = st.lists(st.binary(min_size=128, max_size=128), min_size=1, max_size=4)
    return st.tuples(layers, st.booleans()).map(_combine)


def _combine(drawn):
    layers, dense = drawn
    planes = [np.unpackbits(np.frombuffer(b, dtype=np.uint8)).reshape(32, 32)
              for b in layers]
    return (np.bitwise_or if dense else np.bitwise_and).reduce(planes)


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestSegment:
    def test_all_white(self):
        assert segment(blank(8, 8)) == []

    def test_two_rectangles(self):
        a = np.zeros((10, 12), dtype=np.uint8)
        a[2:8, 1:4] = 1
        a[2:8, 6:9] = 1
        boxes = segment(BitImage(a))
        assert boxes == [Rect(2, 7, 1, 3), Rect(2, 7, 6, 8)]

    def test_single_column_speck_rejected(self):
        a = np.zeros((6, 6), dtype=np.uint8)
        a[2:4, 3] = 1
        assert segment(BitImage(a)) == []

    def test_per_glyph_row_tightening(self):
        a = np.zeros((10, 10), dtype=np.uint8)
        a[1:4, 1:3] = 1  # tall-top glyph
        a[6:9, 5:7] = 1  # low glyph
        boxes = segment(BitImage(a))
        assert boxes == [Rect(1, 3, 1, 2), Rect(6, 8, 5, 6)]

    def test_left_to_right_order(self):
        a = np.zeros((5, 20), dtype=np.uint8)
        for start in (14, 8, 2):
            a[1:4, start : start + 3] = 1
        boxes = segment(BitImage(a))
        assert [b.left for b in boxes] == [2, 8, 14]

    def test_width_two_accepted(self):
        a = np.zeros((5, 6), dtype=np.uint8)
        a[1:4, 2:4] = 1
        assert segment(BitImage(a)) == [Rect(1, 3, 2, 3)]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference_loop(self, data):
        # sparse columns so runs of every width, specks and gaps all occur
        h, w = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        cols = rng.random(w) < data.draw(st.floats(0, 1))
        img = BitImage(((rng.random((h, w)) < data.draw(st.floats(0, 1))) & cols)
                       .astype(np.uint8))
        got = segment(img)
        assert got == reference_segment(img)
        assert all(type(v) is int for box in got for v in vars(box).values())


class TestNormalizeGlyph:
    def test_exact_size_is_crop(self):
        rng = np.random.default_rng(31)
        img = random_image(rng, 40, 40)
        box = Rect(4, 35, 2, 33)
        g = normalize_glyph(img, box)
        assert g.shape == (GLYPH_SIZE, GLYPH_SIZE)
        assert np.array_equal(g, img.a[4:36, 2:34])

    def test_one_pixel_black(self):
        img = bits("010\n000")
        g = normalize_glyph(img, Rect(0, 0, 1, 1))
        assert g.sum() == GLYPH_SIZE * GLYPH_SIZE

    def test_downscale_floor_formula(self):
        rng = np.random.default_rng(37)
        img = random_image(rng, 64, 64)
        g = normalize_glyph(img, Rect(0, 63, 0, 63))
        for i in range(0, GLYPH_SIZE, 7):
            for j in range(0, GLYPH_SIZE, 7):
                assert g[i, j] == img.a[2 * i, 2 * j]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_batch_matches_crop_and_scale(self, data):
        h, w = data.draw(st.integers(1, 70)), data.draw(st.integers(1, 70))
        img = random_image(np.random.default_rng(data.draw(st.integers(0, 2**32))), w, h)
        boxes = []
        for _ in range(data.draw(st.integers(0, 8))):
            top = data.draw(st.integers(0, h - 1))
            left = data.draw(st.integers(0, w - 1))
            boxes.append(Rect(top, data.draw(st.integers(top, h - 1)),
                              left, data.draw(st.integers(left, w - 1))))
        got = normalize_glyphs(img, boxes)
        assert got.shape == (len(boxes), GLYPH_SIZE, GLYPH_SIZE)
        steps = np.arange(GLYPH_SIZE)
        for g, box in zip(got, boxes):
            sub = img.a[box.top : box.bottom + 1, box.left : box.right + 1]
            rows = (steps * sub.shape[0]) // GLYPH_SIZE
            cols = (steps * sub.shape[1]) // GLYPH_SIZE
            assert np.array_equal(g, sub[np.ix_(rows, cols)])

    def test_out_of_bounds(self):
        img = bits("10\n01")
        with pytest.raises(DimensionError):
            normalize_glyphs(img, [Rect(0, 1, 0, 1), Rect(0, 2, 0, 1)])
        with pytest.raises(DimensionError):
            normalize_glyph(img, Rect(0, 1, 0, 2))


class TestGeometricMoment:
    def test_brute_force_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            block = (rng.random((8, 8)) < 0.5).astype(np.uint8)
            for p, q in ((0, 0), (1, 0), (0, 1), (1, 1)):
                assert geometric_moment(block, p, q) == brute_moment(block, p, q)

    def test_single_pixel(self):
        block = np.zeros((8, 8), dtype=np.uint8)
        block[3, 5] = 1  # y=3, x=5
        assert geometric_moment(block, 1, 0) == 5
        assert geometric_moment(block, 0, 1) == 3

    def test_stack_matches_brute_force_per_block(self):
        rng = np.random.default_rng(71)
        stack = (rng.random((20, 8, 8)) < rng.random((20, 1, 1))).astype(np.uint8)
        for p, q in ((0, 0), (1, 0), (0, 1), (1, 1)):
            got = geometric_moment(stack, p, q)
            assert got.shape == (20,)
            assert list(got) == [brute_moment(b, p, q) for b in stack]


class TestExtractFeatures:
    def test_all_white(self):
        feats = extract_features(np.zeros((32, 32), dtype=np.uint8))
        assert np.allclose(feats.reshape(16, 3), [[0.0, 0.5, 0.5]] * 16)

    def test_all_black(self):
        feats = extract_features(np.ones((32, 32), dtype=np.uint8))
        assert np.allclose(feats.reshape(16, 3), [[1.0, 0.5, 0.5]] * 16)

    def test_single_pixel_origin(self):
        a = np.zeros((32, 32), dtype=np.uint8)
        a[0, 0] = 1
        feats = extract_features(a).reshape(16, 3)
        assert np.allclose(feats[0], [1 / 64, 0.0, 0.0])
        assert np.allclose(feats[1:], [[0.0, 0.5, 0.5]] * 15)

    def test_length_and_bounds(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            a = (rng.random((32, 32)) < rng.random()).astype(np.uint8)
            feats = extract_features(a)
            assert len(feats) == FEATURE_LEN
            assert np.all(feats >= 0) and np.all(feats <= 1)

    def test_density_consistency(self):
        rng = np.random.default_rng(47)
        a = (rng.random((32, 32)) < 0.4).astype(np.uint8)
        feats = extract_features(a).reshape(16, 3)
        assert feats[:, 0].sum() * 64 == pytest.approx(a.sum())

    def test_translation_invariance(self):
        rng = np.random.default_rng(53)
        glyph = (rng.random((12, 10)) < 0.5).astype(np.uint8)
        glyph[0, :] = 1  # pin the extent so the bounding box is the glyph
        glyph[-1, :] = 1
        glyph[:, 0] = 1
        glyph[:, -1] = 1

        def place(dy, dx):
            canvas = np.zeros((40, 40), dtype=np.uint8)
            canvas[dy : dy + 12, dx : dx + 10] = glyph
            img = BitImage(canvas)
            (box,) = segment(img)
            return extract_features(normalize_glyph(img, box))

        assert np.allclose(place(3, 5), place(20, 25))

    def test_glyph_size_enforced(self):
        with pytest.raises(ValueError):
            extract_features(bits("10\n01").a)
        with pytest.raises(ValueError):
            extract_features(np.zeros((3, 32, 31), dtype=np.uint8))

    def test_empty_stack(self):
        feats = extract_features(np.zeros((0, GLYPH_SIZE, GLYPH_SIZE), dtype=np.uint8))
        assert feats.shape == (0, FEATURE_LEN)

    @settings(max_examples=200, deadline=None)
    @given(bitmaps())
    def test_matches_reference_loop(self, a):
        assert same_bits(extract_features(a), reference_features(a))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(bitmaps(), min_size=1, max_size=8))
    def test_stack_matches_reference_loop(self, stack):
        got = extract_features(np.stack(stack))
        assert got.shape == (len(stack), FEATURE_LEN)
        for row, a in zip(got, stack):
            assert same_bits(row, reference_features(a))

    def test_corpus_matches_reference_loop(self):
        glyphs = np.stack([g.a for _, g in font.corpus()])
        want = [reference_features(a) for a in glyphs]
        stacked = extract_features(glyphs)
        for a, row, ref in zip(glyphs, stacked, want):
            assert same_bits(row, ref)
            assert same_bits(extract_features(a), ref)
