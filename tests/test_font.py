import hashlib

import numpy as np

from viskey.bitimage import write_pbm
from viskey.font import ALPHABET, FONT_IDS, base_glyph, corpus, render_variant
from viskey.ocr import GLYPH_SIZE, segment


class TestBaseGlyphs:
    def test_all_classes_present(self):
        assert len(ALPHABET) == 36
        for ch in ALPHABET:
            g = base_glyph(ch)
            assert g.shape == (7, 5)
            assert g.sum() > 0

    def test_distinct(self):
        seen = {base_glyph(ch).tobytes() for ch in ALPHABET}
        assert len(seen) == 36


class TestRenderVariant:
    def test_size(self):
        for fid in FONT_IDS:
            img = render_variant("W", fid)
            assert (img.width, img.height) == (GLYPH_SIZE, GLYPH_SIZE)

    def test_variants_differ(self):
        imgs = {render_variant("E", fid).a.tobytes() for fid in FONT_IDS}
        assert len(imgs) == len(FONT_IDS)

    def test_each_segments_to_one_box(self):
        for ch in "0IMW8":
            for fid in FONT_IDS:
                assert len(segment(render_variant(ch, fid))) == 1


class TestCorpus:
    def test_glyph_digest_pinned(self):
        """SHA-256 over <LABEL>_<FONTID>.pbm names and P1 bytes of all 360
        glyphs in corpus order: the digest of the PBM files the package
        bundled before its glyphs were generated in memory."""
        pinned = "05e54a1ec081fed61fd4905c4b919ee7c2001d1e16a7e924b89420ed5b0b27f8"
        digest = hashlib.sha256()
        for source_id, img in corpus():
            digest.update(f"{source_id}.pbm".encode() + write_pbm(img, "P1"))
        assert digest.hexdigest() == pinned

