import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bits, blank, random_image
from viskey.bitimage import (
    BitImage,
    DimensionError,
    PbmError,
    Rect,
    _tokens,
    downsample_majority,
    or_merge,
    read_pbm,
    write_pbm,
)


def images(max_side=64):
    return st.integers(1, max_side).flatmap(
        lambda w: st.integers(1, max_side).flatmap(
            lambda h: st.lists(
                st.integers(0, 1), min_size=w * h, max_size=w * h
            ).map(lambda px: BitImage(np.array(px, dtype=np.uint8).reshape(h, w)))
        )
    )


def reference_read_p1(data):
    """Token-by-token P1 parser: the loop `read_pbm` used before its payload
    pass was vectorised, kept as the oracle for that pass."""
    toks = _tokens(data)
    magic, off, _ = next(toks)
    if magic != b"P1":
        raise PbmError(f"bad magic {magic!r}, expected P1 or P4", off)
    dims = []
    for _ in range(2):
        tok, off, end = next(toks)
        if tok is None or not tok.isdigit():
            raise PbmError(f"expected numeric dimension, got {tok!r}", off)
        dims.append(int(tok))
    w, h = dims
    if w <= 0 or h <= 0:
        raise PbmError(f"dimensions must be positive, got {w}x{h}", off)
    bits = []
    while len(bits) < w * h:
        tok, off, end = next(toks)
        if tok is None:
            raise PbmError(f"truncated P1 payload: got {len(bits)} of {w * h} bits", off)
        for k, ch in enumerate(tok):
            if ch not in (0x30, 0x31):
                raise PbmError(f"invalid P1 bit {chr(ch)!r}", off + k)
            bits.append(ch - 0x30)
        if len(bits) > w * h:
            raise PbmError(f"trailing bits beyond {w * h}", off)
    return BitImage(np.array(bits, dtype=np.uint8).reshape(h, w))


@st.composite
def p1_inputs(draw):
    """A canonical P1 file of a small image, then up to six edits: chunks of
    bits, whitespace, comments or stray bytes inserted or written over, bytes
    deleted, or a cut. Edits land mostly in the payload, often at its end."""
    data = bytearray(write_pbm(draw(images(max_side=6)), "P1"))
    header_len = data.index(b"\n", 3) + 1
    chunk = st.sampled_from([b"0", b"1", b"01", b" ", b"\n", b"\t", b"#", b"# c 1\n", b"x"])
    chunk = chunk | st.binary(min_size=1, max_size=1)
    for _ in range(draw(st.integers(0, 6))):
        lo = min(len(data), draw(st.sampled_from([header_len, header_len, header_len, 0])))
        i = draw(st.integers(lo, len(data)) | st.just(max(lo, len(data) - 1)))
        op = draw(st.sampled_from(["insert", "insert", "replace", "delete", "truncate"]))
        if op == "insert":
            data[i:i] = draw(chunk)
        elif op == "replace":
            piece = draw(chunk)
            data[i : i + len(piece)] = piece
        elif op == "delete":
            del data[i : i + 1]
        else:
            del data[i:]
    return bytes(data)


def parse_outcome(parse, data):
    try:
        return parse(data)
    except PbmError as e:
        return ("error", str(e), e.offset)


class TestBitImage:
    def test_basic_properties(self):
        img = bits("10\n01")
        assert (img.width, img.height) == (2, 2)

    def test_immutable(self):
        img = bits("10")
        with pytest.raises(AttributeError):
            img.a = None
        with pytest.raises(ValueError):
            img.a[0, 0] = 0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BitImage(np.array([[0, 2]], dtype=np.uint8))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            BitImage(np.zeros((0, 4), dtype=np.uint8))
        with pytest.raises(DimensionError):
            BitImage(np.zeros(4, dtype=np.uint8))

    def test_eq_and_hash(self):
        a, b, c = bits("10\n01"), bits("10\n01"), bits("10\n00")
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestRect:
    def test_degenerate(self):
        with pytest.raises(ValueError):
            Rect(3, 2, 0, 0)
        with pytest.raises(ValueError):
            Rect(0, 0, -1, 0)


class TestReadPbm:
    def test_p1_example(self):
        img = read_pbm(b"P1\n2 2\n1 0\n0 1")
        assert img == bits("10\n01")

    def test_p4_full_byte(self):
        img = read_pbm(b"P4\n8 1\n" + bytes([0xFF]))
        assert img == bits("11111111")

    def test_p4_padding_ignored(self):
        img = read_pbm(b"P4\n9 1\n" + bytes([0xFF, 0x80]))
        assert img == bits("111111111")

    def test_comments_and_whitespace(self):
        img = read_pbm(b"P1 # comment\n# another\n 2\t2 \n1 0 0 1")
        assert img == bits("10\n01")

    def test_bad_magic_offset(self):
        with pytest.raises(PbmError) as e:
            read_pbm(b"P5\n2 2\n")
        assert e.value.offset == 0

    def test_nonnumeric_dimension(self):
        with pytest.raises(PbmError):
            read_pbm(b"P1\nx 2\n")

    def test_nonpositive_dimension(self):
        with pytest.raises(PbmError):
            read_pbm(b"P1\n0 2\n")

    def test_truncated_p1(self):
        with pytest.raises(PbmError):
            read_pbm(b"P1\n2 2\n1 0 1")

    def test_truncated_p4(self):
        with pytest.raises(PbmError):
            read_pbm(b"P4\n16 2\n" + bytes(3))

    def test_invalid_p1_bit(self):
        with pytest.raises(PbmError):
            read_pbm(b"P1\n2 1\n1 7")

    @pytest.mark.parametrize(
        "data, offset, message",
        [
            (b"P1\n4 1\n10x1", 9, "invalid P1 bit 'x'"),
            (b"P1\n2 2\n1 0 0x1", 12, "invalid P1 bit 'x'"),
            (b"P1\n2 2\n1 0 1", 12, "truncated P1 payload: got 3 of 4 bits"),
            (b"P1\n2 2\n10#x\n1", 13, "truncated P1 payload: got 3 of 4 bits"),
            (b"P1\n2 2\n1 0 011", 11, "trailing bits beyond 4"),
        ],
        ids=["bit-mid-token", "bit-in-last-token", "truncated", "truncated-after-comment",
             "token-past-last-pixel"],
    )
    def test_p1_error_offsets(self, data, offset, message):
        with pytest.raises(PbmError) as e:
            read_pbm(data)
        assert e.value.offset == offset
        assert str(e.value) == f"{message} (byte offset {offset})"

    @settings(max_examples=300, deadline=None)
    @given(p1_inputs())
    def test_p1_matches_reference_parser(self, data):
        assume(next(_tokens(data))[0] != b"P4")  # an edit can turn the magic into P4
        assert parse_outcome(read_pbm, data) == parse_outcome(reference_read_p1, data)

    def test_p1_comment_in_payload(self):
        assert read_pbm(b"P1\n2 2\n1 0# c 7\n 0 1") == bits("10\n01")

    def test_p1_bits_without_whitespace(self):
        assert read_pbm(b"P1\n2 2\n0110") == bits("01\n10")

    def test_p1_tokens_after_last_pixel_ignored(self):
        assert read_pbm(b"P1\n2 1\n1 0 garbage 7") == bits("10")


class TestWritePbm:
    def test_p1_smallest(self):
        assert write_pbm(bits("1"), "P1") == b"P1\n1 1\n1\n"

    def test_p4_full_byte(self):
        assert write_pbm(bits("11111111"), "P4") == b"P4\n8 1\n" + bytes([0xFF])

    def test_p4_msb_padding(self):
        assert write_pbm(bits("111111111"), "P4") == b"P4\n9 1\n" + bytes([0xFF, 0x80])

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            write_pbm(bits("1"), "P2")

    @settings(max_examples=60, deadline=None)
    @given(images(), st.sampled_from(["P1", "P4"]))
    def test_roundtrip(self, img, variant):
        assert read_pbm(write_pbm(img, variant)) == img


class TestOrMerge:
    def test_identity_with_white(self):
        img = bits("10\n01")
        assert or_merge([img, blank(2, 2)]) == img

    def test_fig4_blocks(self):
        assert or_merge([bits("10"), bits("01")]) == bits("11")

    def test_idempotent(self):
        img = bits("10\n01")
        assert or_merge([img, img]) == img

    def test_dimension_mismatch_message(self):
        with pytest.raises(DimensionError) as e:
            or_merge([bits("10"), bits("1\n0")])
        assert "image 1" in str(e.value)

    def test_empty(self):
        with pytest.raises(ValueError):
            or_merge([])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_commutative_associative(self, data):
        w = data.draw(st.integers(1, 12))
        h = data.draw(st.integers(1, 12))
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        a, b, c = (random_image(rng, w, h) for _ in range(3))
        assert or_merge([a, b]) == or_merge([b, a])
        assert or_merge([or_merge([a, b]), c]) == or_merge([a, or_merge([b, c])])


class TestDownsampleMajority:
    def test_identity_blocks(self):
        img = bits("10\n01")
        assert downsample_majority(img, 1, 1) == img

    def test_tie_goes_black(self):
        img = bits("110\n100")  # one 2x3 block with 3 of 6 black
        assert downsample_majority(img, 2, 3) == bits("1")

    def test_one_by_two_threshold(self):
        # ceil(2/2) = 1: a single black subpixel already wins
        assert downsample_majority(bits("10"), 1, 2) == bits("1")
        assert downsample_majority(bits("00"), 1, 2) == bits("0")

    def test_non_divisible(self):
        with pytest.raises(DimensionError):
            downsample_majority(bits("101"), 1, 2)

    def test_two_of_two_partial_order_oracle(self):
        from viskey import vcs

        params = vcs.scheme_params(2)
        rng = np.random.default_rng(17)
        for seed in range(5):
            secret = random_image(rng, 16, 16)
            merged = vcs.reconstruct(vcs.encode(secret, params, seed))
            down = downsample_majority(merged, params.block_h, params.block_w)
            # graying only adds black: down >= secret, equal on black pixels
            assert np.all(down.a >= secret.a)
            assert np.all(down.a[secret.a == 1] == 1)
