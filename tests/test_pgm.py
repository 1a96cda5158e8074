import numpy as np
import pytest

from echoagent.errors import PgmFormatError
from echoagent.tools.pgm import decode_pgm, encode_pgm, pgm_dimensions, read_pgm, write_pgm


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(17, 23), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, pixels)
    assert np.array_equal(read_pgm(path), pixels)
    assert pgm_dimensions(path) == (23, 17)


def test_comments_in_header_are_skipped():
    data = b"P5\n# a comment\n3 2\n# another\n255\n" + bytes(6)
    assert decode_pgm(data).shape == (2, 3)


def test_bad_magic_rejected():
    with pytest.raises(PgmFormatError, match="P5"):
        decode_pgm(b"P2\n2 2\n255\n0 0 0 0")


def test_sixteen_bit_maxval_rejected():
    with pytest.raises(PgmFormatError, match="maxval"):
        decode_pgm(b"P5\n2 2\n65535\n" + bytes(8))


def test_truncated_raster_rejected():
    with pytest.raises(PgmFormatError, match="truncated"):
        decode_pgm(b"P5\n4 4\n255\n" + bytes(3))


def test_encode_rejects_non_2d():
    with pytest.raises(PgmFormatError):
        encode_pgm(np.zeros((2, 2, 2), dtype=np.uint8))


@pytest.mark.parametrize("dtype", [np.uint8, int])
@pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
def test_encode_rejects_an_empty_raster(shape, dtype):
    # the reader refuses a 0-pixel header, so the writer never writes one
    with pytest.raises(PgmFormatError, match="empty"):
        encode_pgm(np.zeros(shape, dtype=dtype))


def test_dimensions_skip_a_comment_longer_than_the_first_read(tmp_path):
    path = tmp_path / "commented.pgm"
    path.write_bytes(b"P5\n# " + b"x" * 500 + b"\n3 2\n255\n" + bytes(6))
    assert pgm_dimensions(path) == (3, 2)


@pytest.mark.parametrize("pad", range(52, 64))
def test_dimensions_token_split_across_reads(tmp_path, pad):
    # the comment length moves the width token across the first read's edge
    path = tmp_path / "split.pgm"
    path.write_bytes(b"P5\n#" + b"c" * pad + b"\n1234 567\n255\n")
    assert pgm_dimensions(path) == (1234, 567)


def test_dimensions_of_truncated_raster_still_read(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n40 30\n255\n" + bytes(7))
    assert pgm_dimensions(path) == (40, 30)


@pytest.mark.parametrize("data, match", [
    (b"P2\n2 2\n255\n0 0 0 0", "not a binary PGM"),
    (b"", "truncated"),
    (b"P5\n# only a comment", "truncated"),
    (b"P5\n12", "truncated"),
])
def test_dimensions_reject_bad_headers(tmp_path, data, match):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(PgmFormatError, match=match):
        pgm_dimensions(path)


@pytest.mark.parametrize("data", [
    b"P2\n2 2\n255\n" + bytes(4),
    b"P6\n2 2\n255\n" + bytes(4),
    b"P5x\n2 2\n255\n" + bytes(4),
    b"P5\nabc 2\n255\n" + bytes(4),
    b"P5\n2 2.0\n255\n" + bytes(4),
    b"P5\n2 2\n25x\n" + bytes(4),
    b"P5\n0 2\n255\n",
    b"P5\n-2 2\n255\n" + bytes(4),
    b"P5\n2 2\n0\n" + bytes(4),
    b"P5\n2 2\n65535\n" + bytes(8),
    b"",
    b"P5\n2 2",
    b"P5\n2 2\n255",
    b"P5\n# a comment that never ends",
], ids=["p2", "p6", "p5x", "width", "height", "maxval_token", "zero_width",
        "negative_width", "zero_maxval", "maxval_16bit", "empty", "no_maxval",
        "maxval_at_eof", "comment_at_eof"])
def test_dimensions_and_decode_reject_the_same_headers(tmp_path, data):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(PgmFormatError) as from_bytes:
        decode_pgm(data)
    with pytest.raises(PgmFormatError) as from_file:
        pgm_dimensions(path)
    with pytest.raises(PgmFormatError) as read_whole:
        read_pgm(path)
    # one check, one message; a file's error adds its path
    assert str(from_file.value) == str(read_whole.value) == f"{path}: {from_bytes.value}"


@pytest.mark.parametrize("data", [
    b"P5\n4 4\n255\n" + bytes(3),
    b"P5\n# " + b"x" * 100 + b"\n4 4\n255\n" + bytes(3),
    b"P5\n2000000000 2000000000\n255\n" + bytes(3),
], ids=["raster_ends_in_first_read", "header_past_first_read", "overstated_canvas"])
def test_read_pgm_rejects_a_short_raster_as_decode_does(tmp_path, data):
    # the file size is checked before the array is allocated, so an
    # overstated canvas is a format error, never a MemoryError
    path = tmp_path / "short.pgm"
    path.write_bytes(data)
    with pytest.raises(PgmFormatError) as from_bytes:
        decode_pgm(data)
    with pytest.raises(PgmFormatError) as from_file:
        read_pgm(path)
    assert "raster truncated" in str(from_bytes.value)
    assert str(from_file.value) == f"{path}: {from_bytes.value}"


@pytest.mark.parametrize("prefix", [b"P5\n3 2\n255\n", b"P5\n# " + b"c" * 200 + b"\n3 2\n255\n"])
def test_read_pgm_reads_the_raster_and_ignores_trailing_bytes(tmp_path, prefix):
    data = prefix + bytes(range(1, 7)) + b"trailing"
    path = tmp_path / "long.pgm"
    path.write_bytes(data)
    pixels = read_pgm(path)
    assert np.array_equal(pixels, decode_pgm(data))
    assert pixels.flags.writeable and pixels.flags.c_contiguous
