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
