"""Minimal binary PGM (P5, 8-bit) reader/writer.

Frames and masks travel as P5 files: no codec dependency, trivially
content-addressable. Only maxval <= 255 is supported; masks use the label
semantics defined by SegmentationMask.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import PgmFormatError


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        if data[pos : pos + 1].isspace():
            pos += 1
        elif data[pos : pos + 1] == b"#":
            while pos < n and data[pos] not in (0x0A, 0x0D):
                pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise PgmFormatError("truncated PGM header")
    return data[start:pos], pos


def decode_pgm(data: bytes) -> np.ndarray:
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmFormatError(f"not a binary PGM (magic {magic!r}, expected b'P5')")
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise PgmFormatError(f"non-integer PGM header token {token!r}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise PgmFormatError(f"invalid PGM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise PgmFormatError(f"unsupported PGM maxval {maxval} (need 8-bit)")
    pos += 1  # single whitespace byte separates header from raster
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise PgmFormatError(
            f"PGM raster truncated: expected {width * height} bytes, got {len(raster)}"
        )
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def encode_pgm(pixels: np.ndarray) -> bytes:
    arr = np.asarray(pixels)
    if arr.ndim != 2:
        raise PgmFormatError("PGM payload must be a 2-D array")
    if arr.dtype != np.uint8:
        if arr.min() < 0 or arr.max() > 255:
            raise PgmFormatError("pixel values outside 8-bit range")
        arr = arr.astype(np.uint8)
    height, width = arr.shape
    return b"P5\n%d %d\n255\n" % (width, height) + arr.tobytes()


def read_pgm(path: str | Path) -> np.ndarray:
    return decode_pgm(Path(path).read_bytes())


def write_pgm(path: str | Path, pixels: np.ndarray) -> None:
    Path(path).write_bytes(encode_pgm(pixels))


def _dimensions_complete(data: bytes) -> bool:
    """True once magic, width and height are each followed by another byte."""
    pos = 0
    try:
        for _ in range(3):
            _, pos = _next_token(data, pos)
    except PgmFormatError:
        return False
    return pos < len(data)


def pgm_dimensions(path: str | Path) -> tuple[int, int]:
    """(width, height) from the header without materializing the raster.

    Reads a prefix that doubles until the width and height tokens are
    complete, so a long ``#`` comment still parses.
    """
    with open(path, "rb") as fh:
        data = fh.read(64)
        while not _dimensions_complete(data):
            more = fh.read(len(data))
            if not more:
                break
            data += more
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmFormatError(f"not a binary PGM: {path}")
    width_tok, pos = _next_token(data, pos)
    height_tok, _ = _next_token(data, pos)
    return int(width_tok), int(height_tok)
