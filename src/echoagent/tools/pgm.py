"""Minimal binary PGM (P5, 8-bit) reader/writer.

Frames and masks travel as P5 files: no codec dependency, trivially
content-addressable. Only maxval <= 255 is supported; masks use the label
semantics defined by SegmentationMask. One header parser serves
``decode_pgm`` and ``pgm_dimensions``, so both reject the same headers; the
errors of the two file readers name the file.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import PgmFormatError

_WHITESPACE = b" \t\n\r\x0b\x0c"


def _parse_header(data: bytes) -> tuple[int, int, int] | None:
    """(width, height, raster offset) of the P5 header that starts ``data``.

    Tokens are separated by whitespace, and a ``#`` before a token starts a
    comment that runs to the end of its line. A token counts only once a byte
    follows it, so while ``data`` ends inside the header the result is None,
    never a cut-off number. A header that can only be wrong raises
    PgmFormatError.
    """
    tokens: list[bytes] = []
    pos, n = 0, len(data)
    while len(tokens) < 4:
        while pos < n and (data[pos] in _WHITESPACE or data[pos] == ord("#")):
            if data[pos] == ord("#"):
                while pos < n and data[pos] not in b"\r\n":
                    pos += 1
            else:
                pos += 1
        start = pos
        while pos < n and data[pos] not in _WHITESPACE:
            pos += 1
        if pos == n:
            return None
        tokens.append(data[start:pos])
        if tokens[0] != b"P5":
            raise PgmFormatError(f"not a binary PGM (magic {tokens[0]!r}, expected b'P5')")
    fields = []
    for token in tokens[1:]:
        try:
            fields.append(int(token))
        except ValueError:
            raise PgmFormatError(f"non-integer PGM header token {token!r}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise PgmFormatError(f"invalid PGM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise PgmFormatError(f"unsupported PGM maxval {maxval} (need 8-bit)")
    return width, height, pos + 1  # one whitespace byte separates header from raster


def decode_pgm(data: bytes) -> np.ndarray:
    header = _parse_header(data)
    if header is None:
        raise PgmFormatError("truncated PGM header")
    width, height, pos = header
    if len(data) - pos < width * height:
        raise PgmFormatError(
            f"PGM raster truncated: expected {width * height} bytes, got {len(data) - pos}"
        )
    raster = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return raster.reshape(height, width).copy()  # the one copy: a writable array


def pgm_header(width: int, height: int) -> bytes:
    """The header ``encode_pgm`` writes before a width x height 8-bit raster."""
    return b"P5\n%d %d\n255\n" % (width, height)


def encode_pgm(pixels: np.ndarray) -> bytes:
    arr = np.asarray(pixels)
    if arr.ndim != 2 or arr.size == 0:
        raise PgmFormatError(f"PGM payload must be a non-empty 2-D array (shape {arr.shape})")
    if arr.dtype != np.uint8:
        if arr.min() < 0 or arr.max() > 255:
            raise PgmFormatError("pixel values outside 8-bit range")
        arr = arr.astype(np.uint8)
    height, width = arr.shape
    return pgm_header(width, height) + arr.tobytes()


def read_pgm(path: str | Path) -> np.ndarray:
    try:
        return decode_pgm(Path(path).read_bytes())
    except PgmFormatError as exc:
        raise PgmFormatError(f"{path}: {exc}") from None


def write_pgm(path: str | Path, pixels: np.ndarray) -> None:
    Path(path).write_bytes(encode_pgm(pixels))


def pgm_dimensions(path: str | Path) -> tuple[int, int]:
    """(width, height) from the header without materializing the raster.

    Reads a prefix that doubles until the header is complete, so a long
    ``#`` comment still parses; the header is checked as ``decode_pgm``
    checks it.
    """
    with open(path, "rb") as fh:
        data = fh.read(64)
        try:
            while (header := _parse_header(data)) is None:
                more = fh.read(len(data))
                if not more:
                    raise PgmFormatError("truncated PGM header")
                data += more
        except PgmFormatError as exc:
            raise PgmFormatError(f"{path}: {exc}") from None
    return header[0], header[1]
