"""Synthetic mask generation for fixtures and oracle comparisons.

Ellipse masks approximate prolate spheroids seen in two orthogonal views
(circular cross-section => the same ellipse in both); rectangles stand in
for cylinders. Pixel (x, y) belongs to a shape when its center lies inside
it; shape centers default to the canvas center ((size-1)/2, a half-integer
for even sizes), which keeps chords symmetric.
"""
from __future__ import annotations

import math

import numpy as np

from ..tools.masks import SegmentationMask


def ellipse_mask(
    size: int,
    semi_long_mm: float,
    semi_short_mm: float,
    spacing_mm: float = 0.5,
    label: int = 1,
    structure: str = "left ventricle",
    center: tuple[float, float] | None = None,
    vertical: bool = True,
) -> SegmentationMask:
    """Ellipse with the long semi-axis vertical (or horizontal)."""
    cx, cy = center if center is not None else ((size - 1) / 2.0, (size - 1) / 2.0)
    a_px = semi_long_mm / spacing_mm
    b_px = semi_short_mm / spacing_mm
    if not vertical:
        a_px, b_px = b_px, a_px
    ys, xs = np.mgrid[0:size, 0:size]
    inside = ((xs - cx) / b_px) ** 2 + ((ys - cy) / a_px) ** 2 <= 1.0
    labels = np.where(inside, np.uint8(label), np.uint8(0))
    return SegmentationMask(
        labels=labels,
        pixel_spacing_mm=(spacing_mm, spacing_mm),
        structure_map={label: structure},
    )


def rect_mask(
    size: int,
    width_px: int,
    height_px: int,
    spacing_mm: tuple[float, float] = (1.0, 1.0),
    label: int = 1,
    structure: str = "left ventricle",
) -> SegmentationMask:
    labels = np.zeros((size, size), dtype=np.uint8)
    x0 = (size - width_px) // 2
    y0 = (size - height_px) // 2
    labels[y0 : y0 + height_px, x0 : x0 + width_px] = label
    return SegmentationMask(
        labels=labels, pixel_spacing_mm=spacing_mm, structure_map={label: structure}
    )


def spheroid_pair(
    length_mm: float = 80.0,
    radius_mm: float = 25.0,
    spacing_mm: float = 0.5,
    size: int = 256,
    label: int = 1,
    structure: str = "left ventricle",
) -> tuple[SegmentationMask, SegmentationMask]:
    """Two identical elliptical views of a prolate spheroid."""
    a2c = ellipse_mask(size, length_mm / 2.0, radius_mm, spacing_mm, label, structure)
    a4c = ellipse_mask(size, length_mm / 2.0, radius_mm, spacing_mm, label, structure)
    return a2c, a4c


def cylinder_pair(
    width_px: int = 20,
    height_px: int = 60,
    spacing_mm: float = 1.0,
    size: int = 128,
    label: int = 1,
    structure: str = "left ventricle",
) -> tuple[SegmentationMask, SegmentationMask]:
    a2c = rect_mask(size, width_px, height_px, (spacing_mm, spacing_mm), label, structure)
    a4c = rect_mask(size, width_px, height_px, (spacing_mm, spacing_mm), label, structure)
    return a2c, a4c


def spheroid_volume_ml(length_mm: float, radius_mm: float) -> float:
    """Analytic prolate spheroid volume: (4/3) pi (L/2) r^2, in mL."""
    return (4.0 / 3.0) * math.pi * (length_mm / 2.0) * radius_mm**2 / 1000.0


def cylinder_volume_ml(diameter_mm: float, length_mm: float) -> float:
    """Analytic cylinder volume: (pi/4) d^2 L, in mL."""
    return math.pi / 4.0 * diameter_mm**2 * length_mm / 1000.0
