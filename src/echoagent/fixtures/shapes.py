"""Shape renderers and their analytic volumes, for fixtures and oracle checks.

Ellipses are defined in millimetres about the canvas centre c = (size - 1) / 2
(a half-integer for even sizes, which keeps chords symmetric) and sampled at
pixel centres: at a spacing of s mm, pixel (x, y) lies at ((x - c) * s,
(y - c) * s) mm. A
prolate spheroid with a circular cross-section shows the same ellipse in
both apical views, so one rendered mask stands for both; rectangles stand in
for cylinders.
"""
from __future__ import annotations

import math

import numpy as np

from ..tools.masks import SegmentationMask


def ellipse_mask(
    size: int,
    semi_long_mm: float,
    semi_short_mm: float,
    spacing_mm: float,
    label: int = 1,
    structure: str = "left ventricle",
) -> SegmentationMask:
    """Ellipse with its long axis vertical, on square pixels of spacing_mm."""
    c = (size - 1) / 2.0
    offsets_mm = (np.arange(size) - c) * spacing_mm
    dx = offsets_mm[np.newaxis, :]
    dy = offsets_mm[:, np.newaxis]
    inside = (dy / semi_long_mm) ** 2 + (dx / semi_short_mm) ** 2 <= 1.0
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


def spheroid_volume_ml(length_mm: float, radius_mm: float) -> float:
    """Analytic prolate spheroid volume: (4/3) pi (L/2) r^2, in mL."""
    return (4.0 / 3.0) * math.pi * (length_mm / 2.0) * radius_mm**2 / 1000.0


def cylinder_volume_ml(diameter_mm: float, length_mm: float) -> float:
    """Analytic cylinder volume: (pi/4) d^2 L, in mL."""
    return math.pi / 4.0 * diameter_mm**2 * length_mm / 1000.0
