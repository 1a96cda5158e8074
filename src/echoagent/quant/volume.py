"""Biplane disk-summation volumes and ejection fraction."""
from __future__ import annotations

import math

from ..errors import DomainError, VolumeError
from ..tools.masks import SegmentationMask
from .geometry import disk_diameters, long_axis


def biplane_volume(
    mask_a2c: SegmentationMask,
    mask_a4c: SegmentationMask,
    target_label: int,
    n_disks: int = 20,
) -> float:
    """Stack of n elliptical disks over the two orthogonal views.

    The common long axis L is the longer of the two per-view axes; disk i
    pairs the i-th apex-to-base chord of each view:

        V = (pi / 4) * sum_i d_i_a2c * d_i_a4c * (L / n)

    returned in millilitres.
    """
    for name, mask in (("a2c", mask_a2c), ("a4c", mask_a4c)):
        if mask.pixel_count(target_label) == 0:
            raise VolumeError(f"view {name} contains no pixels of label {target_label}")
    axis_a2c = long_axis(mask_a2c, target_label)
    axis_a4c = long_axis(mask_a4c, target_label)
    length_mm = max(axis_a2c.length_mm, axis_a4c.length_mm)
    d_a2c = disk_diameters(mask_a2c, target_label, axis_a2c, n_disks)
    d_a4c = disk_diameters(mask_a4c, target_label, axis_a4c, n_disks)
    volume_mm3 = (
        math.pi / 4.0
        * sum(a * b for a, b in zip(d_a2c, d_a4c))
        * (length_mm / n_disks)
    )
    return volume_mm3 / 1000.0


def ejection_fraction(edv_ml: float, esv_ml: float) -> float:
    """(EDV - ESV) / EDV * 100, in [-100, 100].

    ESV above EDV yields a negative value rather than an error: the caller
    reads it as anomalous, a re-measurement signal. The value is floored at
    -100; a non-negative ESV keeps it at or below 100.
    """
    if not math.isfinite(edv_ml) or not math.isfinite(esv_ml):
        raise DomainError("volumes must be finite")
    if edv_ml <= 0:
        raise DomainError(f"end-diastolic volume must be positive, got {edv_ml}")
    if esv_ml < 0:
        raise DomainError(f"end-systolic volume cannot be negative, got {esv_ml}")
    return float(max((edv_ml - esv_ml) / edv_ml * 100.0, -100.0))
