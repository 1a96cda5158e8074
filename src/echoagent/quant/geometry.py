"""Mask geometry: areas, principal long axis, and perpendicular chords.

Axis finding is PCA over the pixel coordinates of the largest connected
component of the target label. A chord is measured by counting target
pixels along a whole-canvas ray perpendicular to the axis, scaled by the
physical step length of that ray (which handles anisotropic spacing). The
rays of one call (the probe chords of ``long_axis``, the disks of
``disk_diameters``) are sampled together in one numpy gather over
``mask.labels``, so target pixels off the largest component still count.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from ..errors import GeometryError
from ..tools.masks import SegmentationMask
from .types import EMPTY_STRUCTURE, LongAxis, MeasurementResult

MIN_REGION_PIXELS = 20

# 8-connectivity: diagonal neighbours belong to the same component
_CONNECTIVITY = np.ones((3, 3), dtype=int)


def mask_area(mask: SegmentationMask, target_label: int) -> MeasurementResult:
    """Pixel count times the pixel footprint, in mm²."""
    count = mask.pixel_count(target_label)
    sx, sy = mask.pixel_spacing_mm
    flags = (EMPTY_STRUCTURE,) if count == 0 else ()
    return MeasurementResult(kind="area_mm2", value=count * sx * sy, flags=flags)


def largest_component(binary: np.ndarray) -> np.ndarray:
    labeled, n = ndimage.label(binary, structure=_CONNECTIVITY)
    if n == 0:
        return np.zeros_like(binary, dtype=bool)
    sizes = np.bincount(labeled.ravel(), minlength=n + 1)[1:]
    return labeled == (int(np.argmax(sizes)) + 1)


def _region_coords(mask: SegmentationMask, target_label: int) -> np.ndarray:
    """(N, 2) array of (x, y) pixel coordinates of the largest component."""
    binary = mask.labels == target_label
    count = int(binary.sum())
    if count < MIN_REGION_PIXELS:
        raise GeometryError(
            f"label {target_label} region has {count} px, "
            f"need at least {MIN_REGION_PIXELS} for a reliable axis"
        )
    component = largest_component(binary)
    ys, xs = np.nonzero(component)
    return np.stack([xs, ys], axis=1).astype(np.float64)


def _principal_direction(coords: np.ndarray) -> np.ndarray:
    centered = coords - coords.mean(axis=0)
    cov = centered.T @ centered / len(coords)
    eigvals, eigvecs = np.linalg.eigh(cov)
    direction = eigvecs[:, int(np.argmax(eigvals))]
    # canonical sign: positive y, then positive x, so reruns agree bit-for-bit
    if direction[1] < 0 or (direction[1] == 0 and direction[0] < 0):
        direction = -direction
    return direction


def _chords_mm(
    mask: SegmentationMask,
    target_label: int,
    points: np.ndarray,
    perp: np.ndarray,
    max_steps: int,
) -> list[float]:
    """Chord length through each of the (k, 2) ``points`` along ``perp``.

    Each chord is its hit count on the ray ``point + s * perp`` for integer
    ``s`` in [-max_steps, max_steps], rounded to pixels by floor(x + 0.5),
    times the physical step size.
    """
    sx, sy = mask.pixel_spacing_mm
    step_mm = math.hypot(perp[0] * sx, perp[1] * sy)
    height, width = mask.labels.shape
    s = np.arange(-max_steps, max_steps + 1, dtype=np.float64)
    xs = np.floor(points[:, :1] + s * perp[0] + 0.5)
    ys = np.floor(points[:, 1:] + s * perp[1] + 0.5)
    inside = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
    xi = np.where(inside, xs, 0).astype(np.intp)
    yi = np.where(inside, ys, 0).astype(np.intp)
    hits = (inside & (mask.labels[yi, xi] == target_label)).sum(axis=1)
    return (hits * step_mm).tolist()


def long_axis(
    mask: SegmentationMask, target_label: int, n_probe_disks: int = 20
) -> LongAxis:
    """Principal axis of the target region, oriented apex first.

    The apex is the endpoint on the narrower side of the region, judged by
    the mean chord over the 10% of probe disks nearest each endpoint; a
    width tie within 1e-6 falls back to the endpoint with the smaller y.
    """
    coords = _region_coords(mask, target_label)
    direction = _principal_direction(coords)
    centroid = coords.mean(axis=0)
    projections = (coords - centroid) @ direction
    lo = centroid + direction * float(projections.min())
    hi = centroid + direction * float(projections.max())

    sx, sy = mask.pixel_spacing_mm
    length_mm = math.hypot((hi[0] - lo[0]) * sx, (hi[1] - lo[1]) * sy)
    if length_mm <= 0:
        raise GeometryError("degenerate region: zero-length principal axis")

    perp = np.array([-direction[1], direction[0]])
    max_steps = int(math.ceil(math.hypot(*mask.labels.shape))) + 1
    probe = max(1, n_probe_disks)
    near = max(1, math.ceil(probe * 0.1))
    t = (np.arange(probe) + 0.5) / probe
    widths = _chords_mm(mask, target_label, lo + (hi - lo) * t[:, None], perp, max_steps)
    width_lo = float(np.mean(widths[:near]))
    width_hi = float(np.mean(widths[-near:]))

    if abs(width_lo - width_hi) <= 1e-6:
        apex, base = (lo, hi) if lo[1] <= hi[1] else (hi, lo)
    elif width_lo < width_hi:
        apex, base = lo, hi
    else:
        apex, base = hi, lo
    return LongAxis(
        apex=(float(apex[0]), float(apex[1])),
        base_mid=(float(base[0]), float(base[1])),
        length_mm=length_mm,
    )


def disk_diameters(
    mask: SegmentationMask,
    target_label: int,
    axis: LongAxis,
    n_disks: int = 20,
) -> list[float]:
    """Perpendicular chord at the midpoint of each of n equal axis segments.

    Disks are ordered from apex to base. A disk whose ray misses the region
    contributes 0.
    """
    if n_disks < 1:
        raise GeometryError("n_disks must be >= 1")
    apex = np.array(axis.apex, dtype=np.float64)
    base = np.array(axis.base_mid, dtype=np.float64)
    span = base - apex
    norm = math.hypot(span[0], span[1])
    if norm == 0:
        raise GeometryError("axis endpoints coincide")
    direction = span / norm
    perp = np.array([-direction[1], direction[0]])
    max_steps = int(math.ceil(math.hypot(*mask.labels.shape))) + 1
    t = (np.arange(n_disks) + 0.5) / n_disks
    return _chords_mm(mask, target_label, apex + span * t[:, None], perp, max_steps)
