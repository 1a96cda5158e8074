"""Mask geometry: areas, principal long axis, and perpendicular chords.

Axis finding is PCA over the pixel coordinates of the largest connected
component of the target label, with no BLAS or LAPACK call, so its bits do
not depend on the host's kernels: the covariance comes from exact integer
moments, rounded once per entry, the principal direction from the closed
form of a symmetric 2x2 matrix (only +, -, *, / and sqrt), and the
projections onto it from elementwise multiplies and adds. A chord is
measured by counting target pixels along a ray perpendicular to the axis,
scaled by the physical step length of that ray (which handles anisotropic
spacing). The rays of one call (the probe chords ``long_axis`` reads, the
2 x 10% nearest each end, and the disks of ``disk_diameters``) are sampled
together in one numpy gather, so target pixels off the largest component
still count. The small scalar work (the axis length, the step window, the
two probe means and each chord's ``hits * step_mm``) is done in Python
floats, with the same IEEE operations as numpy's, so an overflow at an
extreme pixel spacing gives an infinite value, never a numpy warning.

The region is held as row runs (He, Chao & Suzuki, IEEE TIP 2008): maximal
stretches of a row, columns ``start`` to ``stop - 1``, in raster order.
Each run points at its first 8-connected neighbour in the row above; when
every run but the first has one, the region is one component and the
labelling ends there. Otherwise a union-find over the other neighbours
links the later root to the earlier, and pointer jumping takes each run to
its component's first run, which wins a size tie. Moments come in closed
form per run, extreme projections from the end pixels ``start`` and
``stop - 1``: a rounded projection is monotone along a row, so these are a
per-pixel min and max, bit for bit. The int64 moment sums are exact on any
canvas up to 2**15 px a side.

All of this reads the target label's crop (``SegmentationMask.label_crop``):
its bounding box with a one-pixel False border, which the mask builds once
for both calls on a view, as it counts the label's pixels once
(``pixel_count``). Every component of the label lies in the box, so the
runs of the crop, offset by the box's corner, are those of a whole-canvas
scan, and the border ends every row's runs without a copy of the crop. A
ray is sampled only over the steps ``s`` at which it can meet the box,
widened by a pixel on each side and clipped to the whole-canvas range
``[-max_steps, max_steps]``; each sample's indices are clipped onto the
border, so a sample off the box reads False. Every target pixel lies in
the box, so the hit counts, and with them the chords, are exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, GeometryError
from ..tools.masks import SegmentationMask

MIN_REGION_PIXELS = 20
N_PROBE_DISKS = 20  # probes along the axis that judge which end is the apex


@dataclass(frozen=True)
class LongAxis:
    """Principal axis of a mask region, apex first.

    ``apex`` and ``base_mid`` are pixel coordinates (x, y) of the extreme
    region pixels projected onto the principal direction; ``length_mm`` is
    their euclidean distance under the mask's pixel spacing.
    """

    apex: tuple[float, float]
    base_mid: tuple[float, float]
    length_mm: float

    def __post_init__(self):
        if not all(map(math.isfinite, self.apex + self.base_mid)):
            raise DomainError(f"axis ends must be finite, got {self.apex} and {self.base_mid}")
        if not self.length_mm > 0 or not math.isfinite(self.length_mm):
            raise DomainError(f"axis length must be positive and finite, got {self.length_mm}")


def mask_area(mask: SegmentationMask, target_label: int) -> float:
    """Pixel count times the pixel footprint, in mm²: 0.0 exactly when the
    count is 0, since ``valid_spacing`` keeps the footprint above 0 and
    finite. The footprint is taken first, so a finite footprint of extreme
    spacings such as (1e308, 1e-300) does not overflow."""
    count = mask.pixel_count(target_label)
    sx, sy = mask.pixel_spacing_mm
    return float(count * (sx * sy))


def _row_runs(crop: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, starts, stops) of the True runs of the 2-D boolean ``crop``,
    whose one-pixel border is False, in raster order and in the coordinates
    of the crop's interior; a run covers columns ``start`` to ``stop - 1``."""
    width = crop.shape[1]
    flat = crop.reshape(-1)
    # the border parts every row's runs from the next row's: a run starts
    # after, and stops at, a pixel that differs from the one after it
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    rows, starts = np.divmod(edges[0::2], width)
    return rows - 1, starts, edges[1::2] - rows * width


def _roots(parent: np.ndarray) -> np.ndarray:
    """Each node's root, by pointer jumping, in a forest of earlier parents."""
    while not np.array_equal(grand := parent[parent], parent):
        parent = grand
    return parent


def _largest_component(rows: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Which of the (nonempty) runs form the largest 8-connected component;
    a size tie goes to the component whose first run comes first."""
    n = len(rows)
    # a key space where each run's row block is wider than any run
    width = int(stops.max()) + 1
    first, last = rows * width + starts, rows * width + stops
    # run q's neighbours in the row above it are runs lo[q] to hi[q] - 1
    lo = np.searchsorted(last, first - width)
    hi = np.searchsorted(first, last - width, side="right")
    if (hi[1:] > lo[1:]).all():
        # each run but the first joins one in the row above: one component
        return np.ones(n, dtype=bool)
    parent = _roots(np.where(hi > lo, lo, np.arange(n)))
    extra = np.maximum(hi - lo - 1, 0)
    if extra.any():
        # runs lo[q] + 1 to hi[q] - 1 merge their trees with run q's: union
        # each distinct pair of roots, linking the later root to the earlier
        ends = np.cumsum(extra)
        ps = np.arange(ends[-1]) + np.repeat(lo + 1 - (ends - extra), extra)
        pairs = np.unique(np.repeat(parent, extra) * n + parent[ps])
        link = list(range(n))
        for a, b in zip((pairs // n).tolist(), (pairs % n).tolist()):
            while link[a] != a:
                link[a] = link[link[a]]
                a = link[a]
            while link[b] != b:
                link[b] = link[link[b]]
                b = link[b]
            if a != b:
                link[max(a, b)] = min(a, b)
        parent = _roots(np.array(link))[parent]
    return parent == int(np.argmax(np.bincount(parent, weights=stops - starts)))


def _run_moments(rows: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> tuple[int, ...]:
    """Exact (n, Σx, Σy, Σx², Σy², Σxy) of the pixels of the runs, from the
    sums of x and of x² over [0, k), k(k-1)/2 and (k-1)k(2k-1)/6."""
    lengths = stops - starts
    sum_x = stops * (stops - 1) // 2 - starts * (starts - 1) // 2
    sum_xx = (stops - 1) * stops * (2 * stops - 1) // 6
    sum_xx -= (starts - 1) * starts * (2 * starts - 1) // 6
    sums = (lengths, sum_x, rows * lengths, sum_xx, rows * rows * lengths, rows * sum_x)
    return tuple(int(v.sum()) for v in sums)


def _principal_direction(moments: tuple[int, ...]) -> np.ndarray:
    """Unit principal direction of n integer pixel coordinates, from their
    exact moments (n, Σx, Σy, Σx², Σy², Σxy).

    Each covariance entry, n²·cov as an exact Python integer divided by n²,
    is rounded once. The direction is the eigenvector of the larger
    eigenvalue of [[a, c], [c, b]], taken from whichever of the two closed
    forms involves no cancellation. An isotropic region (a == b, c == 0)
    has no principal direction; it gets (1, 0).
    """
    n, sum_x, sum_y, sum_xx, sum_yy, sum_xy = moments
    a = (n * sum_xx - sum_x * sum_x) / (n * n)
    b = (n * sum_yy - sum_y * sum_y) / (n * n)
    c = (n * sum_xy - sum_x * sum_y) / (n * n)
    half = (a - b) / 2
    radius = math.sqrt(half * half + c * c)
    if radius == 0:
        return np.array([1.0, 0.0])
    # (half + radius, c) and (c, radius - half) both solve the eigen-equation
    u, v = (half + radius, c) if half >= 0 else (c, radius - half)
    norm = math.sqrt(u * u + v * v)
    u, v = u / norm, v / norm
    # canonical sign: positive y, so reruns agree bit-for-bit; y is 0 only
    # in the first form with c == 0, whose x is positive
    if v < 0:
        u, v = -u, -v
    return np.array([u, v])


def _chords_mm(
    mask: SegmentationMask,
    target_label: int,
    points: np.ndarray,
    perp: np.ndarray,
) -> list[float]:
    """Chord length through each of the (k, 2) finite ``points`` along ``perp``.

    Each chord is its hit count on the ray ``point + s * perp`` for integer
    ``s`` in [-max_steps, max_steps], rounded to pixels by floor(x + 0.5),
    times the physical step size. Only the steps whose samples can land in
    the target's bounding box are sampled, and each sample reads the
    target's ``label_crop`` with its indices clipped onto the crop's False
    border, so a sample off the box reads False.
    """
    sx, sy = mask.pixel_spacing_mm
    px, py = perp.tolist()
    step_mm = math.hypot(px * sx, py * sy)
    crop = mask.label_crop(target_label)
    if crop is None:
        return [0.0] * len(points)
    rows, cols = mask.label_box(target_label)
    max_steps = int(math.ceil(math.hypot(*mask.labels.shape))) + 1
    lo, hi = -max_steps, max_steps
    (x_min, y_min), (x_max, y_max) = points.min(axis=0).tolist(), points.max(axis=0).tolist()
    for c, p_min, p_max, first, stop in (
        (px, x_min, x_max, cols.start, cols.stop),
        (py, y_min, y_max, rows.start, rows.stop),
    ):
        if c == 0:
            continue
        # floor(v + 0.5) lies in [first, stop) iff v lies in [first - 0.5,
        # stop - 0.5); a margin of one more pixel absorbs rounding. Rounding
        # is monotone, so the extreme points bound every point's window; a
        # bound past the window (even an infinite one) empties it.
        ends = [(a - p) / c for a in (first - 1.5, stop + 0.5) for p in (p_min, p_max)]
        lo = math.floor(min(max(min(ends), lo), hi + 1))
        hi = math.ceil(max(min(max(ends), hi), lo - 1))
    s = np.arange(lo, hi + 1)
    xs = np.floor(points[:, :1] + s * px + 0.5)
    ys = np.floor(points[:, 1:] + s * py + 0.5)
    # each sample's crop pixel, clipped onto the border, as a flat index
    height, width = crop.shape
    xs -= cols.start - 1
    ys -= rows.start - 1
    xs.clip(0, width - 1, out=xs)
    ys.clip(0, height - 1, out=ys)
    ys *= width
    ys += xs
    hits = crop.reshape(-1)[ys.astype(np.intp)].sum(axis=1)
    return [h * step_mm for h in hits.tolist()]


# probe positions along the axis, as fractions of its length: only the
# probe disks nearest each end are read
_NEAR = math.ceil(N_PROBE_DISKS * 0.1)
_PROBE_T = (np.r_[:_NEAR, N_PROBE_DISKS - _NEAR:N_PROBE_DISKS] + 0.5) / N_PROBE_DISKS


def long_axis(mask: SegmentationMask, target_label: int) -> LongAxis:
    """Principal axis of the target region, oriented apex first.

    The apex is the endpoint on the narrower side of the region, judged by
    the mean chord over the 10% of the ``N_PROBE_DISKS`` probe disks nearest
    each endpoint; a width tie within 1e-6 falls back to the endpoint with
    the smaller y.
    """
    count = mask.pixel_count(target_label)
    if count < MIN_REGION_PIXELS:
        raise GeometryError(
            f"label {target_label} region has {count} px, "
            f"need at least {MIN_REGION_PIXELS} for a reliable axis"
        )
    box = mask.label_box(target_label)
    rows, starts, stops = _row_runs(mask.label_crop(target_label))
    keep = _largest_component(rows, starts, stops)
    rows = rows[keep] + box[0].start
    starts = starts[keep] + box[1].start
    stops = stops[keep] + box[1].start
    n, sum_x, sum_y, *_ = moments = _run_moments(rows, starts, stops)
    # the exact sums over n give the float mean's bits while they stay below
    # 2**53 (any canvas up to 2**17 px a side)
    centroid = np.array([sum_x / n, sum_y / n])
    direction = _principal_direction(moments)
    # a run's extreme projections are at its end pixels
    xs = np.concatenate((starts, stops - 1))
    ys = np.concatenate((rows, rows))
    projections = (xs - centroid[0]) * direction[0] + (ys - centroid[1]) * direction[1]
    lo = centroid + direction * float(projections.min())
    hi = centroid + direction * float(projections.max())

    sx, sy = mask.pixel_spacing_mm
    (lo_x, lo_y), (hi_x, hi_y) = lo.tolist(), hi.tolist()
    length_mm = math.hypot((hi_x - lo_x) * sx, (hi_y - lo_y) * sy)
    if length_mm <= 0:
        raise GeometryError("degenerate region: zero-length principal axis")

    perp = np.array([-direction[1], direction[0]])
    widths = _chords_mm(mask, target_label, lo + (hi - lo) * _PROBE_T[:, None], perp)
    width_lo = sum(widths[:_NEAR]) / _NEAR
    width_hi = sum(widths[_NEAR:]) / _NEAR

    lo_first = lo_y <= hi_y if abs(width_lo - width_hi) <= 1e-6 else width_lo < width_hi
    ends = ((lo_x, lo_y), (hi_x, hi_y)) if lo_first else ((hi_x, hi_y), (lo_x, lo_y))
    return LongAxis(*ends, length_mm=length_mm)


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
    (apex_x, apex_y), (base_x, base_y) = axis.apex, axis.base_mid
    dx, dy = base_x - apex_x, base_y - apex_y
    norm = math.hypot(dx, dy)
    if norm == 0:
        raise GeometryError("axis endpoints coincide")
    if norm == math.inf:
        raise GeometryError("axis span overflows")
    perp = np.array([-(dy / norm), dx / norm])
    t = (np.arange(n_disks) + 0.5) / n_disks
    points = np.array(axis.apex, dtype=np.float64) + np.array([dx, dy]) * t[:, None]
    return _chords_mm(mask, target_label, points, perp)
