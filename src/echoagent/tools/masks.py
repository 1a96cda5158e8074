"""Segmentation mask payload shared by the tool layer and quantification."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractError


def valid_spacing(sx: float, sy: float) -> bool:
    """Each spacing and the pixel footprint ``sx * sy`` are finite and > 0,
    so no footprint underflows and only an empty region has area 0.0."""
    return all(math.isfinite(v) and v > 0 for v in (sx, sy, sx * sy))


@dataclass
class SegmentationMask:
    """8-bit label image: 0 = background, nonzero = structure labels.

    Every nonzero label present in the pixel data must be named in
    structure_map, and pixel spacing must pass ``valid_spacing``. The label
    check counts the pixels equal to 0 and to each mapped label in 0-255;
    the mask is valid iff those disjoint counts cover every pixel. Only an
    invalid mask pays for a full ``np.unique`` scan, to name its strays.
    A valid mask keeps those counts for ``pixel_count``, each label's bounding
    box once ``label_box`` has found it, and a read-only view of its labels,
    so neither can go stale; a caller who keeps writing to the array it
    passed in must pass a copy.
    """

    labels: np.ndarray = field(repr=False)
    pixel_spacing_mm: tuple[float, float]
    structure_map: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint8).view()
        self.labels.flags.writeable = False
        if self.labels.ndim != 2:
            raise ContractError("mask labels must be a 2-D array")
        sx, sy = self.pixel_spacing_mm
        if not valid_spacing(sx, sy):
            raise ContractError(f"pixel spacing must be positive and finite, got {(sx, sy)}")
        # range membership also drops non-integer keys, which numpy could broadcast
        counted = {0} | {v for v in self.structure_map if v in range(256)}
        self._counts = {v: np.count_nonzero(self.labels == v) for v in counted}
        self._boxes: dict[int, tuple[slice, slice] | None] = {}
        if sum(self._counts.values()) != self.labels.size:
            present = set(int(v) for v in np.unique(self.labels)) - {0}
            unmapped = sorted(present - set(self.structure_map))
            raise ContractError(f"mask labels {unmapped} missing from structure_map")

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    def label_for(self, structure: str) -> int | None:
        for label, name in sorted(self.structure_map.items()):
            if name == structure:
                return label
        return None

    def pixel_count(self, label: int) -> int:
        """Pixels equal to ``label``, from the validation counts: a valid mask
        has no pixel outside them, and equal numbers hash alike."""
        return int(self._counts.get(label, 0))

    def label_box(self, label: int) -> tuple[slice, slice] | None:
        """(rows, cols) half-open bounding box of the pixels equal to
        ``label``, or None when there are none; found once per label."""
        if label not in self._boxes:
            box = None
            if self.pixel_count(label):
                binary = self.labels == label
                rows = np.flatnonzero(binary.any(axis=1))
                cols = np.flatnonzero(binary.any(axis=0))
                box = slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)
            self._boxes[label] = box
        return self._boxes[label]
