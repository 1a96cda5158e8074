"""Result types for the quantification layer."""
from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import DomainError

MEASUREMENT_KINDS = ("area_mm2", "volume_ml", "ef_percent", "dimension_mm")

ANOMALOUS = "anomalous"
EMPTY_STRUCTURE = "empty_structure"


@dataclass(frozen=True)
class MeasurementResult:
    kind: str
    value: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in MEASUREMENT_KINDS:
            raise DomainError(f"unknown measurement kind {self.kind!r}")
        if self.kind in ("volume_ml", "area_mm2", "dimension_mm") and self.value < 0:
            raise DomainError(f"{self.kind} cannot be negative: {self.value}")
        if self.kind == "ef_percent":
            if not -100.0 <= self.value <= 100.0:
                raise DomainError(f"ef_percent {self.value} outside [-100, 100]")
            if self.value < 0 and ANOMALOUS not in self.flags:
                raise DomainError("negative ejection fraction must carry the anomalous flag")

    @property
    def anomalous(self) -> bool:
        return ANOMALOUS in self.flags


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
        if not self.length_mm > 0 or not math.isfinite(self.length_mm):
            raise DomainError(f"axis length must be positive, got {self.length_mm}")
