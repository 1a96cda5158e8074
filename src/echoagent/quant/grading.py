"""The fixed EF cut-offs that define dataset truth; a run grades against its
knowledge entry's ``ef_percent`` rules instead (``kb.criteria.grade_ef``)."""
from __future__ import annotations

import math

from ..errors import DomainError
from ..kb.criteria import CONSIDERABLY_REDUCED, MILDLY_REDUCED, NORMAL


def grade_ef(ef_percent: float) -> str:
    """Boundaries are inclusive exactly as written: >=50 Normal,
    40 <= EF < 50 mildly reduced, < 40 considerably reduced."""
    if isinstance(ef_percent, bool) or not isinstance(ef_percent, (int, float)):
        raise DomainError(f"ef_percent must be a real number, got {ef_percent!r}")
    if not math.isfinite(ef_percent):
        raise DomainError(f"ef_percent must be finite, got {ef_percent}")
    if ef_percent >= 50.0:
        return NORMAL
    if ef_percent >= 40.0:
        return MILDLY_REDUCED
    return CONSIDERABLY_REDUCED
