"""Ejection-fraction grading against the fixed clinical cut-offs."""
from __future__ import annotations

import math

from ..errors import DomainError

NORMAL = "Normal"
MILDLY_REDUCED = "MildlyReduced"
CONSIDERABLY_REDUCED = "ConsiderablyReduced"

# Severity order, most function preserved first.
GRADES = (NORMAL, MILDLY_REDUCED, CONSIDERABLY_REDUCED)

# Human-readable variants accepted when matching criteria text or options.
GRADE_SYNONYMS = {
    NORMAL: ("normal",),
    MILDLY_REDUCED: ("mildlyreduced", "mildly reduced", "mild reduction"),
    CONSIDERABLY_REDUCED: (
        "considerablyreduced", "considerably reduced", "severely reduced",
        "considerable reduction",
    ),
}


def grade_ef(ef_percent: float) -> str:
    """Boundaries are inclusive exactly as written: >=50 Normal,
    40 <= EF < 50 mildly reduced, < 40 considerably reduced."""
    if isinstance(ef_percent, bool) or not isinstance(ef_percent, (int, float)):
        raise DomainError(f"ef_percent must be a real number, got {ef_percent!r}")
    if math.isnan(ef_percent) or math.isinf(ef_percent):
        raise DomainError(f"ef_percent must be finite, got {ef_percent}")
    if ef_percent >= 50.0:
        return NORMAL
    if ef_percent >= 40.0:
        return MILDLY_REDUCED
    return CONSIDERABLY_REDUCED


def normalize_grade_label(text: str) -> str | None:
    """Map a free-text label onto a canonical grade name, if it names one."""
    lowered = text.strip().lower()
    # longest synonyms first so "mildly reduced" is not swallowed by "normal"
    for grade in (CONSIDERABLY_REDUCED, MILDLY_REDUCED, NORMAL):
        if any(syn in lowered for syn in GRADE_SYNONYMS[grade]):
            return grade
    return None
