"""Threshold rules read from diagnostic-criteria prose, one per sentence that
names a metric and a comparator; ``RepositoryEntry.rules`` holds an entry's."""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass

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

_NUMBER = r"(\d+(?:\.\d+)?)"

# comparator phrase -> operator(s); checked in order, first hit wins
_COMPARATOR_PATTERNS: tuple[tuple[str, tuple[str, ...]], ...] = (
    (rf"between\s+{_NUMBER}\s*%?\s+and\s+{_NUMBER}", (">=", "<")),
    (rf"{_NUMBER}\s*(?:%|mm2|mm²|ml|mm)?\s+or\s+(?:higher|greater|above|more)", (">=",)),
    (rf"{_NUMBER}\s*(?:%|mm2|mm²|ml|mm)?\s+or\s+(?:lower|less|below)", ("<=",)),
    (rf"at\s+least\s+{_NUMBER}", (">=",)),
    (rf"at\s+most\s+{_NUMBER}", ("<=",)),
    (rf"(?:below|under|less\s+than)\s+{_NUMBER}", ("<",)),
    (rf"(?:above|over|greater\s+than|more\s+than|exceed(?:s|ing)?)\s+{_NUMBER}", (">",)),
)

_METRIC_PATTERNS: tuple[tuple[str, str], ...] = (
    (r"\bejection fraction\b|\bef\b", "ef_percent"),
    (r"\barea\b", "area_mm2"),
    (r"\bvolume\b", "volume_ml"),
    (r"\bdiameter\b|\bdimension\b", "dimension_mm"),
)

_OPERATORS = {">=": operator.ge, ">": operator.gt, "<": operator.lt, "<=": operator.le}
_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")
_INDICATES_RE = re.compile(r"indicates?\s+(?:an?\s+)?(.+?)\s*$")


@dataclass(frozen=True)
class ThresholdRule:
    metric: str
    conditions: tuple[tuple[str, float], ...]
    label: str
    source_text: str

    def satisfied(self, value: float) -> bool:
        return all(_OPERATORS[op](value, threshold) for op, threshold in self.conditions)

    def describe(self) -> str:
        """``metric op value [and op value] -> label``."""
        conditions = " and ".join(f"{op} {value:g}" for op, value in self.conditions)
        return f"{self.metric} {conditions} -> {self.label}"


def grade_ef(ef_percent: float, rules: tuple[ThresholdRule, ...]) -> str:
    """The label of the one ``ef_percent`` rule the value satisfies: a run's
    grade cut-offs are the guideline's."""
    met = [r.label for r in rules if r.metric == "ef_percent" and r.satisfied(ef_percent)]
    if len(met) != 1:
        raise DomainError(f"ejection fraction {ef_percent:g}% satisfies {len(met)} of the "
                          f"entry's ef_percent rules; a grade needs exactly one")
    return met[0]


def normalize_grade_label(text: str) -> str | None:
    """Map a free-text label onto a canonical grade name, if it names one."""
    lowered = text.strip().lower()
    # longest synonyms first so "mildly reduced" is not swallowed by "normal"
    for grade in (CONSIDERABLY_REDUCED, MILDLY_REDUCED, NORMAL):
        if any(syn in lowered for syn in GRADE_SYNONYMS[grade]):
            return grade
    return None


def criteria_sentences(items: list[str]) -> list[str]:
    """The non-empty sentences of the items, stripped, in order."""
    return [s.strip() for item in items for s in _SENTENCE_RE.split(item) if s.strip()]


def parse_criteria(items: list[str]) -> tuple[ThresholdRule, ...]:
    """Extract (metric, comparator, threshold, label) rules from prose.

    Works sentence by sentence; the hypothesis label is the phrase after
    "indicates", normalized onto a canonical grade name when it names one.
    """
    rules: list[ThresholdRule] = []
    for sentence in criteria_sentences(items):
        lowered = sentence.lower()
        metric = None
        for pattern, name in _METRIC_PATTERNS:
            if re.search(pattern, lowered):
                metric = name
                break
        if metric is None:
            continue
        conditions: tuple[tuple[str, float], ...] | None = None
        for pattern, ops in _COMPARATOR_PATTERNS:
            match = re.search(pattern, lowered)
            if match:
                values = [float(g) for g in match.groups()]
                conditions = tuple(zip(ops, values))
                break
        if conditions is None:
            continue
        label_match = _INDICATES_RE.search(sentence.rstrip(". "))
        label = label_match.group(1).strip() if label_match else sentence
        canonical = normalize_grade_label(label)
        rules.append(
            ThresholdRule(
                metric=metric,
                conditions=conditions,
                label=canonical or label,
                source_text=sentence,
            )
        )
    return tuple(rules)
