"""The fixed 14-group cardiac anatomy taxonomy and its keyword matcher.

Every knowledge primitive is tagged with the anatomy groups whose keywords
occur in its text (case-insensitive substring match), optionally unioned
with explicit sidecar tags. Keywords are chosen to be unambiguous as
substrings; two-letter abbreviations are deliberately avoided ("lv" occurs
inside "valve"). The matcher reads one flat ``(keyword, group)`` table;
``keywords_in`` narrows a table to the rows a text holds, so a document's
chunks are tested only against the keywords of the document.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AnatomyGroup:
    canonical_name: str
    keywords: tuple[str, ...]

    def __post_init__(self):
        if not self.keywords:
            raise ValueError(f"anatomy group {self.canonical_name!r} has no keywords")


ANATOMY_GROUPS: tuple[AnatomyGroup, ...] = (
    AnatomyGroup("left ventricle", ("left ventricle", "left ventricular", "lvef")),
    AnatomyGroup("right ventricle", ("right ventricle", "right ventricular")),
    AnatomyGroup("left atrium", ("left atrium", "left atrial")),
    AnatomyGroup("right atrium", ("right atrium", "right atrial")),
    AnatomyGroup("mitral valve", ("mitral",)),
    AnatomyGroup("aortic valve", ("aortic valve", "aortic stenosis", "aortic regurgitation")),
    AnatomyGroup("tricuspid valve", ("tricuspid",)),
    AnatomyGroup("pulmonic valve", ("pulmonic valve", "pulmonary valve")),
    AnatomyGroup("pericardium", ("pericardium", "pericardial")),
    AnatomyGroup("aorta", ("aorta", "aortic root", "aortic arch", "ascending aorta")),
    AnatomyGroup("pulmonary artery", ("pulmonary artery", "pulmonary arterial", "pulmonary trunk")),
    AnatomyGroup("interatrial septum", ("interatrial septum", "atrial septal")),
    AnatomyGroup("interventricular septum", ("interventricular septum", "ventricular septal")),
    AnatomyGroup("inferior vena cava", ("inferior vena cava", "vena cava")),
)

ANATOMY_NAMES: tuple[str, ...] = tuple(g.canonical_name for g in ANATOMY_GROUPS)
ANATOMY_NAME_SET: frozenset[str] = frozenset(ANATOMY_NAMES)

_BY_NAME = {g.canonical_name: g for g in ANATOMY_GROUPS}

# every (keyword, group name) pair, in taxonomy order
KEYWORD_TABLE: tuple[tuple[str, str], ...] = tuple(
    (kw, g.canonical_name) for g in ANATOMY_GROUPS for kw in g.keywords
)

assert len(_BY_NAME) == 14, "taxonomy must contain exactly 14 uniquely named groups"


def group_by_name(name: str) -> AnatomyGroup:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown anatomy group: {name!r}") from None


def is_valid_group(name: str) -> bool:
    return name in _BY_NAME


def keyword_hits(group: AnatomyGroup, text: str) -> int:
    """Total occurrence count of the group's keywords in lowercased text."""
    lowered = text.lower()
    return sum(lowered.count(kw) for kw in group.keywords)


def keywords_in(
    text: str, table: tuple[tuple[str, str], ...] = KEYWORD_TABLE
) -> tuple[tuple[str, str], ...]:
    """The rows of ``table`` whose keyword occurs in the lowercased text."""
    lowered = text.lower()
    return tuple(row for row in table if row[0] in lowered)


def match_text(text: str) -> frozenset[str]:
    """Anatomy group names whose keywords occur anywhere in the text."""
    return frozenset(group for _, group in keywords_in(text))


def dominant_group(text: str, candidates: frozenset[str]) -> str | None:
    """Pick the candidate group with the most keyword hits in the text.

    Ties (including the all-zero case with non-empty candidates) break by
    ascending canonical name, keeping resolution deterministic.
    """
    if not candidates:
        return None
    ranked = sorted(
        candidates,
        key=lambda name: (-keyword_hits(group_by_name(name), text), name),
    )
    return ranked[0]
