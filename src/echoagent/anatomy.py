"""The fixed 14-group cardiac anatomy taxonomy and its keyword matcher.

Every knowledge primitive is tagged with the anatomy groups whose keywords
occur in its text (case-insensitive substring match), optionally unioned
with explicit sidecar tags. Keywords are chosen to be unambiguous as
substrings; two-letter abbreviations are deliberately avoided ("lv" occurs
inside "valve"). The matcher reads the ``(keyword, group)`` rows grouped
under a few shared stems (``STEM_TABLE``): every keyword holds exactly one
stem, so a text that lacks a stem lacks every keyword under it, and the scan
tests each stem once and only the keywords under the stems it finds.
``keywords_in`` narrows a stem table to what a text holds, so a document's
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

# lowercase substrings shared by the keywords; each keyword holds exactly one
KEYWORD_STEMS: tuple[str, ...] = (
    "ventric", "atri", "aort", "pulmon", "pericardi", "vena cava", "lvef", "mitral", "tricuspid",
)

assert len(_BY_NAME) == 14, "taxonomy must contain exactly 14 uniquely named groups"


# (stem, the (keyword, group) rows whose keyword holds it) pairs
StemTable = tuple[tuple[str, tuple[tuple[str, str], ...]], ...]


def stem_table(table: tuple[tuple[str, str], ...]) -> StemTable:
    """The rows of ``table`` grouped under the one stem each keyword holds,
    in stem order; a keyword that holds no stem, or several, is refused."""
    for keyword, _ in table:
        held = [stem for stem in KEYWORD_STEMS if stem in keyword]
        if len(held) != 1:
            raise ValueError(f"keyword {keyword!r} holds {len(held)} of the stems "
                             f"{KEYWORD_STEMS}; it needs exactly one")
    return tuple((stem, tuple(row for row in table if stem in row[0])) for stem in KEYWORD_STEMS)


STEM_TABLE = stem_table(KEYWORD_TABLE)


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


def keywords_in(text: str, table: StemTable = STEM_TABLE) -> StemTable:
    """The stem table ``table`` narrowed to the rows whose keyword occurs in
    the lowercased text; a stem the text lacks is tested alone."""
    lowered = text.lower()
    narrowed = ((stem, tuple(row for row in rows if row[0] in lowered))
                for stem, rows in table if stem in lowered)
    return tuple((stem, rows) for stem, rows in narrowed if rows)


def match_text(text: str) -> frozenset[str]:
    """Anatomy group names whose keywords occur anywhere in the text."""
    return frozenset(group for _, rows in keywords_in(text) for _, group in rows)


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
