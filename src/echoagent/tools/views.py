"""View taxonomy loading and free-text view recognition."""
from __future__ import annotations

import warnings
from pathlib import Path

from ..errors import TaxonomyError

MAX_TAXONOMY_SIZE = 48

A2C = "apical-2-chamber"
A4C = "apical-4-chamber"
PLAX = "parasternal-long-axis"

# Guaranteed defaults; the remainder of the 48-slot taxonomy ships as
# numbered placeholders until a site supplies its own file.
DEFAULT_TAXONOMY: tuple[str, ...] = (A2C, A4C, PLAX) + tuple(
    f"view-{i:02d}" for i in range(4, MAX_TAXONOMY_SIZE + 1)
)

# Textual aliases for planning over guideline prose.
VIEW_ALIASES: dict[str, tuple[str, ...]] = {
    A2C: ("apical-2-chamber", "apical 2-chamber", "apical two-chamber",
          "apical two chamber", "apical 2 chamber", "a2c"),
    A4C: ("apical-4-chamber", "apical 4-chamber", "apical four-chamber",
          "apical four chamber", "apical 4 chamber", "a4c"),
    PLAX: ("parasternal-long-axis", "parasternal long-axis",
           "parasternal long axis", "plax"),
}

# Biplane volumes pair these two views; re-measurement swaps between them.
ALTERNATE_VIEW = {A2C: A4C, A4C: A2C}


def load_taxonomy(path: str | Path | None = None) -> tuple[str, ...]:
    if path is None:
        return DEFAULT_TAXONOMY
    names: list[str] = []
    seen = set()
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TaxonomyError(
            f"taxonomy file {path}: undecodable byte at offset {exc.start}"
        ) from exc
    for line in text.splitlines():
        name = line.strip()
        if not name or name in seen:
            continue
        names.append(name)
        seen.add(name)
    if not names:
        raise TaxonomyError(f"taxonomy file {path} contains no view names")
    if len(names) > MAX_TAXONOMY_SIZE:
        warnings.warn(
            f"taxonomy has {len(names)} views, more than the expected {MAX_TAXONOMY_SIZE}",
            stacklevel=2,
        )
    return tuple(names)


def find_views_in_text(text: str, taxonomy: tuple[str, ...]) -> list[str]:
    """Canonical view names mentioned in the text, in first-mention order."""
    lowered = text.lower()
    mentions: list[tuple[int, str]] = []
    for canonical, aliases in VIEW_ALIASES.items():
        if canonical not in taxonomy:
            continue
        positions = [lowered.find(a) for a in aliases if a in lowered]
        if positions:
            mentions.append((min(p for p in positions if p >= 0), canonical))
    # taxonomy names beyond the aliased trio still match verbatim
    for canonical in taxonomy:
        if canonical in VIEW_ALIASES:
            continue
        pos = lowered.find(canonical.lower())
        if pos >= 0:
            mentions.append((pos, canonical))
    mentions.sort()
    ordered: list[str] = []
    for _, name in mentions:
        if name not in ordered:
            ordered.append(name)
    return ordered
