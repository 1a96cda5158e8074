"""Per-anatomy structured repository entries.

An entry condenses the top-k primitives for one anatomy into four fixed
sections. When a summarization backend is configured it does the mapping;
otherwise (or whenever the backend misbehaves) a deterministic template
fallback buckets each primitive verbatim by keyword rules.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .. import anatomy
from ..config import EngineConfig
from ..errors import ContractError, TransportError
from ..wire import JsonEndpoint
from .criteria import ThresholdRule, parse_criteria

SECTION_NAMES = (
    "views_to_acquire",
    "structures_to_segment",
    "measurements",
    "diagnostic_criteria",
)

NO_GUIDANCE = "no guidance found"

_VIEW_WORDS = (
    "apical", "parasternal", "subcostal", "suprasternal", "short-axis",
    "long-axis", "view",
)
_SEGMENT_WORDS = ("segment", "delineat", "contour", "trace the")
_MEASURE_WORDS = (
    "measure", "calculat", "quantif", " mm", " ml", " cm", "volume", "area",
    "diameter", "dimension", "fraction",
)
_COMPARATOR_WORDS = (
    "below", "above", "greater than", "less than", "more than", "at least",
    "at most", "or higher", "or lower", "or above", "or below", "between",
    "exceed", ">", "<", "≥", "≤",
)


@dataclass
class RepositoryEntry:
    anatomy: str
    sections: dict[str, list[str]]
    supporting_primitive_ids: list[str]
    created_from_k: int
    degraded: bool = False

    def __post_init__(self):
        missing = [name for name in SECTION_NAMES if name not in self.sections]
        if missing:
            raise ValueError(f"entry for {self.anatomy!r} missing sections: {missing}")
        for name in SECTION_NAMES:
            if not self.sections[name]:
                self.sections[name] = [NO_GUIDANCE]

    def section_items(self, name: str) -> list[str]:
        """Items of one section, with the no-guidance marker filtered out."""
        return [item for item in self.sections[name] if item != NO_GUIDANCE]

    @cached_property
    def rules(self) -> tuple[ThresholdRule, ...]:
        """The criteria's threshold rules, parsed on first use and then kept."""
        return parse_criteria(self.section_items("diagnostic_criteria"))

    def to_json(self) -> dict:
        return {
            "anatomy": self.anatomy,
            "sections": {name: list(self.sections[name]) for name in SECTION_NAMES},
            "supporting_primitive_ids": list(self.supporting_primitive_ids),
            "created_from_k": self.created_from_k,
            "degraded": self.degraded,
        }

    @classmethod
    def from_json(cls, raw: dict) -> "RepositoryEntry":
        return cls(
            anatomy=raw["anatomy"],
            sections={name: list(raw["sections"][name]) for name in SECTION_NAMES},
            supporting_primitive_ids=list(raw["supporting_primitive_ids"]),
            created_from_k=int(raw["created_from_k"]),
            degraded=bool(raw.get("degraded", False)),
        )


def empty_entry(anatomy_name: str, k: int) -> RepositoryEntry:
    """The entry of an anatomy the knowledge base knows nothing about."""
    return RepositoryEntry(
        anatomy=anatomy_name,
        sections={name: [NO_GUIDANCE] for name in SECTION_NAMES},
        supporting_primitive_ids=[],
        created_from_k=k,
    )


def template_sections(texts: list[str]) -> dict[str, list[str]]:
    """Bucket each primitive text verbatim into sections by keyword rules.

    A text may land in several sections; a section with no matching text is
    marked with the no-guidance item.
    """
    sections: dict[str, list[str]] = {name: [] for name in SECTION_NAMES}
    for text in texts:
        lowered = text.lower()
        if any(w in lowered for w in _VIEW_WORDS):
            sections["views_to_acquire"].append(text)
        if any(w in lowered for w in _SEGMENT_WORDS):
            sections["structures_to_segment"].append(text)
        if any(w in lowered for w in _MEASURE_WORDS):
            sections["measurements"].append(text)
        if any(w in lowered for w in _COMPARATOR_WORDS):
            sections["diagnostic_criteria"].append(text)
    for name in SECTION_NAMES:
        if not sections[name]:
            sections[name] = [NO_GUIDANCE]
    return sections


class HttpSummarizer:
    """Remote summarizer: POST {url}/summarize {"anatomy":..., "texts":[...]}.

    The response must be an object with exactly the four section keys, each
    a list of strings; anything else is a contract violation.
    """

    def __init__(self, config: EngineConfig):
        self.url = config.summarizer_url.rstrip("/")
        self._post = JsonEndpoint(
            f"{self.url}/summarize", f"summarizer backend {self.url}", config
        ).post

    def summarize(self, anatomy_name: str, texts: list[str]) -> dict[str, list[str]]:
        payload, _ = self._post({"anatomy": anatomy_name, "texts": list(texts)})
        if not isinstance(payload, dict) or set(payload) != set(SECTION_NAMES):
            raise ContractError(
                f"summarizer backend returned malformed sections: {sorted(payload) if isinstance(payload, dict) else type(payload).__name__}"
            )
        sections = {}
        for name in SECTION_NAMES:
            items = payload[name]
            if not isinstance(items, list) or not all(isinstance(i, str) for i in items):
                raise ContractError(f"summarizer section {name!r} is not a list of strings")
            sections[name] = items or [NO_GUIDANCE]
        return sections


def anatomy_query(anatomy_name: str) -> str:
    """The text an anatomy's entry retrieves its primitives with."""
    group = anatomy.group_by_name(anatomy_name)
    return " ".join((group.canonical_name, *group.keywords))


def build_repository_entry(kb, anatomy_name: str, k: int, summarizer=None,
                           query_vec=None) -> RepositoryEntry:
    """Retrieve the anatomy's top-k primitives and condense them.

    ``query_vec``, when given, is the embedding of ``anatomy_query``.
    Backend failures of any kind degrade to the template path and mark the
    entry instead of failing the build.
    """
    if query_vec is None:
        query_vec = kb.encoder.embed(anatomy_query(anatomy_name))
    result = kb.retrieve_topk_vector(query_vec, anatomy_name=anatomy_name, k=k)
    if result.no_knowledge or not result.hits:
        return empty_entry(anatomy_name, k)
    supporting = result.ids()
    texts = [kb.primitives[pid].text for pid in supporting]
    degraded = False
    sections = None
    if summarizer is not None:
        try:
            sections = summarizer.summarize(anatomy_name, texts)
        except (ContractError, TransportError):
            degraded = True
            sections = None
    if sections is None:
        sections = template_sections(texts)
    return RepositoryEntry(
        anatomy=anatomy_name,
        sections=sections,
        supporting_primitive_ids=supporting,
        created_from_k=k,
        degraded=degraded,
    )


def build_all_entries(kb, k: int, summarizer=None) -> None:
    # one batch: each embed call pays the batch's fixed numpy calls
    queries = kb.encoder.embed_batch([anatomy_query(name) for name in anatomy.ANATOMY_NAMES])
    for name, query_vec in zip(anatomy.ANATOMY_NAMES, queries):
        kb.entries[name] = build_repository_entry(kb, name, k, summarizer, query_vec)
