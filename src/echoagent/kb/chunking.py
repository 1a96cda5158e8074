"""Corpus ingestion: documents in, anatomy-tagged knowledge primitives out.

Chunking policy: split at blank-line paragraph boundaries, then greedily
merge adjacent paragraphs while the merged text stays within
``max_chunk_chars``. A single paragraph longer than the limit is split at
sentence boundaries (hard character split only as a last resort), so the
length invariant holds unconditionally.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .. import anatomy
from ..errors import IngestError

_PARAGRAPH_RE = re.compile(r"\n\s*\n")
_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")


@dataclass(frozen=True)
class SourceSpan:
    doc: str
    start: int
    end: int


@dataclass
class KnowledgePrimitive:
    id: str
    text: str
    source: SourceSpan
    anatomy_tags: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.text:
            raise ValueError(f"primitive {self.id} has empty text")
        if not self.anatomy_tags <= anatomy.ANATOMY_NAME_SET:
            bad = sorted(self.anatomy_tags - anatomy.ANATOMY_NAME_SET)
            raise ValueError(f"primitive {self.id} carries unknown anatomy tags: {bad}")


def _paragraph_spans(text: str) -> list[tuple[int, int]]:
    spans = []
    cursor = 0
    for match in _PARAGRAPH_RE.finditer(text):
        spans.append((cursor, match.start()))
        cursor = match.end()
    spans.append((cursor, len(text)))
    return [(s, e) for s, e in spans if text[s:e].strip()]


def _split_oversize(text: str, start: int, limit: int) -> list[tuple[int, int]]:
    """Spans of an over-long paragraph, each at most ``limit`` chars."""
    pieces: list[tuple[int, int]] = []
    cursor = 0
    for sentence in _SENTENCE_RE.split(text):
        begin = text.index(sentence, cursor)
        end = begin + len(sentence)
        cursor = end
        while len(sentence) > limit:  # pathological single sentence
            pieces.append((start + begin, start + begin + limit))
            begin += limit
            sentence = text[begin:end]
        if sentence:
            pieces.append((start + begin, start + end))
    # greedy re-merge of sentence pieces up to the limit
    merged: list[tuple[int, int]] = []
    for s, e in pieces:
        if merged and (e - merged[-1][0]) <= limit:
            merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    return merged


def ingest_document(
    doc_text: str,
    source_id: str,
    explicit_tags: frozenset[str] | set[str] | None = None,
    max_chunk_chars: int = 800,
) -> list[KnowledgePrimitive]:
    """Decompose one document into unembedded primitives.

    Empty input yields an empty list. Ids are ``source_id#ordinal`` and are
    stable for a given document and chunking config.
    """
    if not doc_text.strip():
        return []
    explicit = frozenset(explicit_tags or ())
    for tag in sorted(explicit):
        if not anatomy.is_valid_group(tag):
            raise IngestError(f"{source_id}: unknown explicit anatomy tag {tag!r}")

    chunks: list[tuple[int, int]] = []
    for start, end in _paragraph_spans(doc_text):
        para_len = len(doc_text[start:end])
        if para_len > max_chunk_chars:
            chunks.extend(_split_oversize(doc_text[start:end], start, max_chunk_chars))
            continue
        if chunks:
            prev_start, prev_end = chunks[-1]
            if (end - prev_start) <= max_chunk_chars:
                chunks[-1] = (prev_start, end)
                continue
        chunks.append((start, end))

    # a chunk is a substring of the document, and lowercasing maps ASCII
    # letters one character at a time, so every keyword a chunk holds is one
    # the document holds
    present = anatomy.keywords_in(doc_text)
    primitives = []
    for start, end in chunks:
        text = doc_text[start:end].strip()
        if not text:  # a hard split can cut a paragraph's trailing whitespace off alone
            continue
        primitives.append(
            KnowledgePrimitive(
                id=f"{source_id}#{len(primitives)}",
                text=text,
                source=SourceSpan(doc=source_id, start=start, end=end),
                anatomy_tags=frozenset(g for _, g in anatomy.keywords_in(text, present))
                | explicit,
            )
        )
    return primitives


def _read_text(path: Path) -> str:
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path.name}: undecodable byte at offset {exc.start}") from exc


def load_corpus(
    corpus_dir: str | Path, max_chunk_chars: int = 800
) -> list[KnowledgePrimitive]:
    """Ingest every .txt/.md file under a directory, in sorted name order.

    A sidecar ``<stem>.tags`` file (anatomy names, one per line) supplies
    explicit tags for its document. Undecodable bytes in either fail loudly
    with the offending file and byte offset. The stem names a document's
    primitives, so two documents with one stem (``a.txt`` and ``a.md``) are
    refused.
    """
    root = Path(corpus_dir)
    if not root.is_dir():
        raise IngestError(f"corpus directory not found: {root}")
    paths = sorted(root.iterdir(), key=lambda p: p.name)
    names = {p.name for p in paths}
    by_stem: dict[str, str] = {}
    primitives: list[KnowledgePrimitive] = []
    for path in paths:
        if path.suffix.lower() not in (".txt", ".md"):
            continue
        if path.stem in by_stem:
            raise IngestError(
                f"{by_stem[path.stem]} and {path.name} share the stem {path.stem!r}, which "
                "names the primitives and the .tags file of each; rename one"
            )
        by_stem[path.stem] = path.name
        text = _read_text(path)
        explicit: set[str] = set()
        sidecar = path.with_suffix(".tags")
        if sidecar.name in names and sidecar.exists():  # a dangling link is no sidecar
            for line in _read_text(sidecar).splitlines():
                name = line.strip()
                if not name:
                    continue
                if not anatomy.is_valid_group(name):
                    raise IngestError(f"{sidecar.name}: unknown anatomy tag {name!r}")
                explicit.add(name)
        primitives.extend(
            ingest_document(text, path.stem, explicit, max_chunk_chars)
        )
    return primitives
