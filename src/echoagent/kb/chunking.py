"""Corpus ingestion: documents in, anatomy-tagged knowledge primitives out.

Chunking policy: split at blank-line paragraph boundaries, then greedily
merge adjacent paragraphs while the merged text stays within
``max_chunk_chars``. A single paragraph longer than the limit is split at
sentence boundaries, and a sentence longer than the limit at its last
whitespace within the limit, or at the whitespace before an anatomy keyword
that would straddle that cut (a hard character split only where a piece has
no whitespace), so the length invariant holds unconditionally.
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

from .. import anatomy
from ..errors import IngestError

_PARAGRAPH_RE = re.compile(r"\n\s*\n")
_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")
_LAST_SPACE_RE = re.compile(r".*\s", re.DOTALL)  # a match ends with the last whitespace
_LONGEST_KEYWORD = max(len(kw) for kw, _ in anatomy.KEYWORD_TABLE)


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
        while end - begin > limit:  # a sentence longer than the limit
            # cut before the last whitespace that keeps the piece within the
            # limit, so no word (nor anatomy keyword) is split; a piece with no
            # whitespace is cut hard
            space = _LAST_SPACE_RE.match(text, begin + 1, begin + limit + 1)
            cut = _cut_before_keyword(text, begin, space.end() - 1) if space else begin + limit
            pieces.append((start + begin, start + cut))
            begin = cut
        if end > begin:
            pieces.append((start + begin, start + end))
    # greedy re-merge of sentence pieces up to the limit
    merged: list[tuple[int, int]] = []
    for s, e in pieces:
        if merged and (e - merged[-1][0]) <= limit:
            merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    return merged


def _cut_before_keyword(text: str, begin: int, cut: int) -> int:
    """``cut``, moved back to the whitespace before the earliest anatomy
    keyword that spans it, while one does and the piece from ``begin`` keeps
    a whitespace to cut at."""
    while True:
        lowered = text[begin:cut + _LONGEST_KEYWORD].lower()
        at = cut - begin
        # kw spans the cut iff it starts in (at - len(kw), at), i.e. lies
        # within [at - len(kw) + 1, at + len(kw) - 1)
        starts = [found for kw, _ in anatomy.KEYWORD_TABLE
                  if (found := lowered.find(kw, max(0, at - len(kw) + 1), at + len(kw) - 1)) >= 0]
        space = starts and _LAST_SPACE_RE.match(text, begin + 1, begin + min(starts))
        if not space:
            return cut
        cut = space.end() - 1


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
        if not text:  # a split can cut a paragraph's trailing whitespace off alone
            continue
        tags = explicit
        if present:
            tags = tags | {g for _, rows in anatomy.keywords_in(text, present) for _, g in rows}
        primitives.append(
            KnowledgePrimitive(
                id=f"{source_id}#{len(primitives)}",
                text=text,
                source=SourceSpan(doc=source_id, start=start, end=end),
                anatomy_tags=tags,
            )
        )
    return primitives


def _read_text(directory: Path, name: str) -> str:
    with open(os.path.join(directory, name), "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{name}: undecodable byte at offset {exc.start}") from exc


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
    names = sorted(os.listdir(root))
    listed = set(names)
    by_stem: dict[str, str] = {}
    primitives: list[KnowledgePrimitive] = []
    for name in names:
        # the stem and suffix as pathlib reads them: ".txt" has no suffix
        stem, _, suffix = name.rpartition(".")
        if not stem or suffix.lower() not in ("txt", "md"):
            continue
        if stem in by_stem:
            raise IngestError(
                f"{by_stem[stem]} and {name} share the stem {stem!r}, which "
                "names the primitives and the .tags file of each; rename one"
            )
        by_stem[stem] = name
        text = _read_text(root, name)
        explicit: set[str] = set()
        sidecar = stem + ".tags"
        # a dangling link is no sidecar
        if sidecar in listed and os.path.exists(os.path.join(root, sidecar)):
            for line in _read_text(root, sidecar).splitlines():
                tag = line.strip()
                if not tag:
                    continue
                if not anatomy.is_valid_group(tag):
                    raise IngestError(f"{sidecar}: unknown anatomy tag {tag!r}")
                explicit.add(tag)
        primitives.extend(
            ingest_document(text, stem, explicit, max_chunk_chars)
        )
    return primitives
