"""Anatomy-indexed knowledge base: exact cosine retrieval and persistence.

Corpora are desk-scale, so retrieval is an exact scan over unit-norm
embeddings (dot product == cosine): one matrix-vector product over the
embedding matrix, whose rows are in ascending primitive id order. Per-group
row arrays, computed once per build, select candidates; ranking is a stable
argsort over those rows, so ties break by ascending primitive id, making
every ranking and every saved index byte-reproducible.

``add_primitives`` is all-or-nothing: it checks every id, embeds every
missing text in one ``encoder.embed_batch`` call and checks every embedding
before it changes anything. ``save`` serialises the document once, in
canonical form (sorted keys, no spaces), and writes it with the SHA-256 of
those bytes as a leading ``"checksum"`` key, which sorts before every other
key. ``load`` verifies that checksum over the file bytes; only a file that
fails the byte check (one not written by ``save``) is re-serialised to
check it against its canonical form.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import anatomy
from ..errors import IndexLoadError
from .chunking import KnowledgePrimitive, SourceSpan
from .encoder import HashedBowEncoder
from .summarize import NO_GUIDANCE, SECTION_NAMES, RepositoryEntry

INDEX_FORMAT_VERSION = 1
NORM_TOLERANCE = 1e-9
# what ``save`` writes before the canonical document's remaining keys
_SAVED_PREFIX = re.compile(rb'\{"checksum":"([0-9a-f]{64})",')


@dataclass(frozen=True)
class RetrievalHit:
    primitive_id: str
    similarity: float


@dataclass
class RetrievalResult:
    hits: list[RetrievalHit]
    no_knowledge: bool = False

    def ids(self) -> list[str]:
        return [h.primitive_id for h in self.hits]


@dataclass
class AnatomyIndex:
    """Per-group sorted id lists plus the global sorted id list."""

    by_group: dict[str, list[str]] = field(default_factory=dict)
    all_ids: list[str] = field(default_factory=list)

    @classmethod
    def from_primitives(cls, primitives: dict[str, KnowledgePrimitive]) -> "AnatomyIndex":
        by_group: dict[str, list[str]] = {name: [] for name in anatomy.ANATOMY_NAMES}
        all_ids = sorted(primitives)
        for pid in all_ids:
            for tag in primitives[pid].anatomy_tags:
                by_group[tag].append(pid)
        for ids in by_group.values():
            ids.sort()
        return cls(by_group=by_group, all_ids=all_ids)

    def check_membership(self, primitives: dict[str, KnowledgePrimitive]) -> None:
        """Membership biconditional: id in group list iff group in its tags."""
        for name in anatomy.ANATOMY_NAMES:
            listed = set(self.by_group.get(name, ()))
            tagged = {pid for pid, p in primitives.items() if name in p.anatomy_tags}
            if listed != tagged:
                offending = sorted(listed.symmetric_difference(tagged))[0]
                raise IndexLoadError(
                    f"index membership violated for group {name!r} at primitive {offending!r}"
                )


class KnowledgeBase:
    """Immutable-after-build store of embedded primitives and entries."""

    def __init__(self, encoder=None, embedding_dim: int | None = None):
        self.encoder = encoder if encoder is not None else HashedBowEncoder(256)
        self.embedding_dim = embedding_dim or self.encoder.dim
        self.primitives: dict[str, KnowledgePrimitive] = {}
        self.entries: dict[str, RepositoryEntry] = {}
        self._rebuild_index()

    # -- construction ------------------------------------------------------

    def add_primitives(self, primitives: list[KnowledgePrimitive]) -> None:
        """Add all of ``primitives`` or, on any error, none of them."""
        seen: set[str] = set()
        for p in primitives:
            if p.id in self.primitives or p.id in seen:
                raise IndexLoadError(f"duplicate primitive id {p.id!r}")
            seen.add(p.id)
        missing = [p for p in primitives if p.embedding is None]
        computed = self.encoder.embed_batch([p.text for p in missing]) if missing else []
        embedded = {p.id: vec for p, vec in zip(missing, computed)}
        for p in primitives:
            self._check_embedding(p.id, embedded.get(p.id, p.embedding))
        for p in missing:
            p.embedding = embedded[p.id]
        self.primitives.update((p.id, p) for p in primitives)
        self._rebuild_index()

    def _check_embedding(self, pid: str, embedding: np.ndarray) -> None:
        norm = float(np.linalg.norm(embedding))
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise IndexLoadError(
                f"primitive {pid!r} embedding norm {norm:.6g} not unit"
            )
        if embedding.shape != (self.embedding_dim,):
            raise IndexLoadError(
                f"primitive {pid!r} embedding dim {embedding.shape} != {self.embedding_dim}"
            )

    def _rebuild_index(self) -> None:
        self.index = AnatomyIndex.from_primitives(self.primitives)
        self.index.check_membership(self.primitives)
        ids = self.index.all_ids
        row_of = {pid: i for i, pid in enumerate(ids)}
        # ascending matrix rows of each anatomy group, and of every tagged primitive
        self.group_rows: dict[str, np.ndarray] = {
            name: np.array([row_of[pid] for pid in group_ids], dtype=np.intp)
            for name, group_ids in self.index.by_group.items()
        }
        self.tagged_rows = np.flatnonzero([bool(self.primitives[pid].anatomy_tags) for pid in ids])
        if ids:
            self._matrix = np.vstack([self.primitives[pid].embedding for pid in ids])
        else:
            self._matrix = np.zeros((0, self.embedding_dim), dtype=np.float64)

    def __len__(self) -> int:
        return len(self.primitives)

    # -- retrieval ---------------------------------------------------------

    def retrieve_topk(
        self, query_text: str, anatomy_name: str | None = None, k: int = 8
    ) -> RetrievalResult:
        return self.retrieve_topk_vector(self.encoder.embed(query_text), anatomy_name, k)

    def retrieve_topk_vector(
        self, query_vec: np.ndarray, anatomy_name: str | None = None, k: int = 8
    ) -> RetrievalResult:
        if k < 1:
            raise ValueError("k must be a positive integer")
        if anatomy_name is None:
            rows = np.arange(len(self.index.all_ids))
        else:
            anatomy.group_by_name(anatomy_name)  # raises on unknown group
            rows = self.group_rows[anatomy_name]
        if not rows.size:
            return RetrievalResult(hits=[], no_knowledge=anatomy_name is not None)
        sims = self.all_similarities(query_vec)
        ranked = rows[np.argsort(-sims[rows], kind="stable")[:k]]
        return RetrievalResult(
            hits=[RetrievalHit(self.index.all_ids[row], float(sims[row])) for row in ranked]
        )

    def all_similarities(self, query_vec: np.ndarray) -> np.ndarray:
        """Cosine of the query with every primitive, row-aligned with ``index.all_ids``."""
        return self._matrix @ np.asarray(query_vec, dtype=np.float64)

    # -- persistence -------------------------------------------------------

    def to_document(self) -> dict:
        """The index document without its checksum, which ``save`` adds."""
        primitives = []
        for pid in self.index.all_ids:
            p = self.primitives[pid]
            primitives.append(
                {
                    "id": p.id,
                    "text": p.text,
                    "source": {"doc": p.source.doc, "start": p.source.start, "end": p.source.end},
                    "tags": sorted(p.anatomy_tags),
                    "embedding": np.asarray(p.embedding, dtype=np.float64).tolist(),
                }
            )
        entries = [self.entries[name].to_json() for name in sorted(self.entries)]
        return {
            "version": INDEX_FORMAT_VERSION,
            "d_e": self.embedding_dim,
            "encoder_id": self.encoder.encoder_id if self.encoder else "unknown",
            "primitives": primitives,
            "entries": entries,
        }

    def save(self, path: str | Path) -> None:
        """Write the checksummed canonical document, serialising it once."""
        # encoding after the document is freed keeps the peak at the document
        # plus one copy of the text
        body = _canonical(self.to_document()).encode("utf-8")
        checksum = hashlib.sha256(body).hexdigest()
        with open(path, "wb") as fh:
            fh.write(b'{"checksum":"%s",' % checksum.encode("ascii"))
            fh.write(memoryview(body)[1:])
            fh.write(b"\n")

    @classmethod
    def load(cls, path: str | Path, encoder=None) -> "KnowledgeBase":
        doc, sealed = _read_document(path)
        version = doc.get("version")
        if version != INDEX_FORMAT_VERSION:
            raise IndexLoadError(
                f"index version mismatch: file has {version!r}, expected {INDEX_FORMAT_VERSION}"
            )
        if not sealed and doc.get("checksum") != _checksum(
            {k: v for k, v in doc.items() if k != "checksum"}
        ):
            raise IndexLoadError("index checksum mismatch: file corrupted or edited")

        try:
            dim = int(doc["d_e"])
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexLoadError(
                f"knowledge index field 'd_e' is missing or not an integer: {exc!r}"
            ) from exc
        if encoder is None:
            if doc.get("encoder_id") == f"hashed-bow-{dim}":
                encoder = HashedBowEncoder(dim)
        kb = cls(encoder=encoder, embedding_dim=dim)
        loaded: list[KnowledgePrimitive] = []
        for i, raw in enumerate(_records(doc, "primitives")):
            if not isinstance(raw, dict):
                raise IndexLoadError(f"primitive record #{i} is not an object")
            if not (isinstance(raw.get("id"), str) and isinstance(raw.get("text"), str)):
                raise IndexLoadError(f"primitive record #{i} needs a string 'id' and 'text'")
            src = raw.get("source", {})
            if not isinstance(src, dict):
                raise IndexLoadError(
                    f"invalid primitive record {raw.get('id')!r}: 'source' is not an object"
                )
            try:
                p = KnowledgePrimitive(
                    id=raw["id"],
                    text=raw["text"],
                    source=SourceSpan(src.get("doc", ""), int(src.get("start", 0)), int(src.get("end", 0))),
                    anatomy_tags=frozenset(raw.get("tags", [])),
                    embedding=np.asarray(raw["embedding"], dtype=np.float64),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise IndexLoadError(f"invalid primitive record {raw.get('id')!r}: {exc}") from exc
            loaded.append(p)
        kb.add_primitives(loaded)

        for i, raw in enumerate(_records(doc, "entries")):
            try:
                entry = RepositoryEntry.from_json(raw)
            except (KeyError, TypeError, ValueError) as exc:
                raise IndexLoadError(f"invalid entry record #{i}: {exc!r}") from exc
            for pid in entry.supporting_primitive_ids:
                if pid not in kb.primitives:
                    raise IndexLoadError(
                        f"entry {entry.anatomy!r} references missing primitive {pid!r}"
                    )
            kb.entries[entry.anatomy] = entry
        return kb


def _read_document(path: str | Path) -> tuple[dict, bool]:
    """(parsed index document, whether its bytes carry a matching checksum).

    The byte check passes for a file as ``save`` writes it: the stored
    checksum key first, then the canonical document, then one newline.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IndexLoadError(f"cannot read knowledge index {path}: {exc}") from exc
    sealed = False
    prefix = _SAVED_PREFIX.match(data)
    if prefix is not None:
        end = len(data) - 1 if data.endswith(b"\n") else len(data)
        digest = hashlib.sha256(b"{")
        digest.update(memoryview(data)[prefix.end():end])
        sealed = digest.hexdigest().encode("ascii") == prefix.group(1)
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise IndexLoadError(f"knowledge index {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IndexLoadError(f"cannot read knowledge index {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise IndexLoadError("knowledge index must be a JSON object")
    return doc, sealed


def _records(doc: dict, key: str) -> list:
    records = doc.get(key, [])
    if not isinstance(records, list):
        raise IndexLoadError(f"knowledge index field {key!r} is not a list")
    return records


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _checksum(doc: dict) -> str:
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()


def empty_entry(anatomy_name: str, k: int) -> RepositoryEntry:
    return RepositoryEntry(
        anatomy=anatomy_name,
        sections={name: [NO_GUIDANCE] for name in SECTION_NAMES},
        supporting_primitive_ids=[],
        created_from_k=k,
    )
