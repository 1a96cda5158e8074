"""Anatomy-indexed knowledge base: exact cosine retrieval and persistence.

Corpora are desk-scale, so retrieval is an exact scan over unit-norm
embeddings (dot product == cosine) held in one column-major matrix whose
rows are in ascending primitive id order. The scan adds ``column_j * q_j``
over the query's nonzero buckets ``j`` in ascending order, with elementwise
multiplies and adds: each is one correctly rounded IEEE operation, so unlike
a BLAS product no kernel choice can change the order of the sum or its bits.
A hashed bag-of-words question touches a handful of the 256 columns; a dense
query from a remote encoder touches all of them and costs more than a BLAS
product would. Per-group row arrays, computed once per build, select
candidates; ranking is a stable argsort over those rows, so ties break by
ascending primitive id, making every ranking and every saved index
byte-reproducible.

The matrix is the only copy of the embeddings; primitives carry none.
``add_primitives`` is all-or-nothing: it checks every id, takes the (n, d)
embeddings it is given or embeds every text in one ``encoder.embed_batch``
call, and checks the batch's shape and every row's norm in one pass before
it scatters the held and added rows into one new column-major matrix in
ascending id order. It never keeps an array a caller passed in. It owns a
batch its encoder returned, and ``load`` hands over the matrix it read: an
empty index keeps such a batch as its matrix, with no scatter copy, when it
is column-major (as ``HashedBowEncoder.embed_batch`` returns it) and its
rows already come in ascending id order.

The saved index (format version 3) is three parts: a line of the 64 hex
digits of the SHA-256 of every byte after it; one canonical JSON head line
(sorted keys, no spaces) ``{embeddings: {dtype, shape: [n, d]}, encoder_id,
entries, primitives, version}``, whose primitive records ``save`` writes one
by one straight into one buffer, with no dict per record; then the n·d
little-endian float64s of the matrix in column-major order, which is the
matrix's own buffer. Primitive record i is row i; ``save`` writes both in
ascending primitive id order, with ``files.rewrite``. ``load`` reads the data
straight into the buffer its matrix keeps, and checks the digest before it
parses the head. Any other file, version 1 and 2 included, is refused.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as quote
from pathlib import Path

import numpy as np

from .. import anatomy
from ..errors import IndexLoadError
from ..files import rewrite
from .chunking import KnowledgePrimitive, SourceSpan
from .encoder import HashedBowEncoder
from .summarize import RepositoryEntry

INDEX_FORMAT_VERSION = 3
NORM_TOLERANCE = 1e-9
EMBEDDING_DTYPE = "<f8"
_HEX_DIGITS = b"0123456789abcdef"


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


class KnowledgeBase:
    """Immutable-after-build store of embedded primitives and entries."""

    def __init__(self, encoder=None):
        self.encoder = encoder if encoder is not None else HashedBowEncoder(256)
        self.primitives: dict[str, KnowledgePrimitive] = {}
        self.entries: dict[str, RepositoryEntry] = {}
        self.ids: list[str] = []
        self._matrix = np.zeros((0, self.encoder.dim), dtype=np.float64)
        self._index_groups()

    # -- construction ------------------------------------------------------

    def add_primitives(
        self, primitives: list[KnowledgePrimitive], embeddings: np.ndarray | None = None
    ) -> None:
        """Add all of ``primitives`` or, on any error, none of them.

        Row i of the (n, d) ``embeddings`` embeds ``primitives[i]``; without
        it the encoder embeds every text in one batch.
        """
        self._add(primitives, embeddings, owned=False)

    def _add(self, primitives: list[KnowledgePrimitive], embeddings: np.ndarray | None,
             owned: bool) -> None:
        """``add_primitives``; with ``owned`` the caller hands ``embeddings``
        over, as does the encoder when it embeds the batch here. An empty
        index keeps an owned column-major batch as its matrix when its rows
        already come in ascending id order."""
        seen: set[str] = set()
        for p in primitives:
            if p.id in self.primitives or p.id in seen:
                raise IndexLoadError(f"duplicate primitive id {p.id!r}")
            seen.add(p.id)
        dim = self.encoder.dim
        if embeddings is None:
            embeddings = (self.encoder.embed_batch([p.text for p in primitives])
                          if primitives else np.zeros((0, dim)))
            owned = True
        added = np.asarray(embeddings, dtype=np.float64)
        if added.shape != (len(primitives), dim):
            raise IndexLoadError(
                f"embeddings shape {added.shape} is not ({len(primitives)}, {dim})"
            )
        norms = np.sqrt(np.einsum("ij,ij->i", added, added))
        off = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOLERANCE))  # NaN is off too
        if off.size:
            raise IndexLoadError(
                f"primitive {primitives[off[0]].id!r} embedding norm {norms[off[0]]:.6g} not unit"
            )
        ids = self.ids + [p.id for p in primitives]
        order = sorted(range(len(ids)), key=ids.__getitem__)
        if owned and not self.ids and added.flags.f_contiguous and order == list(range(len(ids))):
            matrix = added
        else:
            # scatter the held rows and the added rows to their ascending-id rows
            row_of = np.argsort(order)
            matrix = np.empty((len(ids), dim), dtype=np.float64, order="F")
            matrix[row_of[:len(self.ids)]] = self._matrix
            matrix[row_of[len(self.ids):]] = added
        self.primitives.update((p.id, p) for p in primitives)
        self.ids = [ids[i] for i in order]
        self._matrix = matrix
        self._index_groups()

    def _index_groups(self) -> None:
        # each group's rows, and the rows of every tagged primitive, are
        # ascending because rows are visited in order
        rows: dict[str, list[int]] = {name: [] for name in anatomy.ANATOMY_NAMES}
        for row, pid in enumerate(self.ids):
            for tag in self.primitives[pid].anatomy_tags:
                rows[tag].append(row)
        self.group_rows: dict[str, np.ndarray] = {
            name: np.array(group, dtype=np.intp) for name, group in rows.items()
        }
        self.tagged_rows = np.flatnonzero(
            [bool(self.primitives[pid].anatomy_tags) for pid in self.ids]
        )

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
            rows = np.arange(len(self.ids))
        else:
            anatomy.group_by_name(anatomy_name)  # raises on unknown group
            rows = self.group_rows[anatomy_name]
        if not rows.size:
            return RetrievalResult(hits=[], no_knowledge=anatomy_name is not None)
        sims = self.all_similarities(query_vec)
        ranked = rows[np.argsort(-sims[rows], kind="stable")[:k]]
        return RetrievalResult(
            hits=[RetrievalHit(self.ids[row], float(sims[row])) for row in ranked]
        )

    def all_similarities(self, query_vec: np.ndarray) -> np.ndarray:
        """Cosine of the query with every primitive, row-aligned with ``ids``.

        Sums ``column_j * q_j`` over the query's nonzero buckets in ascending
        ``j``, one elementwise multiply and add each, so the bits do not
        depend on the host's BLAS kernel.
        """
        query = np.asarray(query_vec, dtype=np.float64)
        if query.shape != (self.encoder.dim,):
            raise ValueError(f"query shape {query.shape} is not ({self.encoder.dim},)")
        sims = np.zeros(len(self.ids))
        term = np.empty_like(sims)
        for j in np.flatnonzero(query):
            np.multiply(self._matrix[:, j], query[j], out=term)
            np.add(sims, term, out=sims)
        return sims

    # -- persistence -------------------------------------------------------

    def _head(self) -> bytes:
        """The canonical JSON head line of the saved index, with its newline.

        Each primitive record is written straight into one bytes buffer,
        keys in sorted order and every string through the escaper
        ``json.dumps`` uses, so the line is the ``sort_keys`` dump of the
        head with no dict or bytes object kept per record.
        """
        canonical = {"sort_keys": True, "separators": (",", ":")}
        entries = [self.entries[name].to_json() for name in sorted(self.entries)]
        embeddings = {"dtype": EMBEDDING_DTYPE, "shape": list(self._matrix.shape)}
        out = io.BytesIO()
        out.write(
            f'{{"embeddings":{json.dumps(embeddings, **canonical)},'
            f'"encoder_id":{quote(self.encoder.encoder_id)},'
            f'"entries":{json.dumps(entries, **canonical)},"primitives":['.encode("ascii")
        )
        comma = ""
        for pid in self.ids:
            p = self.primitives[pid]
            src = p.source
            tags = ",".join([quote(tag) for tag in sorted(p.anatomy_tags)])
            out.write(
                f'{comma}{{"id":{quote(p.id)},"source":{{"doc":{quote(src.doc)},'
                f'"end":{src.end},"start":{src.start}}},"tags":[{tags}],'
                f'"text":{quote(p.text)}}}'.encode("ascii")
            )
            comma = ","
        out.write(f'],"version":{INDEX_FORMAT_VERSION}}}\n'.encode("ascii"))
        return out.getvalue()

    def save(self, path: str | Path) -> None:
        """Write the digest line, the head line and the column-major matrix."""
        head = self._head()
        # the transpose of the column-major matrix is its buffer in C order
        data = memoryview(np.ascontiguousarray(self._matrix.T, dtype=EMBEDDING_DTYPE))
        digest = hashlib.sha256(head)
        digest.update(data)
        rewrite(path, digest.hexdigest().encode("ascii") + b"\n", head, data)

    @classmethod
    def load(cls, path: str | Path, encoder=None) -> "KnowledgeBase":
        doc, matrix = _read_index(path)
        n, dim = matrix.shape
        built_with = doc.get("encoder_id")
        if encoder is None and built_with == f"hashed-bow-{dim}":
            encoder = HashedBowEncoder(dim)
        if encoder is None or (encoder.encoder_id, encoder.dim) != (built_with, dim):
            given = "no encoder" if encoder is None else (
                f"encoder {encoder.encoder_id!r} (dim {encoder.dim})")
            raise IndexLoadError(
                f"index built with encoder {built_with!r} (dim {dim}) cannot be "
                f"loaded with {given}"
            )
        records = _records(doc, "primitives")
        if len(records) != n:
            raise IndexLoadError(
                f"embeddings hold {n} rows for {len(records)} primitive records"
            )
        kb = cls(encoder=encoder)
        loaded: list[KnowledgePrimitive] = []
        for i, raw in enumerate(records):
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
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise IndexLoadError(f"invalid primitive record {raw.get('id')!r}: {exc}") from exc
            loaded.append(p)
        kb._add(loaded, matrix, owned=True)

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


def _read_index(path: str | Path) -> tuple[dict, np.ndarray]:
    """The verified index head and the column-major matrix its data holds."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            line = fh.readline(65)  # 64 hex digits and a newline
            if not (len(line) == 65 and line.endswith(b"\n")
                    and not line[:64].translate(None, _HEX_DIGITS)):
                raise IndexLoadError(
                    f"knowledge index {path} is not a version {INDEX_FORMAT_VERSION} index: "
                    "its first line is not a SHA-256 digest; rebuild the index with build-kb"
                )
            head = fh.readline()
            data = np.empty(max(size - len(line) - len(head), 0), dtype=np.uint8)
            if fh.readinto(data) != data.size:
                raise IndexLoadError(f"knowledge index {path} changed while it was read")
    except OSError as exc:
        raise IndexLoadError(f"cannot read knowledge index {path}: {exc}") from exc
    digest = hashlib.sha256(head)
    digest.update(data)
    if digest.hexdigest().encode("ascii") != line[:64]:
        raise IndexLoadError("index checksum mismatch: file corrupted or edited")
    try:
        text = head.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IndexLoadError(f"knowledge index {path} is not UTF-8 text: {exc}") from exc
    del head  # the parse needs only the text
    doc = _parse(text, path)
    version = doc.get("version")
    if version != INDEX_FORMAT_VERSION:
        raise IndexLoadError(
            f"index version mismatch: file has {version!r}, expected "
            f"{INDEX_FORMAT_VERSION}; rebuild the index with build-kb"
        )
    n, dim = _embedding_shape(doc)
    if data.size != n * dim * 8:
        raise IndexLoadError(
            f"embeddings data holds {data.size} bytes, not the {n * dim * 8} "
            f"that shape {[n, dim]} needs"
        )
    return doc, data.view(EMBEDDING_DTYPE).reshape(dim, n).T


def _parse(text: str, path: str | Path) -> dict:
    """The JSON object that the head line ``text`` holds."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IndexLoadError(f"cannot read knowledge index {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise IndexLoadError("knowledge index head must be a JSON object")
    return doc


def _embedding_shape(doc: dict) -> tuple[int, int]:
    """The [n, d] shape of the head's embeddings block."""
    block = doc.get("embeddings")
    if not isinstance(block, dict):
        raise IndexLoadError("knowledge index field 'embeddings' is missing or not an object")
    if block.get("dtype") != EMBEDDING_DTYPE:
        raise IndexLoadError(
            f"embeddings dtype {block.get('dtype')!r} is not {EMBEDDING_DTYPE!r}"
        )
    shape = block.get("shape")
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(x) is int for x in shape) and shape[0] >= 0 and shape[1] >= 1):
        raise IndexLoadError(f"embeddings shape {shape!r} is not [rows >= 0, dim >= 1]")
    return shape[0], shape[1]


def _records(doc: dict, key: str) -> list:
    records = doc.get(key, [])
    if not isinstance(records, list):
        raise IndexLoadError(f"knowledge index field {key!r} is not a list")
    return records

