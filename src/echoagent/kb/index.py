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
ascending id order. It never keeps an array a caller passed in; only
``load`` hands over the matrix it decoded, which an empty index keeps
as it is when its rows already come in ascending id order.

The saved index (format version 2) is one JSON document,
``{version, encoder_id, embeddings, primitives, entries, checksum}``. The
embeddings are one block, ``{"dtype": "<f8", "shape": [n, d], "data": ...}``,
whose data is the base64 of the row-major little-endian float64 matrix,
as in a ``.npy`` file (``tobytes`` writes C order whatever the layout in
memory); row i is the embedding of primitive record i, and
``save`` writes both in ascending primitive id order. The file is the
document in canonical form (sorted keys, no spaces) with the SHA-256 of
those bytes as a leading ``"checksum"`` key, which sorts before every other
key. ``save`` serialises only the small part of the document; it streams
the base64 data a block of rows at a time, hashing every byte as it goes
out, then fills the 64 checksum digits it reserved, so its peak memory is
that small part plus one block. It rewrites an existing file in place and
cuts it at the new end.

``load`` reads a file whose bytes pass that check, as ``save`` writes it,
in two passes and never whole. The first hashes the bytes after the
checksum key a block at a time and finds the quote that closes the base64
data, which comes first in the canonical document; it keeps only the
document after that quote, and parses it once the digest matches. The
second decodes the data ``_SAVE_BLOCK_ROWS`` rows at a time straight into
the column-major matrix the index serves from, hashing it again so that a
file rewritten between the passes is refused. Any other file (not written
by ``save``, or one whose checksum digits were never filled) is read and
parsed whole and passes if its canonical form matches its checksum.
Either way the data's length is checked against the shape before the
matrix is made, and ``load`` refuses a dtype, data length, row count or
dimension that does not match, as it refuses a version 1 file, which must
be rebuilt.
"""
from __future__ import annotations

import base64
import hashlib
import io
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import anatomy
from ..errors import IndexLoadError
from .chunking import KnowledgePrimitive, SourceSpan
from .encoder import HashedBowEncoder
from .summarize import RepositoryEntry

INDEX_FORMAT_VERSION = 2
NORM_TOLERANCE = 1e-9
EMBEDDING_DTYPE = "<f8"
# what ``save`` writes before the canonical document's remaining keys
_SAVED_PREFIX = re.compile(rb'\{"checksum":"([0-9a-f]{64})",')
_CHECKSUM_HEAD = b'{"checksum":"'
# the checksum digits ``save`` reserves until the rest of the file is written
_UNSEALED = b"0" * 64
# the canonical document up to its base64 embeddings data: "embeddings"
# sorts first among the keys, and "data" first in its block
_DATA_HEAD = '{"embeddings":{"data":"'
# rows of embeddings ``save`` encodes at a time: a multiple of 3 rows is a
# whole number of 3-byte base64 groups at any dimension
_SAVE_BLOCK_ROWS = 384
# bytes ``load`` reads at a time while it hashes a sealed file's data
_READ_BLOCK_BYTES = 1 << 20


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
        over, and an empty index keeps a column-major one as its matrix when
        its rows already come in ascending id order."""
        seen: set[str] = set()
        for p in primitives:
            if p.id in self.primitives or p.id in seen:
                raise IndexLoadError(f"duplicate primitive id {p.id!r}")
            seen.add(p.id)
        dim = self.encoder.dim
        if embeddings is None:
            embeddings = (self.encoder.embed_batch([p.text for p in primitives])
                          if primitives else np.zeros((0, dim)))
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

    def _document_without_data(self) -> dict:
        """The index document without its checksum, its embeddings ``data``
        left empty for ``save`` to stream."""
        primitives = []
        for pid in self.ids:
            p = self.primitives[pid]
            primitives.append(
                {
                    "id": p.id,
                    "text": p.text,
                    "source": {"doc": p.source.doc, "start": p.source.start, "end": p.source.end},
                    "tags": sorted(p.anatomy_tags),
                }
            )
        entries = [self.entries[name].to_json() for name in sorted(self.entries)]
        return {
            "version": INDEX_FORMAT_VERSION,
            "encoder_id": self.encoder.encoder_id,
            "embeddings": {"dtype": EMBEDDING_DTYPE, "shape": list(self._matrix.shape), "data": ""},
            "primitives": primitives,
            "entries": entries,
        }

    def save(self, path: str | Path) -> None:
        """Write the checksummed canonical document, streaming the embeddings.

        An existing file is rewritten in place and cut at the new end.
        """
        canonical = _canonical(self._document_without_data())
        if not canonical.startswith(_DATA_HEAD):
            raise AssertionError(f"canonical index starts {canonical[:40]!r}")
        tail = canonical[len(_DATA_HEAD):].encode("utf-8")
        del canonical
        try:
            fh = open(path, "r+b")
        except FileNotFoundError:
            fh = open(path, "wb")
        with fh:
            fh.write(_CHECKSUM_HEAD + _UNSEALED + b'",')
            digest = hashlib.sha256(b"{")
            for chunk in self._canonical_chunks(tail):
                digest.update(chunk)
                fh.write(chunk)
            fh.write(b"\n")
            fh.truncate()
            fh.seek(len(_CHECKSUM_HEAD))
            fh.write(digest.hexdigest().encode("ascii"))

    def _canonical_chunks(self, tail: bytes):
        """The canonical document's bytes after its opening brace: the data
        head, the base64 of ``_SAVE_BLOCK_ROWS`` rows at a time, the tail."""
        yield _DATA_HEAD[1:].encode("ascii")
        for start in range(0, len(self.ids), _SAVE_BLOCK_ROWS):
            rows = self._matrix[start:start + _SAVE_BLOCK_ROWS]
            # a whole number of 3-byte groups: no padding inside the data
            yield base64.b64encode(rows.astype(EMBEDDING_DTYPE, copy=False).tobytes())
        yield tail

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
    """The verified index document and the column-major matrix its
    embeddings data holds."""
    try:
        with open(path, "rb") as fh:
            sealed = _read_sealed(fh, path)
            if sealed is None:
                fh.seek(0)
                doc = _parse(fh.read(), path)
            else:
                doc, length, read, unchanged = sealed
            version = doc.get("version")
            if version != INDEX_FORMAT_VERSION:
                raise IndexLoadError(
                    f"index version mismatch: file has {version!r}, expected "
                    f"{INDEX_FORMAT_VERSION}; rebuild the index with build-kb"
                )
            if sealed is None and doc.get("checksum") != _checksum(
                {k: v for k, v in doc.items() if k != "checksum"}
            ):
                raise IndexLoadError("index checksum mismatch: file corrupted or edited")
            shape = _embedding_shape(doc)
            if sealed is None:
                data = _data_digits(doc)
                read, length = io.BytesIO(data).read, len(data)
            matrix = _decode_rows(shape, length, read)
            if sealed is not None and not unchanged():
                raise IndexLoadError(f"knowledge index {path} changed while it was read")
            return doc, matrix
    except OSError as exc:
        raise IndexLoadError(f"cannot read knowledge index {path}: {exc}") from exc


def _read_sealed(fh, path):
    """For a file whose bytes pass the check, as ``save`` writes it: its
    document with the embeddings data left empty, the data's length,
    ``read(k)`` for its next k digits, and whether the digits read match
    the ones checked. None for any other file.

    One pass hashes the bytes after the checksum key in blocks and finds
    the quote that closes the base64 data; only the document after it is
    read whole, and parsed once the digest matches. ``read`` hashes the
    data again as it goes, so a file rewritten between the passes is
    refused, not mixed.
    """
    # the checksum key, its 64 digits and '",', then the data head past its brace
    head = fh.read(len(_CHECKSUM_HEAD) + len(_UNSEALED) + 2 + len(_DATA_HEAD) - 1)
    prefix = _SAVED_PREFIX.match(head)
    if prefix is None or head[prefix.end():] != _DATA_HEAD[1:].encode("ascii"):
        return None
    offset = len(head)
    digest = hashlib.sha256(b"{")
    digest.update(head[prefix.end():])
    again = digest.copy()
    size = os.fstat(fh.fileno()).st_size
    end, quote = offset, -1
    while quote < 0:
        # a read asks for no more than the file holds: it allocates what it asks for
        block = fh.read(min(_READ_BLOCK_BYTES, size - end))
        if not block:
            return None  # the data never ends
        quote = block.find(b'"')
        used = len(block) if quote < 0 else quote
        digest.update(memoryview(block)[:used])
        end += used
    checked = digest.copy().digest()
    fh.seek(end)
    rest = _DATA_HEAD.encode("ascii") + fh.read()
    stop = len(rest) - 1 if rest.endswith(b"\n") else len(rest)
    digest.update(memoryview(rest)[len(_DATA_HEAD):stop])
    if digest.hexdigest().encode("ascii") != prefix.group(1):
        return None
    doc = _parse(rest, path)
    fh.seek(offset)

    def read(k: int) -> bytes:
        digits = fh.read(k)
        again.update(digits)
        return digits

    return doc, end - offset, read, lambda: again.digest() == checked


def _parse(data: bytes, path: str | Path) -> dict:
    """The JSON object that the UTF-8 ``data`` holds."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IndexLoadError(f"knowledge index {path} is not UTF-8 text: {exc}") from exc
    del data
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IndexLoadError(f"cannot read knowledge index {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise IndexLoadError("knowledge index must be a JSON object")
    return doc


def _embedding_shape(doc: dict) -> tuple[int, int]:
    """The [n, d] shape of the document's embeddings block."""
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


def _data_digits(doc: dict) -> bytes:
    """The base64 digits of the embeddings data, which the document lets go."""
    data = doc["embeddings"].pop("data", None)
    if not isinstance(data, str):
        raise IndexLoadError("embeddings data is not a string")
    try:
        return data.encode("ascii")
    except UnicodeEncodeError as exc:
        raise IndexLoadError(f"embeddings data is not valid base64: {exc}") from exc


def _decode_rows(shape: tuple[int, int], length: int, read) -> np.ndarray:
    """The column-major matrix of ``shape`` whose row-major bytes are the
    ``length`` base64 digits that ``read(k)`` returns k at a time, decoded
    ``_SAVE_BLOCK_ROWS`` rows at a time.

    The length is checked against the shape before the matrix is made.
    """
    n, dim = shape
    if length != _digits(n * dim * 8):
        raise IndexLoadError(
            f"embeddings data holds {length} base64 digits; shape {list(shape)} "
            f"needs {_digits(n * dim * 8)} for {n * dim * 8} bytes"
        )
    matrix = np.empty((n, dim), dtype=np.float64, order="F")
    for start in range(0, n, _SAVE_BLOCK_ROWS):
        rows = min(_SAVE_BLOCK_ROWS, n - start)
        try:
            raw = base64.b64decode(read(_digits(rows * dim * 8)), validate=True)
        except ValueError as exc:
            raise IndexLoadError(f"embeddings data is not valid base64: {exc}") from exc
        if len(raw) != rows * dim * 8:
            raise IndexLoadError(
                f"embeddings data is not valid base64: rows {start} to {start + rows - 1} "
                f"decode to {len(raw)} bytes, not {rows * dim * 8}"
            )
        matrix[start:start + rows] = np.frombuffer(raw, dtype=EMBEDDING_DTYPE).reshape(rows, dim)
    return matrix


def _digits(nbytes: int) -> int:
    """The length of the padded base64 of ``nbytes`` bytes."""
    return -(-nbytes // 3) * 4


def _records(doc: dict, key: str) -> list:
    records = doc.get(key, [])
    if not isinstance(records, list):
        raise IndexLoadError(f"knowledge index field {key!r} is not a list")
    return records


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _checksum(doc: dict) -> str:
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()
