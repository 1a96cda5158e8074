import base64
import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import index_matrix, make_primitive, matrix_data, seal_index, split_index
from oracles import dumped_head

from echoagent import anatomy

from echoagent import files as files_module
from echoagent.cli import main
from echoagent.errors import IndexLoadError
from echoagent.kb import index as index_module
from echoagent.kb.chunking import KnowledgePrimitive, SourceSpan, load_corpus
from echoagent.kb.encoder import HashedBowEncoder
from echoagent.kb.index import KnowledgeBase
from echoagent.kb.summarize import build_all_entries


def _read(path) -> tuple[dict, np.ndarray]:
    """The head and the (n, d) matrix of a format 3 index file."""
    _, head, data = split_index(path.read_bytes())
    head = json.loads(head)
    return head, index_matrix(head, data)


def _write(path, head: dict, matrix: np.ndarray) -> None:
    """Write ``head`` and ``matrix`` as a sealed index, the shape set to the matrix's."""
    head["embeddings"]["shape"] = list(matrix.shape)
    path.write_bytes(seal_index(head, matrix_data(matrix)))


@pytest.fixture()
def saved_kb(kb, tmp_path):
    path = tmp_path / "kb.json"
    kb.save(path)
    return path


def test_save_load_roundtrip_is_lossless(kb, saved_kb):
    loaded = KnowledgeBase.load(saved_kb)
    assert set(loaded.primitives) == set(kb.primitives)
    for pid, primitive in kb.primitives.items():
        clone = loaded.primitives[pid]
        assert clone.text == primitive.text
        assert clone.anatomy_tags == primitive.anatomy_tags
    assert loaded.entries == kb.entries
    assert loaded.ids == kb.ids
    assert np.array_equal(loaded._matrix, kb._matrix)
    assert {name: rows.tolist() for name, rows in loaded.group_rows.items()} == {
        name: rows.tolist() for name, rows in kb.group_rows.items()
    }


def test_roundtrip_of_the_file_bytes(saved_kb, tmp_path):
    loaded = KnowledgeBase.load(saved_kb)
    again = tmp_path / "again.json"
    loaded.save(again)
    assert again.read_bytes() == saved_kb.read_bytes()


def test_bad_embedding_norm_rejected_naming_the_id(saved_kb):
    head, matrix = _read(saved_kb)
    matrix[1] = 0.0
    matrix[1, 0] = 0.5
    offender = head["primitives"][1]["id"]
    _write(saved_kb, head, matrix)
    with pytest.raises(IndexLoadError, match=offender):
        KnowledgeBase.load(saved_kb)


def test_records_and_rows_in_any_order_load_to_the_same_index(saved_kb, tmp_path):
    head, matrix = _read(saved_kb)
    head["primitives"].reverse()
    reordered = tmp_path / "reordered.json"
    _write(reordered, head, matrix[::-1])
    saved, loaded = KnowledgeBase.load(saved_kb), KnowledgeBase.load(reordered)
    assert loaded.ids == saved.ids
    assert {name: rows.tolist() for name, rows in loaded.group_rows.items()} == {
        name: rows.tolist() for name, rows in saved.group_rows.items()
    }
    assert loaded.tagged_rows.tolist() == saved.tagged_rows.tolist()
    assert np.array_equal(loaded._matrix, saved._matrix)


def test_dangling_supporting_id_rejected(saved_kb):
    head, matrix = _read(saved_kb)
    head["entries"][0]["supporting_primitive_ids"] = ["ghost#99"]
    _write(saved_kb, head, matrix)
    with pytest.raises(IndexLoadError, match="ghost#99"):
        KnowledgeBase.load(saved_kb)


def test_checksum_tamper_rejected(saved_kb):
    digest, head, data = split_index(saved_kb.read_bytes())
    doc = json.loads(head)
    doc["primitives"][0]["text"] = "tampered text"
    # deliberately do NOT recompute the digest
    tampered = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    saved_kb.write_bytes(digest + b"\n" + tampered + b"\n" + data)
    with pytest.raises(IndexLoadError, match="checksum"):
        KnowledgeBase.load(saved_kb)


def test_version_mismatch_rejected(saved_kb):
    head, matrix = _read(saved_kb)
    head["version"] = 999
    _write(saved_kb, head, matrix)
    with pytest.raises(IndexLoadError, match="version"):
        KnowledgeBase.load(saved_kb)


def test_duplicate_primitive_id_rejected(saved_kb):
    head, matrix = _read(saved_kb)
    head["primitives"].append(dict(head["primitives"][0]))
    _write(saved_kb, head, np.vstack([matrix, matrix[:1]]))
    with pytest.raises(IndexLoadError, match="duplicate"):
        KnowledgeBase.load(saved_kb)


def _built(primitives: list, reverse: bool) -> KnowledgeBase:
    kb = KnowledgeBase()
    if primitives:
        kb.add_primitives(primitives[::-1] if reverse else primitives)
        build_all_entries(kb, 8)
    return kb


def _awkward_primitives() -> list:
    return [
        make_primitive("q#0", 'The "left ventricle" ejection fraction', {"left ventricle"}),
        make_primitive("q#1", "C:\\echo\\a4c \\n backslashes in the aorta", {"aorta"}),
        make_primitive("q#2", "Größe des Vorhofs — left atrium, 日本", {"left atrium"}),
    ]


@pytest.mark.parametrize("which", ["fixture", "empty", "awkward_text"])
def test_saved_bytes_are_a_function_of_the_index(which, corpus_dir, tmp_path):
    primitives = {
        "fixture": lambda: load_corpus(corpus_dir), "empty": list, "awkward_text": _awkward_primitives,
    }[which]
    # equal indexes, their primitives added in opposite orders
    first, second = _built(primitives(), False), _built(primitives(), True)
    first.save(tmp_path / "first.json")
    second.save(tmp_path / "second.json")
    saved = (tmp_path / "first.json").read_bytes()
    assert saved == (tmp_path / "second.json").read_bytes()

    digest, head_line, data = split_index(saved)
    assert digest == hashlib.sha256(saved[len(digest) + 1:]).hexdigest().encode("ascii")
    head = json.loads(head_line)
    assert head_line == json.dumps(head, sort_keys=True, separators=(",", ":")).encode("ascii")
    assert sorted(head) == ["embeddings", "encoder_id", "entries", "primitives", "version"]
    assert head["version"] == 3
    assert head["embeddings"] == {"dtype": "<f8", "shape": list(first._matrix.shape)}
    assert [record["id"] for record in head["primitives"]] == first.ids
    assert all("embedding" not in record for record in head["primitives"])
    assert np.array_equal(index_matrix(head, data), first._matrix)


# characters json escapes: quotes, backslashes, control characters, non-ASCII
# letters, a character outside the BMP (a surrogate pair) and U+2028
_ESCAPED = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\t\n\x7f\u00e9\U0001f600\u2028/'), st.characters()),
    min_size=1, max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(records=st.lists(
    st.tuples(_ESCAPED, _ESCAPED, st.integers(0, 10**12), st.integers(0, 10**12),
              st.frozensets(st.sampled_from(anatomy.ANATOMY_NAMES))),
    max_size=6,
))
def test_the_head_is_the_canonical_dump_of_its_records(records):
    kb = KnowledgeBase()
    primitives = [
        KnowledgePrimitive(f"{doc}#{i}", text, SourceSpan(doc, start, end), tags)
        for i, (doc, text, start, end, tags) in enumerate(records)
    ]
    rows = np.zeros((len(primitives), kb.encoder.dim))
    rows[:, 0] = 1.0
    kb.add_primitives(primitives, rows)
    assert kb._head() == dumped_head(kb)


def test_loading_a_saved_file_never_reserialises_it(saved_kb, monkeypatch):
    calls = []
    real_dumps = json.dumps

    def counting_dumps(*args, **kwargs):
        calls.append(1)
        return real_dumps(*args, **kwargs)

    # a head line not in canonical form loads too: the digest covers its bytes
    _, head, data = split_index(saved_kb.read_bytes())
    spaced = saved_kb.with_name("spaced.json")
    spaced.write_bytes(seal_index(real_dumps(json.loads(head)).encode("ascii"), data))
    monkeypatch.setattr(index_module.json, "dumps", counting_dumps)
    assert KnowledgeBase.load(spaced).ids == KnowledgeBase.load(saved_kb).ids
    assert calls == []


def test_one_digit_edit_in_a_canonical_file_rejected(saved_kb):
    # one bit of one byte of the matrix data flipped
    raw = bytearray(saved_kb.read_bytes())
    raw[-5] ^= 1
    saved_kb.write_bytes(bytes(raw))
    with pytest.raises(IndexLoadError, match="checksum"):
        KnowledgeBase.load(saved_kb)


@pytest.mark.parametrize("edit", ["truncated", "extra_byte", "zero_digest"])
def test_an_index_whose_bytes_fail_the_digest_is_refused(edit, saved_kb, capsys):
    raw = saved_kb.read_bytes()
    saved_kb.write_bytes(
        {"truncated": raw[:-1], "extra_byte": raw + b"\0", "zero_digest": b"0" * 64 + raw[64:]}[edit]
    )
    with pytest.raises(IndexLoadError, match="checksum"):
        KnowledgeBase.load(saved_kb)
    assert main(["query-kb", "ejection fraction", "--kb", str(saved_kb)]) == 1
    assert "checksum" in capsys.readouterr().err


def _version_2_bytes(kb: KnowledgeBase) -> bytes:
    """The index as format version 2 wrote it: the canonical document with
    its row-major base64 data, led by its checksum key."""
    head = _head_of(kb)
    head["version"] = 2
    head["embeddings"]["data"] = base64.b64encode(
        np.ascontiguousarray(kb._matrix, dtype="<f8").tobytes()
    ).decode("ascii")
    canonical = json.dumps(head, sort_keys=True, separators=(",", ":")).encode("utf-8")
    checksum = hashlib.sha256(canonical).hexdigest()
    return b'{"checksum":"%s",' % checksum.encode("ascii") + canonical[1:] + b"\n"


@pytest.mark.parametrize("older", ["v1", "v2", "v2_indented", "garbage_digest", "empty"])
def test_an_index_in_another_format_is_refused(older, kb, saved_kb, capsys):
    v2 = _version_2_bytes(kb)
    if older == "v1":
        doc = json.loads(v2)
        for record, row in zip(doc["primitives"], kb._matrix):
            record["embedding"] = row.tolist()
        doc["d_e"] = doc.pop("embeddings")["shape"][1]
        doc["version"] = 1
        raw = json.dumps(doc).encode("utf-8")
    elif older == "v2_indented":
        raw = json.dumps(json.loads(v2), indent=1).encode("utf-8")
    elif older == "garbage_digest":
        raw = b"not a digest\n" + saved_kb.read_bytes().split(b"\n", 1)[1]
    else:
        raw = {"v2": v2, "empty": b""}[older]
    saved_kb.write_bytes(raw)
    with pytest.raises(IndexLoadError, match="rebuild the index with build-kb"):
        KnowledgeBase.load(saved_kb)
    assert main(["query-kb", "ejection fraction", "--kb", str(saved_kb)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rebuild the index with build-kb" in err


def _v1_file(head, data):
    for record, row in zip(head["primitives"], index_matrix(head, data)):
        record["embedding"] = row.tolist()
    head["d_e"] = head.pop("embeddings")["shape"][1]
    head["version"] = 1


def _drop_embeddings(head, data):
    del head["embeddings"]


def _extra_byte(head, data):
    return data + b"\0"


def _wrong_dtype(head, data):
    head["embeddings"]["dtype"] = "<f4"


def _shape_disagrees_with_data(head, data):
    head["embeddings"]["shape"][0] += 1


def _rows_disagree_with_records(head, data):
    head["primitives"].pop()


def _primitive_not_object(head, data):
    head["primitives"][0] = 7


def _id_not_string(head, data):
    head["primitives"][0]["id"] = 5


def _text_not_string(head, data):
    head["primitives"][0]["text"] = 5


def _source_not_object(head, data):
    head["primitives"][0]["source"] = "kb.md"


def _entry_not_object(head, data):
    head["entries"][0] = "left ventricle"


def _primitives_not_a_list(head, data):
    head["primitives"] = 7


def _shape_claims_2_40_rows(head, data):
    head["embeddings"]["shape"][0] = 2**40


MALFORMED = [
    (None, "UTF-8"),
    (_v1_file, "rebuild the index with build-kb"),
    (_drop_embeddings, "'embeddings'"),
    (_extra_byte, "embeddings data holds"),
    (_wrong_dtype, "dtype '<f4'"),
    (_shape_disagrees_with_data, "embeddings data holds"),
    (_rows_disagree_with_records, "primitive records"),
    (_primitive_not_object, "primitive record #0"),
    (_id_not_string, "primitive record #0 needs a string 'id' and 'text'"),
    (_text_not_string, "primitive record #0 needs a string 'id' and 'text'"),
    (_source_not_object, "'source'"),
    (_entry_not_object, "entry record #0"),
    (_primitives_not_a_list, "'primitives' is not a list"),
    (_shape_claims_2_40_rows, f"not the {2**40 * 256 * 8} that shape"),
]
MALFORMED_IDS = ["not_utf8", "v1_file", "no_embeddings", "extra_byte", "wrong_dtype",
                 "shape_vs_data", "rows_vs_records", "primitive", "id", "text", "source",
                 "entry", "primitives_field", "shape_2_40_rows"]


def _malformed(path, corrupt, head_line) -> None:
    """Write the index at ``path`` back with ``corrupt`` applied, the head
    line written by ``head_line`` and the file resealed, so that only the
    corruption is wrong. ``corrupt`` edits the head in place and returns
    the data when it changes that too."""
    _, head, data = split_index(path.read_bytes())
    if corrupt is None:
        line = head_line(json.loads(head))
        # a byte that is not UTF-8 at the start of the first text
        start = line.index(b'"', line.index(b'"text":') + len(b'"text":')) + 1
        line = line[:start] + b"\xff" + line[start:]
    else:
        head = json.loads(head)
        data = corrupt(head, data) or data
        line = head_line(head)
    path.write_bytes(seal_index(line, data))


@pytest.mark.parametrize("corrupt, message", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_index_is_an_index_load_error_and_exit_one(
    corrupt, message, saved_kb, capsys
):
    # any JSON head line is read: here with spaces and keys in insertion order
    _malformed(saved_kb, corrupt, lambda head: json.dumps(head).encode("ascii"))
    with pytest.raises(IndexLoadError, match=message):
        KnowledgeBase.load(saved_kb)
    assert main(["query-kb", "ejection fraction", "--kb", str(saved_kb)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("corrupt, message", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_sealed_index_is_an_index_load_error_and_exit_one(
    corrupt, message, saved_kb, capsys
):
    # the corruption, its head line canonical as save writes it
    _malformed(saved_kb, corrupt, lambda head: json.dumps(
        head, sort_keys=True, separators=(",", ":")).encode("ascii"))
    size = saved_kb.stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(IndexLoadError, match=message):
            KnowledgeBase.load(saved_kb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # nothing of a claimed shape is made: load allocates for what the file holds
    assert peak < 4 * size
    assert main(["query-kb", "ejection fraction", "--kb", str(saved_kb)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_a_sealed_file_is_verified_before_it_is_parsed(saved_kb, monkeypatch):
    events = []
    real_sha256, real_parse = hashlib.sha256, index_module._parse

    class _LoggedDigest:
        def __init__(self, data=b""):
            self._hash = real_sha256(data)

        def update(self, data):
            self._hash.update(data)

        def hexdigest(self):
            events.append("checked")
            return self._hash.hexdigest()

    def logged_parse(data, path):
        events.append("parsed")
        return real_parse(data, path)

    monkeypatch.setattr(index_module.hashlib, "sha256", _LoggedDigest)
    monkeypatch.setattr(index_module, "_parse", logged_parse)
    KnowledgeBase.load(saved_kb)
    assert events == ["checked", "parsed"]


class _RewrittenBeforeData:
    """An open index file that ``rewrite()`` replaces just before its data is read."""

    def __init__(self, fh, rewrite):
        self._fh, self._rewrite = fh, rewrite

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def readinto(self, buffer):
        self._rewrite()
        return self._fh.readinto(buffer)


def test_a_file_rewritten_between_the_passes_is_refused(kb, saved_kb, monkeypatch):
    # another index is written over the file after its head was read,
    # before its data is: one as long, whose data fails the digest of the
    # head read, and a shorter one, whose data ends before the size taken
    head, matrix = _read(saved_kb)
    shorter = dict(head, primitives=head["primitives"][:-1])
    rewrites = [
        (seal_index(head, matrix_data(np.roll(matrix, 1, axis=0))), "checksum"),
        (seal_index(shorter, matrix_data(matrix[:-1])), "changed while it was read"),
    ]
    for rewritten, message in rewrites:
        kb.save(saved_kb)

        def open_then_rewrite(path, mode="r", *args, **kwargs):
            return _RewrittenBeforeData(open(path, mode, *args, **kwargs),
                                        lambda: saved_kb.write_bytes(rewritten))

        monkeypatch.setattr(index_module, "open", open_then_rewrite, raising=False)
        with pytest.raises(IndexLoadError, match=message):
            KnowledgeBase.load(saved_kb)
        monkeypatch.undo()


def test_added_embeddings_are_copied_even_when_no_row_moves(kb):
    rows = np.asfortranarray(kb._matrix.copy())
    fresh = KnowledgeBase()
    fresh.add_primitives([kb.primitives[pid] for pid in kb.ids], rows)
    assert fresh.ids == kb.ids
    assert not np.shares_memory(fresh._matrix, rows)


class _NamedEncoder(HashedBowEncoder):
    """A hashed-bow encoder that reports another id."""

    def __init__(self, dim, encoder_id):
        super().__init__(dim)
        self._id = encoder_id

    @property
    def encoder_id(self):
        return self._id


@pytest.mark.parametrize("built_with, encoder, message", [
    ("hashed-bow-256", HashedBowEncoder(128), "'hashed-bow-128'"),
    ("hashed-bow-256", _NamedEncoder(128, "hashed-bow-256"), "dim 128"),
    ("http:http://encoder.invalid", None, "no encoder"),
    ("http:http://encoder.invalid", HashedBowEncoder(256), "'hashed-bow-256'"),
], ids=["other_id", "other_dim", "unnamed_remote", "remote_given_local"])
def test_an_index_loads_only_with_the_encoder_that_built_it(
    saved_kb, built_with, encoder, message
):
    head, matrix = _read(saved_kb)
    assert head["embeddings"]["shape"][1] == 256
    head["encoder_id"] = built_with
    _write(saved_kb, head, matrix)
    with pytest.raises(IndexLoadError, match=message) as err:
        KnowledgeBase.load(saved_kb, encoder=encoder)
    assert repr(built_with) in str(err.value)


def test_the_encoder_that_built_an_index_loads_it(saved_kb):
    encoder = HashedBowEncoder(256)
    assert KnowledgeBase.load(saved_kb, encoder=encoder).encoder is encoder
    assert KnowledgeBase.load(saved_kb).encoder.encoder_id == "hashed-bow-256"


def _synthetic_kb(n: int) -> KnowledgeBase:
    """n primitives with random unit embeddings, a third of them per tag."""
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((n, 256))
    rows /= np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    tags = ({"left ventricle"}, set(), {"aorta"})
    kb = KnowledgeBase()
    kb.add_primitives(
        [make_primitive(f"s#{i:05d}", f"synthetic note {i}", tags[i % 3]) for i in range(n)], rows
    )
    if n:
        build_all_entries(kb, 8)
    return kb


def _head_of(kb: KnowledgeBase) -> dict:
    """The head ``save`` must write, assembled from the index."""
    return {
        "version": 3,
        "encoder_id": kb.encoder.encoder_id,
        "embeddings": {"dtype": "<f8", "shape": list(kb._matrix.shape)},
        "primitives": [
            {
                "id": pid,
                "text": kb.primitives[pid].text,
                "source": {
                    "doc": kb.primitives[pid].source.doc,
                    "start": kb.primitives[pid].source.start,
                    "end": kb.primitives[pid].source.end,
                },
                "tags": sorted(kb.primitives[pid].anatomy_tags),
            }
            for pid in kb.ids
        ],
        "entries": [kb.entries[name].to_json() for name in sorted(kb.entries)],
    }


@pytest.mark.parametrize("rows", ["none", "one", "block-1", "block", "block+1", "fixture"])
def test_streamed_file_equals_the_whole_document(rows, corpus_dir, tmp_path):
    # the file save writes equals the one assembled from the whole head and
    # the matrix copied out column by column
    if rows == "fixture":
        kb = _built(load_corpus(corpus_dir), False)
    else:
        kb = _synthetic_kb({"none": 0, "one": 1, "block-1": 383, "block": 384, "block+1": 385}[rows])
    kb.save(tmp_path / "kb.json")
    saved = (tmp_path / "kb.json").read_bytes()
    whole = np.ascontiguousarray(kb._matrix, dtype="<f8").tobytes(order="F")
    assert saved == seal_index(_head_of(kb), whole)
    if rows == "none":
        assert split_index(saved)[2] == b""
    assert np.array_equal(KnowledgeBase.load(tmp_path / "kb.json")._matrix, kb._matrix)


@pytest.mark.parametrize("old", ["longer", "shorter"])
def test_saving_over_an_index_rewrites_it_in_place(old, kb, saved_kb, tmp_path, monkeypatch):
    fresh = saved_kb.read_bytes()
    target = tmp_path / "over.json"
    target.write_bytes(fresh * 2 if old == "longer" else fresh[: len(fresh) // 3])
    before = target.stat()
    sizes_at_open = []

    def spy_open(fd, mode, *args, **kwargs):
        fh = open(fd, mode, *args, **kwargs)
        sizes_at_open.append(os.fstat(fd).st_size)
        return fh

    monkeypatch.setattr(files_module, "open", spy_open, raising=False)
    kb.save(target)
    # the old file is not truncated to zero first
    assert sizes_at_open == [before.st_size]
    assert target.stat().st_ino == before.st_ino
    assert target.read_bytes() == fresh


def test_saving_through_a_symlink_writes_its_target(kb, saved_kb, tmp_path):
    target = tmp_path / "target.json"
    target.write_bytes(b"x" * 100)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    kb.save(link)
    assert link.is_symlink()
    assert target.read_bytes() == saved_kb.read_bytes()


class _DiesInTheMatrix:
    """An index file open for writing whose write of the matrix fails halfway."""

    def __init__(self, fh):
        self._fh = fh

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def write(self, data):
        if isinstance(data, memoryview):
            flat = data.cast("B")
            self._fh.write(flat[:len(flat) // 2])
            raise OSError("no space left on device")
        return self._fh.write(data)


def test_an_index_whose_save_died_is_refused(kb, tmp_path, monkeypatch, capsys):
    # the save dies after writing its digest line and head, halfway through
    # the matrix
    path = tmp_path / "kb.json"
    monkeypatch.setattr(files_module, "open",
                        lambda *args: _DiesInTheMatrix(open(*args)), raising=False)
    with pytest.raises(OSError):
        kb.save(path)
    monkeypatch.undo()
    assert 0 < len(split_index(path.read_bytes())[2]) < kb._matrix.nbytes
    with pytest.raises(IndexLoadError, match="checksum"):
        KnowledgeBase.load(path)
    assert main(["query-kb", "ejection fraction", "--kb", str(path)]) == 1
    assert "checksum" in capsys.readouterr().err


# bytes traced per byte of the head line. Save was measured at 1.05: it
# writes each primitive record into the one buffer that becomes the line.
# Load was measured at 11.9 beside the matrix: it holds the parsed head and
# the primitives built from it.
SAVE_PEAK_PER_HEAD_BYTE = 2
LOAD_PEAK_PER_HEAD_BYTE = 16


@pytest.fixture(scope="module")
def large_kb():
    return _synthetic_kb(3000)


def _traced_peak(work) -> tuple[object, int]:
    tracemalloc.start()
    try:
        result = work()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_save_holds_less_than_two_matrices(large_kb, tmp_path):
    # the matrix goes out from its own buffer: save holds the head and no
    # copy of the matrix
    path = tmp_path / "kb.json"
    _, peak = _traced_peak(lambda: large_kb.save(path))
    head = len(split_index(path.read_bytes())[1])
    assert peak < large_kb._matrix.nbytes
    assert peak < SAVE_PEAK_PER_HEAD_BYTE * head


def test_load_holds_at_most_two_copies_of_the_file(large_kb, tmp_path):
    # the data is read straight into the buffer the matrix keeps, beside
    # the head
    path = tmp_path / "kb.json"
    large_kb.save(path)
    loaded, peak = _traced_peak(lambda: KnowledgeBase.load(path))
    head = len(split_index(path.read_bytes())[1])
    assert np.array_equal(loaded._matrix, large_kb._matrix)
    assert peak < large_kb._matrix.nbytes + LOAD_PEAK_PER_HEAD_BYTE * head
