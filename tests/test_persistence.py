import base64
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from conftest import make_primitive

from echoagent.cli import main
from echoagent.errors import IndexLoadError
from echoagent.kb import index as index_module
from echoagent.kb.chunking import load_corpus
from echoagent.kb.encoder import HashedBowEncoder
from echoagent.kb.index import KnowledgeBase, _checksum
from echoagent.kb.summarize import build_all_entries


def _reseal(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("checksum", None)
    doc["checksum"] = _checksum(doc)
    return doc


def _embeddings(doc: dict) -> np.ndarray:
    block = doc["embeddings"]
    data = base64.b64decode(block["data"], validate=True)
    return np.frombuffer(data, dtype="<f8").reshape(block["shape"]).copy()


def _set_embeddings(doc: dict, matrix: np.ndarray) -> None:
    doc["embeddings"]["shape"] = list(matrix.shape)
    doc["embeddings"]["data"] = base64.b64encode(matrix.astype("<f8").tobytes()).decode("ascii")


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
    doc = json.loads(saved_kb.read_text())
    matrix = _embeddings(doc)
    matrix[1] = 0.0
    matrix[1, 0] = 0.5
    _set_embeddings(doc, matrix)
    offender = doc["primitives"][1]["id"]
    saved_kb.write_text(json.dumps(_reseal(doc)))
    with pytest.raises(IndexLoadError, match=offender):
        KnowledgeBase.load(saved_kb)



def test_records_and_rows_in_any_order_load_to_the_same_index(saved_kb, tmp_path):
    doc = json.loads(saved_kb.read_text())
    doc["primitives"].reverse()
    _set_embeddings(doc, _embeddings(doc)[::-1])
    reordered = tmp_path / "reordered.json"
    reordered.write_text(json.dumps(_reseal(doc)))
    saved, loaded = KnowledgeBase.load(saved_kb), KnowledgeBase.load(reordered)
    assert loaded.ids == saved.ids
    assert {name: rows.tolist() for name, rows in loaded.group_rows.items()} == {
        name: rows.tolist() for name, rows in saved.group_rows.items()
    }
    assert loaded.tagged_rows.tolist() == saved.tagged_rows.tolist()
    assert np.array_equal(loaded._matrix, saved._matrix)

def test_dangling_supporting_id_rejected(saved_kb):
    doc = json.loads(saved_kb.read_text())
    doc["entries"][0]["supporting_primitive_ids"] = ["ghost#99"]
    saved_kb.write_text(json.dumps(_reseal(doc)))
    with pytest.raises(IndexLoadError, match="ghost#99"):
        KnowledgeBase.load(saved_kb)


def test_checksum_tamper_rejected(saved_kb):
    doc = json.loads(saved_kb.read_text())
    doc["primitives"][0]["text"] = "tampered text"
    # deliberately do NOT recompute the checksum
    saved_kb.write_text(json.dumps(doc))
    with pytest.raises(IndexLoadError, match="checksum"):
        KnowledgeBase.load(saved_kb)


def test_version_mismatch_rejected(saved_kb):
    doc = json.loads(saved_kb.read_text())
    doc["version"] = 999
    saved_kb.write_text(json.dumps(_reseal(doc)))
    with pytest.raises(IndexLoadError, match="version"):
        KnowledgeBase.load(saved_kb)


def test_duplicate_primitive_id_rejected(saved_kb):
    doc = json.loads(saved_kb.read_text())
    doc["primitives"].append(dict(doc["primitives"][0]))
    matrix = _embeddings(doc)
    _set_embeddings(doc, np.vstack([matrix, matrix[:1]]))
    saved_kb.write_text(json.dumps(_reseal(doc)))
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

    doc = json.loads(saved)
    assert sorted(doc) == ["checksum", "embeddings", "encoder_id", "entries", "primitives", "version"]
    assert doc["embeddings"]["dtype"] == "<f8"
    assert [record["id"] for record in doc["primitives"]] == first.ids
    assert all("embedding" not in record for record in doc["primitives"])
    assert np.array_equal(_embeddings(doc), first._matrix)


def test_loading_a_saved_file_never_reserialises_it(saved_kb, monkeypatch):
    calls = []
    real_checksum = index_module._checksum

    def counting_checksum(doc):
        calls.append(1)
        return real_checksum(doc)

    monkeypatch.setattr(index_module, "_checksum", counting_checksum)
    KnowledgeBase.load(saved_kb)
    assert calls == []
    # a file not written by save still gets the canonical check
    saved_kb.write_text(json.dumps(json.loads(saved_kb.read_text())))
    KnowledgeBase.load(saved_kb)
    assert calls == [1]


def test_one_digit_edit_in_a_canonical_file_rejected(saved_kb):
    text = saved_kb.read_text()
    # flip the first digit of the base64 embedding data to another digit,
    # which keeps the data valid base64 of the same length
    match = re.search(r'"data":"[^"0-9]*([0-9])', text)
    digit = match.group(1)
    edited = text[:match.start(1)] + str((int(digit) + 1) % 10) + text[match.end(1):]
    saved_kb.write_text(edited)
    with pytest.raises(IndexLoadError, match="checksum"):
        KnowledgeBase.load(saved_kb)


def _v1_file(doc):
    for record, row in zip(doc["primitives"], _embeddings(doc)):
        record["embedding"] = row.tolist()
    doc["d_e"] = doc.pop("embeddings")["shape"][1]
    doc["version"] = 1


def _drop_embeddings(doc):
    del doc["embeddings"]


def _bad_base64(doc):
    doc["embeddings"]["data"] = "!" + doc["embeddings"]["data"][1:]


def _wrong_dtype(doc):
    doc["embeddings"]["dtype"] = "<f4"


def _shape_disagrees_with_data(doc):
    doc["embeddings"]["shape"][0] += 1


def _rows_disagree_with_records(doc):
    doc["primitives"].pop()


def _primitive_not_object(doc):
    doc["primitives"][0] = 7


def _id_not_string(doc):
    doc["primitives"][0]["id"] = 5


def _text_not_string(doc):
    doc["primitives"][0]["text"] = 5


def _source_not_object(doc):
    doc["primitives"][0]["source"] = "kb.md"


def _entry_not_object(doc):
    doc["entries"][0] = "left ventricle"


def _primitives_not_a_list(doc):
    doc["primitives"] = 7


def _shape_claims_2_40_rows(doc):
    doc["embeddings"]["shape"][0] = 2**40


MALFORMED = [
    (None, "UTF-8"),
    (_v1_file, "rebuild the index with build-kb"),
    (_drop_embeddings, "'embeddings'"),
    (_bad_base64, "not valid base64"),
    (_wrong_dtype, "dtype '<f4'"),
    (_shape_disagrees_with_data, "embeddings data holds"),
    (_rows_disagree_with_records, "primitive records"),
    (_primitive_not_object, "primitive record #0"),
    (_id_not_string, "primitive record #0 needs a string 'id' and 'text'"),
    (_text_not_string, "primitive record #0 needs a string 'id' and 'text'"),
    (_source_not_object, "'source'"),
    (_entry_not_object, "entry record #0"),
    (_primitives_not_a_list, "'primitives' is not a list"),
    (_shape_claims_2_40_rows, f"for {2**40 * 256 * 8} bytes"),
]
MALFORMED_IDS = ["not_utf8", "v1_file", "no_embeddings", "bad_base64", "wrong_dtype",
                 "shape_vs_data", "rows_vs_records", "primitive", "id", "text", "source",
                 "entry", "primitives_field", "shape_2_40_rows"]


@pytest.mark.parametrize("corrupt, message", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_index_is_an_index_load_error_and_exit_one(
    corrupt, message, saved_kb, capsys
):
    if corrupt is None:
        saved_kb.write_bytes(saved_kb.read_bytes().replace(b'"text":"', b'"text":"\xff', 1))
    else:
        doc = json.loads(saved_kb.read_text())
        corrupt(doc)
        saved_kb.write_text(json.dumps(_reseal(doc)))
    with pytest.raises(IndexLoadError, match=message):
        KnowledgeBase.load(saved_kb)
    assert main(["query-kb", "ejection fraction", "--kb", str(saved_kb)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("corrupt, message", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_sealed_index_is_an_index_load_error_and_exit_one(
    corrupt, message, saved_kb, capsys
):
    # the corruption, written as save writes a file: the checksum of the
    # bytes first, so the byte check passes and load streams the file
    doc = json.loads(saved_kb.read_text())
    del doc["checksum"]
    if corrupt is None:
        canonical = _canonical_bytes(doc).replace(b'"text":"', b'"text":"\xff', 1)
    else:
        corrupt(doc)
        canonical = _canonical_bytes(doc)
    saved_kb.write_bytes(_sealed(canonical))
    tracemalloc.start()
    try:
        with pytest.raises(IndexLoadError, match=message):
            KnowledgeBase.load(saved_kb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # nothing of a claimed shape is made before the data's length is checked
    assert peak < 2**24
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

        def copy(self):
            copied = _LoggedDigest()
            copied._hash = self._hash.copy()
            return copied

        def digest(self):
            return self._hash.digest()

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


def test_a_file_rewritten_between_the_passes_is_refused(saved_kb, monkeypatch):
    # another index is written over the file after its digest was checked,
    # before its data is decoded
    real_parse = index_module._parse
    other = json.loads(saved_kb.read_text())
    del other["checksum"]
    matrix = _embeddings(other)
    _set_embeddings(other, np.roll(matrix, 1, axis=0))
    rewritten = _sealed(_canonical_bytes(other))

    def parse_then_rewrite(data, path):
        doc = real_parse(data, path)
        saved_kb.write_bytes(rewritten)
        return doc

    monkeypatch.setattr(index_module, "_parse", parse_then_rewrite)
    with pytest.raises(IndexLoadError, match="changed while it was read"):
        KnowledgeBase.load(saved_kb)


def test_padding_inside_the_streamed_data_is_refused(tmp_path):
    # the first block of rows ends in "=": each block decodes on its own,
    # but not to the bytes of its rows
    kb = _synthetic_kb(index_module._SAVE_BLOCK_ROWS + 1)
    path = tmp_path / "kb.json"
    kb.save(path)
    doc = json.loads(path.read_text())
    del doc["checksum"]
    digits = index_module._SAVE_BLOCK_ROWS * 256 * 8 // 3 * 4
    data = doc["embeddings"]["data"]
    doc["embeddings"]["data"] = data[:digits - 1] + "=" + data[digits:]
    path.write_bytes(_sealed(_canonical_bytes(doc)))
    with pytest.raises(IndexLoadError, match="not valid base64: rows 0 to 383"):
        KnowledgeBase.load(path)


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
    doc = json.loads(saved_kb.read_text())
    assert doc["embeddings"]["shape"][1] == 256
    doc["encoder_id"] = built_with
    saved_kb.write_text(json.dumps(_reseal(doc)))
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


def _fresh_bytes(kb: KnowledgeBase) -> bytes:
    """The file ``save`` must write, assembled from the whole document."""
    doc = {
        "version": 2,
        "encoder_id": kb.encoder.encoder_id,
        "embeddings": {
            "dtype": "<f8",
            "shape": list(kb._matrix.shape),
            "data": base64.b64encode(
                np.ascontiguousarray(kb._matrix, dtype="<f8").tobytes()
            ).decode("ascii"),
        },
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
    return _sealed(_canonical_bytes(doc))


def _canonical_bytes(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _sealed(canonical: bytes) -> bytes:
    """The file ``save`` writes for the canonical document bytes."""
    checksum = hashlib.sha256(canonical).hexdigest()
    return b'{"checksum":"%s",' % checksum.encode("ascii") + canonical[1:] + b"\n"


@pytest.mark.parametrize("rows", ["none", "one", "block-1", "block", "block+1", "fixture"])
def test_streamed_file_equals_the_whole_document(rows, corpus_dir, tmp_path):
    block = index_module._SAVE_BLOCK_ROWS
    if rows == "fixture":
        kb = _built(load_corpus(corpus_dir), False)
    else:
        n = {"none": 0, "one": 1, "block-1": block - 1, "block": block, "block+1": block + 1}[rows]
        kb = _synthetic_kb(n)
    kb.save(tmp_path / "kb.json")
    saved = (tmp_path / "kb.json").read_bytes()
    assert saved == _fresh_bytes(kb)
    if rows == "none":
        assert b'"data":""' in saved
    assert np.array_equal(KnowledgeBase.load(tmp_path / "kb.json")._matrix, kb._matrix)


@pytest.mark.parametrize("old", ["longer", "shorter"])
def test_saving_over_an_index_rewrites_it_in_place(old, kb, saved_kb, tmp_path, monkeypatch):
    fresh = saved_kb.read_bytes()
    target = tmp_path / "over.json"
    target.write_bytes(fresh * 2 if old == "longer" else fresh[: len(fresh) // 3])
    modes = []

    def spy_open(path, mode="r", *args, **kwargs):
        modes.append(mode)
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(index_module, "open", spy_open, raising=False)
    kb.save(target)
    # the old file is not truncated to zero first
    assert modes == ["r+b"]
    assert target.read_bytes() == fresh


def test_saving_through_a_symlink_writes_its_target(kb, saved_kb, tmp_path):
    target = tmp_path / "target.json"
    target.write_bytes(b"x" * 100)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    kb.save(link)
    assert link.is_symlink()
    assert target.read_bytes() == saved_kb.read_bytes()


def test_an_index_whose_checksum_was_never_filled_is_refused(kb, tmp_path, monkeypatch, capsys):
    # the save dies after writing the document, before filling the digits
    # it reserved for the checksum
    real_sha256 = hashlib.sha256

    class _DiesAtDigest:
        def __init__(self, data=b""):
            self._hash = real_sha256(data)

        def update(self, data):
            self._hash.update(data)

        def hexdigest(self):
            raise RuntimeError("died before the checksum was written")

    path = tmp_path / "kb.json"
    monkeypatch.setattr(index_module.hashlib, "sha256", _DiesAtDigest)
    with pytest.raises(RuntimeError):
        kb.save(path)
    monkeypatch.undo()
    assert path.read_bytes().endswith(b"\n")
    with pytest.raises(IndexLoadError, match="checksum"):
        KnowledgeBase.load(path)
    assert main(["query-kb", "ejection fraction", "--kb", str(path)]) == 1
    assert "checksum" in capsys.readouterr().err


@pytest.fixture(scope="module")
def large_kb():
    return _synthetic_kb(3000)


def test_save_holds_less_than_two_matrices(large_kb, tmp_path):
    # the base64 data goes out a block of rows at a time: no whole copy of
    # the matrix, its base64 or the document's text is ever held
    tracemalloc.start()
    try:
        large_kb.save(tmp_path / "kb.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * large_kb._matrix.nbytes


def test_load_holds_at_most_two_copies_of_the_file(large_kb, tmp_path):
    # a saved file is read in blocks: its base64 data is decoded a block of
    # rows at a time into the matrix the index keeps, beside the rest of the
    # document
    large_kb.save(tmp_path / "kb.json")
    tracemalloc.start()
    try:
        loaded = KnowledgeBase.load(tmp_path / "kb.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded._matrix, large_kb._matrix)
    assert peak < 2.0 * large_kb._matrix.nbytes
