import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tagging_texts

from echoagent import anatomy
from echoagent.errors import IngestError
from echoagent.kb.chunking import KnowledgePrimitive, SourceSpan, ingest_document, load_corpus


def test_empty_document_yields_no_primitives():
    assert ingest_document("", "doc") == []
    assert ingest_document("   \n\n  ", "doc") == []


def test_three_short_nonmergeable_paragraphs_yield_three_chunks():
    # each paragraph is ~47 chars; any pairwise merge exceeds the 80-char cap
    paragraphs = [
        "Alpha bravo charlie delta echo foxtrot golfers.",
        "Hotel india juliet kilo lima mike november oscar.",
        "Papa quebec romeo sierra tango uniform victor what.",
    ]
    doc = "\n\n".join(paragraphs)
    primitives = ingest_document(doc, "source", max_chunk_chars=80)
    assert [p.id for p in primitives] == ["source#0", "source#1", "source#2"]
    assert [p.text for p in primitives] == paragraphs


def test_adjacent_paragraphs_merge_up_to_the_cap():
    doc = "one two.\n\nthree four.\n\nfive six."
    merged = ingest_document(doc, "s", max_chunk_chars=800)
    assert len(merged) == 1
    assert merged[0].text == doc


def test_chunk_length_invariant_holds_for_oversize_paragraphs():
    sentence = "This sentence is about forty characters. "
    doc = sentence * 40  # one huge paragraph
    primitives = ingest_document(doc, "big", max_chunk_chars=200)
    assert len(primitives) > 1
    for p in primitives:
        assert 0 < len(p.text) <= 200


def test_keyword_auto_tagging():
    [p] = ingest_document("left ventricular ejection fraction is low.", "doc")
    assert "left ventricle" in p.anatomy_tags


def test_explicit_tags_union_with_keyword_tags():
    [p] = ingest_document(
        "left ventricular function.", "doc", explicit_tags={"pericardium"}
    )
    assert p.anatomy_tags >= {"left ventricle", "pericardium"}


def test_unknown_explicit_tag_rejected():
    with pytest.raises(IngestError):
        ingest_document("text here.", "doc", explicit_tags={"gallbladder"})


def test_source_span_offsets_recover_the_chunk():
    doc = "first paragraph here.\n\nsecond paragraph follows."
    primitives = ingest_document(doc, "doc", max_chunk_chars=30)
    for p in primitives:
        assert doc[p.source.start : p.source.end].strip() == p.text


def test_corpus_loader_reads_sidecar_tags(tmp_path):
    (tmp_path / "notes.txt").write_text("general text with no keywords.\n")
    (tmp_path / "notes.tags").write_text("pericardium\n")
    [p] = load_corpus(tmp_path)
    assert p.anatomy_tags == {"pericardium"}


def test_corpus_loader_names_undecodable_byte_offset(tmp_path):
    (tmp_path / "bad.txt").write_bytes(b"fine until \xff\xfe here")
    with pytest.raises(IngestError, match="offset 11"):
        load_corpus(tmp_path)


def test_corpus_loader_requires_directory(tmp_path):
    with pytest.raises(IngestError):
        load_corpus(tmp_path / "missing")


@settings(max_examples=300, deadline=None)
@given(doc=tagging_texts(), limit=st.integers(min_value=4, max_value=120),
       explicit=st.frozensets(st.sampled_from(anatomy.ANATOMY_NAMES), max_size=2))
def test_each_chunk_is_tagged_as_match_text_tags_its_text(doc, limit, explicit):
    # small limits split paragraphs at sentences and inside words, so a
    # keyword of the document can straddle two chunks and tag neither
    for p in ingest_document(doc, "doc", explicit, max_chunk_chars=limit):
        assert p.anatomy_tags == anatomy.match_text(p.text) | explicit


@pytest.mark.parametrize("doc, texts", [
    ("The pericardium.\n\n" + "a" * 800 + "   \n", ["The pericardium.", "a" * 800]),
    ("a" * 800 + "   \n\n" + "b" * 900, ["a" * 800, "b" * 800, "b" * 100]),
], ids=["last_chunk", "mid_document"])
def test_a_hard_split_that_leaves_only_whitespace_makes_no_primitive(doc, texts):
    primitives = ingest_document(doc, "doc")
    assert [p.id for p in primitives] == [f"doc#{i}" for i in range(len(texts))]
    assert [p.text for p in primitives] == texts


def test_a_document_keyword_tags_only_the_chunks_that_hold_it():
    # a hard split cuts the keyword, so no chunk holds it whole
    doc = "x" * 10 + "pericardium" + "y" * 10
    primitives = ingest_document(doc, "doc", max_chunk_chars=15)
    assert "pericardium" in doc and len(primitives) == 3
    assert all(p.anatomy_tags == frozenset() for p in primitives)


def test_an_over_long_sentence_is_cut_between_words():
    doc = "pericardium " * 100
    primitives = ingest_document(doc, "doc", max_chunk_chars=50)
    assert len(primitives) > 1
    for p in primitives:
        assert len(doc[p.source.start:p.source.end]) <= 50
        assert set(p.text.split()) == {"pericardium"}
        assert p.anatomy_tags == {"pericardium"}
    assert sum(len(p.text.split()) for p in primitives) == 100


@pytest.mark.parametrize(("doc", "last", "tags"), [
    # the last whitespace within 800 characters falls inside "left ventricle"
    ("The " + "wall " * 158 + "left ventricle is thick.", "left ventricle is thick.",
     {"left ventricle"}),
    # "ventricular septal" straddles the cut, and cutting before it would
    # split "right ventricular", so the cut moves before that as well
    ("The " + "wall " * 154 + "right ventricular septalthickeningisseen here.",
     "right ventricular septalthickeningisseen here.",
     {"right ventricle", "interventricular septum"}),
], ids=["one-keyword", "overlapping-keywords"])
def test_an_over_long_sentence_is_cut_before_a_keyword_that_straddles_the_cut(doc, last, tags):
    primitives = ingest_document(doc, "doc")
    assert [p.text for p in primitives][1:] == [last]
    assert primitives[-1].anatomy_tags == tags
    assert all(len(doc[p.source.start:p.source.end]) <= 800 for p in primitives)


def test_corpus_loader_refuses_two_documents_with_one_stem(tmp_path):
    (tmp_path / "a.txt").write_text("The pericardium is thin.\n")
    (tmp_path / "a.md").write_text("The aortic root is dilated.\n")
    (tmp_path / "a.tags").write_text("aorta\n")
    with pytest.raises(IngestError, match="a.md and a.txt share the stem 'a'"):
        load_corpus(tmp_path)


def test_corpus_loader_ignores_a_dangling_tags_link(tmp_path):
    (tmp_path / "notes.txt").write_text("The pericardium is thin.\n")
    (tmp_path / "notes.tags").symlink_to(tmp_path / "missing.tags")
    [p] = load_corpus(tmp_path)
    assert p.anatomy_tags == {"pericardium"}


def test_corpus_loader_reads_documents_in_name_order(tmp_path):
    # "a-b.txt" sorts before "a.txt" by name, though "a#0" sorts before "a-b#0"
    for name in ("b.md", "a.txt", "a-b.txt", "B.txt"):
        (tmp_path / name).write_text(f"Notes of {name}.\n")
    assert [p.id for p in load_corpus(tmp_path)] == ["B#0", "a-b#0", "a#0", "b#0"]


def test_a_primitive_refuses_unknown_anatomy_tags_naming_them():
    with pytest.raises(ValueError, match=r"unknown anatomy tags: \['gallbladder', 'spleen'\]"):
        KnowledgePrimitive("doc#0", "text", SourceSpan("doc", 0, 4),
                           frozenset({"spleen", "aorta", "gallbladder"}))
    assert KnowledgePrimitive("doc#0", "text", SourceSpan("doc", 0, 4),
                              {"aorta"}).anatomy_tags == {"aorta"}


def test_corpus_loader_reads_names_as_pathlib_splits_them(tmp_path):
    # ".txt" has no suffix; a suffix matches in any case; the stem keeps
    # every dot but the last
    for name in (".txt", "A.TXT", "a.b.txt", "c.md.bak", "d.", "e.Md"):
        (tmp_path / name).write_text(f"Notes of {name}.\n")
    (tmp_path / "a.b.tags").write_text("aorta\n")
    primitives = load_corpus(tmp_path)
    assert [p.id for p in primitives] == ["A#0", "a.b#0", "e#0"]
    assert [p.text for p in primitives] == ["Notes of A.TXT.", "Notes of a.b.txt.", "Notes of e.Md."]
    assert [p.anatomy_tags for p in primitives] == [set(), {"aorta"}, set()]
