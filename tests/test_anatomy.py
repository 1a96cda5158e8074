import inspect

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import tagging_texts
from oracles import flat_keywords_in, seed_match_text

from echoagent import anatomy


def test_exactly_fourteen_groups_with_unique_names():
    assert len(anatomy.ANATOMY_GROUPS) == 14
    assert len(set(anatomy.ANATOMY_NAMES)) == 14


def test_every_group_has_keywords():
    for group in anatomy.ANATOMY_GROUPS:
        assert group.keywords


def test_keyword_match_is_case_insensitive_substring():
    tags = anatomy.match_text("LEFT VENTRICULAR ejection fraction was measured")
    assert "left ventricle" in tags


def test_valve_text_does_not_leak_into_ventricle_group():
    tags = anatomy.match_text("the mitral valve leaflets appear thickened")
    assert tags == {"mitral valve"}


def test_aortic_valve_and_aorta_are_distinct():
    assert anatomy.match_text("calcified aortic valve") == {"aortic valve"}
    assert anatomy.match_text("dilated ascending aorta") == {"aorta"}


def test_dominant_group_prefers_most_hits_then_name():
    text = "left ventricle and left ventricular walls, plus the mitral annulus"
    winner = anatomy.dominant_group(text, frozenset({"left ventricle", "mitral valve"}))
    assert winner == "left ventricle"
    # all-zero hit counts fall back to ascending canonical name
    winner = anatomy.dominant_group("nothing relevant", frozenset({"pericardium", "aorta"}))
    assert winner == "aorta"


def test_group_by_name_rejects_unknown():
    import pytest

    with pytest.raises(KeyError):
        anatomy.group_by_name("spleen")


def test_match_text_takes_the_text_alone():
    # the benchmark's corpus writer calls match_text(text)
    assert list(inspect.signature(anatomy.match_text).parameters) == ["text"]


def test_the_keyword_table_holds_every_groups_keywords_in_order():
    assert anatomy.KEYWORD_TABLE == tuple(
        (kw, g.canonical_name) for g in anatomy.ANATOMY_GROUPS for kw in g.keywords)


@settings(max_examples=300, deadline=None)
@given(text=tagging_texts())
def test_match_text_equals_the_seeds_per_group_scan(text):
    assert anatomy.match_text(text) == seed_match_text(text)
    assert anatomy.keywords_in(text, anatomy.keywords_in(text)) == anatomy.keywords_in(text)


def test_every_keyword_sits_under_the_one_stem_it_holds():
    rows = [row for _, held in anatomy.STEM_TABLE for row in held]
    assert sorted(rows) == sorted(anatomy.KEYWORD_TABLE)
    assert all(stem in kw for stem, held in anatomy.STEM_TABLE for kw, _ in held)
    assert [stem for stem, _ in anatomy.STEM_TABLE] == list(anatomy.KEYWORD_STEMS)


@pytest.mark.parametrize("keyword, held", [("spleen", 0), ("aortic ventricle", 2)],
                         ids=["no_stem", "two_stems"])
def test_a_table_whose_keyword_holds_not_exactly_one_stem_is_refused(keyword, held):
    with pytest.raises(ValueError, match=f"keyword '{keyword}' holds {held} of the stems"):
        anatomy.stem_table(anatomy.KEYWORD_TABLE + ((keyword, "aorta"),))


_KEYWORDS = [kw for kw, _ in anatomy.KEYWORD_TABLE]
# keywords, stems and keyword halves in several cases, glued so that halves
# can meet across words, beside letters whose lowercase forms are ASCII
# ("\u212a" is KELVIN SIGN, "k") or change length ("\u0130")
STEM_WORDS = st.one_of(
    st.sampled_from(_KEYWORDS),
    st.sampled_from(anatomy.KEYWORD_STEMS),
    st.sampled_from([kw[:i] for kw in _KEYWORDS for i in range(1, len(kw))]),
    st.sampled_from([kw[i:] for kw in _KEYWORDS for i in range(1, len(kw))]),
    st.sampled_from(["\u0130", "\u212a", "pulmonary trun\u212a", "LEFT ATR\u0130UM", " "]),
).flatmap(lambda word: st.sampled_from([word, word.upper(), word.title()]))


@settings(max_examples=500, deadline=None)
@given(text=st.lists(STEM_WORDS, max_size=12).map("".join))
@example(text="")
@example(text="Pulmonary Trun\u212a and the LEFT VENTRICLE")
def test_keywords_in_finds_the_rows_of_a_scan_of_every_keyword(text):
    found = anatomy.keywords_in(text)
    rows = [row for _, held in found for row in held]
    assert len(rows) == len(set(rows))
    assert set(rows) == flat_keywords_in(text)
    assert all(held for _, held in found)
