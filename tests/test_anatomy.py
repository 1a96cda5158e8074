import inspect

from hypothesis import given, settings

from conftest import tagging_texts
from oracles import seed_match_text

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
