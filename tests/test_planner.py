import pytest

from echoagent.config import EngineConfig
from echoagent.errors import PlanningError
from echoagent.hub.engine import DiagnosticQuery
from echoagent.hub.planning import plan_steps
from echoagent.kb.summarize import empty_entry
from echoagent.kb.summarize import RepositoryEntry
from echoagent.tools.registry import ToolDescriptor
from echoagent.tools.schema import FieldSpec
from echoagent.tools.views import DEFAULT_TAXONOMY


@pytest.fixture()
def lv_query():
    return DiagnosticQuery(
        "Is the ejection fraction normal?", study_refs=("studies/a2c", "studies/a4c")
    )


def test_lv_fixture_compiles_to_the_canonical_step_sequence(kb, registry, lv_query):
    plan = plan_steps(kb.entries["left ventricle"], lv_query, registry, DEFAULT_TAXONOMY)
    ops = [(s.inputs["op"], s.inputs.get("view"), s.inputs.get("phase")) for s in plan.steps]
    assert ops == [
        ("classify_view", None, None),
        ("classify_view", None, None),
        ("segment", "apical-2-chamber", "ED"),
        ("segment", "apical-2-chamber", "ES"),
        ("segment", "apical-4-chamber", "ED"),
        ("segment", "apical-4-chamber", "ES"),
        ("volume", None, "ED"),
        ("volume", None, "ES"),
        ("ef", None, None),
        ("grade", None, None),
    ]
    assert [s.step_id for s in plan.steps] == list(range(10))
    assert all(s.origin == "planned" for s in plan.steps)


def test_empty_entry_gives_empty_plan_with_warning(registry, lv_query):
    plan = plan_steps(empty_entry("left ventricle", 8), lv_query, registry, DEFAULT_TAXONOMY)
    assert plan.steps == []
    assert plan.warnings and "no guidance" in plan.warnings[0]


def test_tool_tie_resolves_lexicographically_with_warning(kb, registry, lv_query):
    registry.register(
        ToolDescriptor(
            name="aaa.segmenter", layer="operational",
            input_schema=(
                FieldSpec("study_dir", "string"),
                FieldSpec("phase", "string"),
                FieldSpec("target", "string"),
            ),
            output_schema=(FieldSpec("mask", "mask"),),
            backend="mock",
        ),
        lambda inputs, ctx: ({}, 1.0),
    )
    plan = plan_steps(kb.entries["left ventricle"], lv_query, registry, DEFAULT_TAXONOMY)
    segment_tools = {s.tool_name for s in plan.steps if s.inputs["op"] == "segment"}
    assert segment_tools == {"aaa.segmenter"}
    assert any("aaa.segmenter" in w for w in plan.warnings)


def test_missing_capability_is_a_planning_error_naming_the_gap(kb, lv_query):
    from echoagent.tools.backends import register_perception_tools
    from echoagent.tools.registry import ToolRegistry

    bare = ToolRegistry()
    register_perception_tools(bare, EngineConfig())  # no functional layer registered
    with pytest.raises(PlanningError, match="volume_ml"):
        plan_steps(kb.entries["left ventricle"], lv_query, bare, DEFAULT_TAXONOMY)


def test_pericardium_fixture_compiles_to_classify_segment_area(kb, registry):
    query = DiagnosticQuery(
        "Is the pericardium normal or thickened?", study_refs=("studies/plax",),
        options=("normal pericardium", "pericardial thickening"),
    )
    plan = plan_steps(kb.entries["pericardium"], query, registry, DEFAULT_TAXONOMY)
    ops = [s.inputs["op"] for s in plan.steps]
    assert ops == ["classify_view", "segment", "area"]
    assert plan.views == ["parasternal-long-axis"]
    assert plan.structures == ["pericardium"]


def test_view_only_corpus_entry_plans_without_quant_steps(registry, lv_query):
    entry = RepositoryEntry(
        anatomy="aorta",
        sections={
            "views_to_acquire": ["Use the parasternal long-axis view."],
            "structures_to_segment": [],
            "measurements": [],
            "diagnostic_criteria": [],
        },
        supporting_primitive_ids=[],
        created_from_k=8,
    )
    plan = plan_steps(entry, lv_query, registry, DEFAULT_TAXONOMY)
    assert [s.inputs["op"] for s in plan.steps] == ["classify_view", "classify_view"]


def _entry(anatomy, views, structures, measurements):
    return RepositoryEntry(
        anatomy=anatomy,
        sections={
            "views_to_acquire": views,
            "structures_to_segment": structures,
            "measurements": measurements,
            "diagnostic_criteria": [],
        },
        supporting_primitive_ids=[],
        created_from_k=8,
    )


_APICAL = ["Acquire the apical 4-chamber and apical 2-chamber views."]
_PLAX = ["Use the parasternal long-axis view."]

_MIXED_ENTRIES = {
    "lv-volume-then-ef-repeated": _entry("left ventricle", _APICAL, [
        "Segment the left ventricle.",
    ], [
        "Left ventricular volume by the method of disks.",
        "Ejection fraction from the left ventricular volumes.",
        "Left ventricular ejection fraction, again by disk summation.",
    ]),
    "two-structures-mixed": _entry("left ventricle", _APICAL, [
        "Segment the left atrium and the left ventricle.",
    ], [
        "Left atrial area and left ventricular dimension.",
        "Left atrial volume; left ventricular ejection fraction.",
        "Left ventricle ejection fraction and left atrial area.",
        "Left ventricular diameter and area.",
    ]),
    "unsegmented-structure-falls-back-to-the-entry": _entry("pericardium", _PLAX, [
        "Segment the pericardium.",
    ], [
        "Pericardial area.",
        "Left ventricular dimension and pericardial diameter.",
        "Ejection fraction.",
    ]),
    "measurements-without-views": _entry("right ventricle", [], [
        "Segment the right ventricle.",
    ], [
        "Right ventricular area, diameter and volume.",
        "Right ventricular area.",
    ]),
    "every-word-in-one-item": _entry("left ventricle", _PLAX + _APICAL, [
        "Segment the left ventricle, then the left atrium.",
    ], [
        "Left atrial and left ventricular area, dimension, volume and ejection fraction.",
        "Left atrial ejection fraction.",
    ]),
}


@pytest.mark.parametrize("name", sorted(_MIXED_ENTRIES))
def test_measurement_table_plans_the_seed_steps(registry, lv_query, name):
    from oracles import seed_plan_steps

    entry = _MIXED_ENTRIES[name]
    got = plan_steps(entry, lv_query, registry, DEFAULT_TAXONOMY, n_disks=12)
    want = seed_plan_steps(entry, lv_query, registry, DEFAULT_TAXONOMY, n_disks=12)
    assert [(s.step_id, s.goal, s.tool_name, s.inputs) for s in got.steps] == [
        (s.step_id, s.goal, s.tool_name, s.inputs) for s in want.steps
    ]
    assert got == want


def test_a_volume_tool_tie_is_warned_once_per_structure(registry, lv_query):
    from echoagent.hub.toolkit import VOLUME_TOOL

    volume = registry.get(VOLUME_TOOL)
    registry.register(
        ToolDescriptor(
            name="aaa.volume", layer="functional",
            input_schema=volume.input_schema, output_schema=volume.output_schema,
        ),
        lambda inputs, ctx: ({}, 1.0),
    )
    plan = plan_steps(_MIXED_ENTRIES["lv-volume-then-ef-repeated"], lv_query, registry,
                      DEFAULT_TAXONOMY)
    volume_steps = [s for s in plan.steps if s.inputs["op"] == "volume"]
    assert [s.tool_name for s in volume_steps] == ["aaa.volume", "aaa.volume"]
    assert sum("volume_ml" in w for w in plan.warnings) == 1
