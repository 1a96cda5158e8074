import pytest

from echoagent.config import EngineConfig
from echoagent.errors import RegistrationError
from echoagent.hub.engine import _STEP_HANDLERS, DiagnosticQuery, ReasoningHub
from echoagent.hub.planning import plan_steps
from echoagent.hub.toolkit import (
    AREA_TOOL, DIMENSION_TOOL, EF_TOOL, GRADE_TOOL, VOLUME_TOOL, build_default_registry,
)
from echoagent.kb.summarize import empty_entry
from echoagent.kb.summarize import RepositoryEntry
from echoagent.tools.backends import SEGMENT_TOOL, VIEW_TOOL, register_perception_tools
from echoagent.tools.registry import ToolRegistry
from echoagent.tools.views import DEFAULT_TAXONOMY


@pytest.fixture()
def lv_query():
    return DiagnosticQuery(
        "Is the ejection fraction normal?", study_refs=("studies/a2c", "studies/a4c")
    )


def test_lv_fixture_compiles_to_the_canonical_step_sequence(kb, registry, lv_query):
    plan = plan_steps(kb.entries["left ventricle"], lv_query, registry, DEFAULT_TAXONOMY)
    tools = [(s.tool_name, s.inputs.get("view"), s.inputs.get("phase")) for s in plan.steps]
    assert tools == [
        (VIEW_TOOL, None, None),
        (VIEW_TOOL, None, None),
        (SEGMENT_TOOL, "apical-2-chamber", "ED"),
        (SEGMENT_TOOL, "apical-2-chamber", "ES"),
        (SEGMENT_TOOL, "apical-4-chamber", "ED"),
        (SEGMENT_TOOL, "apical-4-chamber", "ES"),
        (VOLUME_TOOL, None, "ED"),
        (VOLUME_TOOL, None, "ES"),
        (EF_TOOL, None, None),
        (GRADE_TOOL, None, None),
    ]
    assert [s.step_id for s in plan.steps] == list(range(10))
    assert all(s.origin == "planned" for s in plan.steps)


def test_empty_entry_gives_empty_plan_with_warning(registry, lv_query):
    plan = plan_steps(empty_entry("left ventricle", 8), lv_query, registry, DEFAULT_TAXONOMY)
    assert plan.steps == []
    assert plan.warnings and "no guidance" in plan.warnings[0]


def perception_only_registry():
    bare = ToolRegistry()
    register_perception_tools(bare, EngineConfig())  # no functional layer registered
    return bare


def test_missing_capability_is_a_planning_error_naming_the_gap(kb, lv_query):
    with pytest.raises(RegistrationError, match="quant.biplane_volume") as err:
        plan_steps(kb.entries["left ventricle"], lv_query, perception_only_registry(),
                   DEFAULT_TAXONOMY)
    assert err.value.exit_code == 3


def test_a_run_over_a_registry_without_a_planned_tool_invokes_nothing(kb, lv_query, tmp_path,
                                                                     monkeypatch):
    invoked = []
    monkeypatch.setattr(ToolRegistry, "invoke", lambda self, *args: invoked.append(args))
    hub = ReasoningHub(kb, perception_only_registry())
    trace = tmp_path / "trace.jsonl"
    with pytest.raises(RegistrationError, match="quant.biplane_volume"):
        hub.run(lv_query, trace_path=trace)
    assert invoked == []
    assert not trace.exists()


@pytest.mark.parametrize("tool_url", [None, "http://127.0.0.1:9"])
def test_every_planned_tool_is_registered(kb, lv_query, tool_url):
    registry = build_default_registry(EngineConfig(tool_url=tool_url))
    entries = [kb.entries["left ventricle"], kb.entries["pericardium"], *_MIXED_ENTRIES.values()]
    planned = {s.tool_name for entry in entries
               for s in plan_steps(entry, lv_query, registry, DEFAULT_TAXONOMY).steps}
    # every tool is planned, and each is registered under that name
    assert planned == {VIEW_TOOL, SEGMENT_TOOL, VOLUME_TOOL, EF_TOOL, GRADE_TOOL, AREA_TOOL,
                       DIMENSION_TOOL}
    assert planned == {d.name for d in registry.list_tools()}


def test_the_step_handlers_are_exactly_the_registered_tools():
    assert set(_STEP_HANDLERS) == {d.name for d in build_default_registry().list_tools()}


@pytest.mark.parametrize("options", [None, ("normal", "abnormal")])
def test_every_step_planned_over_the_fixture_entries_has_a_handler(kb, registry, options):
    query = DiagnosticQuery("Assess the study.", study_refs=("studies/a2c", "studies/a4c"),
                            options=options)
    assert len(kb.entries) == 14
    planned = {s.tool_name for entry in kb.entries.values()
               for s in plan_steps(entry, query, registry, DEFAULT_TAXONOMY).steps}
    assert planned and planned <= set(_STEP_HANDLERS)


def test_pericardium_fixture_compiles_to_classify_segment_area(kb, registry):
    query = DiagnosticQuery(
        "Is the pericardium normal or thickened?", study_refs=("studies/plax",),
        options=("normal pericardium", "pericardial thickening"),
    )
    plan = plan_steps(kb.entries["pericardium"], query, registry, DEFAULT_TAXONOMY)
    assert [s.tool_name for s in plan.steps] == [VIEW_TOOL, SEGMENT_TOOL, AREA_TOOL]
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
    assert [s.tool_name for s in plan.steps] == [VIEW_TOOL, VIEW_TOOL]


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
