"""Single measurement steps of the hub, run against a hand-built run state."""
import numpy as np
import pytest

from conftest import causal_parents

from echoagent.hub.engine import ReasoningHub, _RunState
from echoagent.hub.graph import ReasoningGraph
from echoagent.hub.planning import ED, ActionStep
from echoagent.hub.toolkit import AREA_TOOL, DIMENSION_TOOL
from echoagent.tools.masks import SegmentationMask
from echoagent.tools.views import A2C, A4C

LV = "left ventricle"


@pytest.fixture()
def a4c_only_state(registry):
    """A run state holding one LV mask, on the a4c view at ED."""
    graph = ReasoningGraph()
    anchor = graph.add_anchor({"study_ref": "study"})
    state = _RunState(registry=registry.for_run(), graph=graph, anchors={"study": anchor},
                      rules=[], hypothesis_nodes={}, labels=())
    labels = np.zeros((40, 30), dtype=np.uint8)
    labels[5:35, 10:20] = 1
    mask = SegmentationMask(labels, (0.5, 0.5), {1: LV})
    node = graph.add_evidence({"mask": "a4c"}, 1.0, 1, causes=[(anchor, "generates")])
    state.masks[(A4C, ED, LV)] = (node, mask)
    return state, node


def newest_node(graph):
    return next(reversed(graph.nodes))


def test_area_step_falls_back_to_another_views_mask(kb, registry, a4c_only_state):
    state, mask_node = a4c_only_state
    step = ActionStep(3, "measure area", AREA_TOOL,
                      {"op": "area", "structure": LV, "view": A2C, "phase": ED})
    outcome = ReasoningHub(kb, registry)._execute_step(step, state, 2)
    assert outcome.confidence == 1.0
    assert outcome.payload["area_mm2"] == 300 * 0.25
    assert outcome.payload["structure"] == LV
    assert outcome.payload["empty_structure"] is False
    assert causal_parents(state.graph, newest_node(state.graph)) == [mask_node]


def test_dimension_step_does_not_fall_back(kb, registry, a4c_only_state):
    state, _ = a4c_only_state
    step = ActionStep(3, "measure dimension", DIMENSION_TOOL,
                      {"op": "dimension", "structure": LV, "view": A2C, "phase": ED})
    outcome = ReasoningHub(kb, registry)._execute_step(step, state, 2)
    assert outcome.confidence == 0.0
    assert outcome.payload == {"failure": f"no mask available for {LV} at {ED}",
                               "goal": "measure dimension"}


def test_dimension_step_measures_the_planned_views_mask(kb, registry, a4c_only_state):
    state, mask_node = a4c_only_state
    step = ActionStep(3, "measure dimension", DIMENSION_TOOL,
                      {"op": "dimension", "structure": LV, "view": A4C, "phase": ED})
    outcome = ReasoningHub(kb, registry)._execute_step(step, state, 2)
    assert outcome.confidence == 1.0
    assert outcome.payload["dimension_mm"] > 0
    assert set(outcome.payload) == {"dimension_mm", "structure", "invocation_id"}
    assert causal_parents(state.graph, newest_node(state.graph)) == [mask_node]


def test_a_measurement_is_no_more_confident_than_its_mask(kb, registry, a4c_only_state):
    state, _ = a4c_only_state
    anchor = state.anchors["study"]
    weak = state.graph.add_evidence({"mask": "weak"}, 0.2, 1, causes=[(anchor, "generates")])
    _, mask = state.masks[(A4C, ED, LV)]
    state.masks[(A4C, ED, LV)] = (weak, mask)
    step = ActionStep(3, "measure area", AREA_TOOL,
                      {"op": "area", "structure": LV, "view": A4C, "phase": ED})
    outcome = ReasoningHub(kb, registry)._execute_step(step, state, 2)
    assert outcome.confidence == 0.2
    assert state.graph.nodes[newest_node(state.graph)].confidence == 0.2
