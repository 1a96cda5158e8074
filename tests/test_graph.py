import pytest

from echoagent.errors import GraphError
from echoagent.hub.graph import ReasoningGraph


def test_anchor_concept_evidence_lifecycle():
    graph = ReasoningGraph()
    anchor = graph.add_anchor({"study_ref": "a2c"})
    concept = graph.add_concept("Normal")
    evidence = graph.add_evidence({"view": "a2c"}, 0.9, 1, causes=[(anchor, "generates")])
    graph.add_edge(evidence, concept, "supports", 0.9)
    assert graph.nodes[anchor].kind == "raw_anchor"
    assert graph.nodes[evidence].confidence == 0.9
    assert len(graph.edges) == 2


def test_evidence_without_causes_rejected():
    graph = ReasoningGraph()
    with pytest.raises(GraphError, match="cause"):
        graph.add_evidence({"x": 1}, 0.5, 1, causes=[])


def test_evidence_must_trace_back_to_an_anchor():
    graph = ReasoningGraph()
    concept = graph.add_concept("h1")
    with pytest.raises(GraphError, match="raw anchor"):
        graph.add_evidence({"x": 1}, 0.5, 1, causes=[(concept, "derives")])


def test_causal_cycle_rejected_at_the_offending_mutation():
    graph = ReasoningGraph()
    anchor = graph.add_anchor("raw")
    first = graph.add_evidence({"a": 1}, 1.0, 1, causes=[(anchor, "generates")])
    second = graph.add_evidence({"b": 2}, 1.0, 2, causes=[(first, "derives")])
    with pytest.raises(GraphError, match="cycle"):
        graph.add_edge(second, first, "derives")


def test_supports_edges_do_not_participate_in_cycles():
    graph = ReasoningGraph()
    anchor = graph.add_anchor("raw")
    a = graph.add_evidence({"a": 1}, 1.0, 1, causes=[(anchor, "generates")])
    b = graph.add_evidence({"b": 2}, 1.0, 2, causes=[(a, "derives")])
    graph.add_edge(a, b, "supports", 0.5)
    graph.add_edge(b, a, "supports", 0.5)  # symmetric association is fine


def test_self_edge_rejected():
    graph = ReasoningGraph()
    anchor = graph.add_anchor("raw")
    with pytest.raises(GraphError, match="self-edge"):
        graph.add_edge(anchor, anchor, "supports")


def test_edge_weight_bounds():
    graph = ReasoningGraph()
    anchor = graph.add_anchor("raw")
    concept = graph.add_concept("h")
    with pytest.raises(GraphError, match="weight"):
        graph.add_edge(anchor, concept, "supports", 1.5)


def test_anchor_confidence_must_be_full():
    from echoagent.hub.graph import EvidenceNode

    with pytest.raises(GraphError, match="anchors"):
        EvidenceNode("anchor-0000", "raw_anchor", "x", 0.5, 0)


def test_unknown_edge_endpoint_rejected():
    graph = ReasoningGraph()
    anchor = graph.add_anchor("raw")
    with pytest.raises(GraphError, match="endpoint"):
        graph.add_edge(anchor, "nonexistent-node", "generates")


def test_checks_run_after_every_mutation():
    graph = ReasoningGraph()
    anchor = graph.add_anchor("raw")
    graph.add_concept("h")
    graph.add_evidence({"a": 1}, 1.0, 1, causes=[(anchor, "generates")])
    assert graph.checks_run == 3
