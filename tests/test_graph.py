import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SeedReasoningGraph, seed_graph_checks

from echoagent.errors import GraphError
from echoagent.hub.graph import CAUSAL_KINDS, EDGE_KINDS, ReasoningGraph


def test_anchor_concept_evidence_lifecycle():
    graph = ReasoningGraph()
    anchor = graph.add_anchor({"study_ref": "a2c"})
    concept = graph.add_concept("Normal")
    evidence = graph.add_evidence({"view": "a2c"}, 0.9, causes=[(anchor, "generates")])
    graph.add_edge(evidence, concept, "supports", 0.9)
    assert graph.nodes[anchor].kind == "raw_anchor"
    assert graph.nodes[evidence].confidence == 0.9
    assert len(graph.edges) == 2


def test_evidence_without_causes_rejected():
    graph = ReasoningGraph()
    with pytest.raises(GraphError, match="cause"):
        graph.add_evidence({"x": 1}, 0.5, causes=[])


def test_evidence_must_trace_back_to_an_anchor():
    graph = ReasoningGraph()
    concept = graph.add_concept("h1")
    with pytest.raises(GraphError, match="raw anchor"):
        graph.add_evidence({"x": 1}, 0.5, causes=[(concept, "derives")])


def test_causal_cycle_rejected_at_the_offending_mutation():
    graph = ReasoningGraph()
    anchor = graph.add_anchor("raw")
    first = graph.add_evidence({"a": 1}, 1.0, causes=[(anchor, "generates")])
    second = graph.add_evidence({"b": 2}, 1.0, causes=[(first, "derives")])
    with pytest.raises(GraphError, match="cycle"):
        graph.add_edge(second, first, "derives")


def test_supports_edges_do_not_participate_in_cycles():
    graph = ReasoningGraph()
    anchor = graph.add_anchor("raw")
    a = graph.add_evidence({"a": 1}, 1.0, causes=[(anchor, "generates")])
    b = graph.add_evidence({"b": 2}, 1.0, causes=[(a, "derives")])
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
        EvidenceNode("anchor-0000", "raw_anchor", "x", 0.5)


def test_unknown_edge_endpoint_rejected():
    graph = ReasoningGraph()
    anchor = graph.add_anchor("raw")
    with pytest.raises(GraphError, match="endpoint"):
        graph.add_edge(anchor, "nonexistent-node", "generates")


def test_checks_run_after_every_mutation():
    graph = ReasoningGraph()
    anchor = graph.add_anchor("raw")
    graph.add_concept("h")
    graph.add_evidence({"a": 1}, 1.0, causes=[(anchor, "generates")])
    assert graph.checks_run == 3


# -- invariants by construction, against the seed's append-then-recheck graph --
_NODE = st.integers(0, 10_000)  # a node index, modulo the node count plus one for "missing"
_OPS = st.one_of(
    st.tuples(st.just("anchor")),
    st.tuples(st.just("concept")),
    st.tuples(
        st.just("evidence"),
        st.sampled_from((0.0, 0.5, 1.0, 1.0, 1.5)),
        st.lists(st.tuples(_NODE, st.sampled_from(CAUSAL_KINDS * 4 + EDGE_KINDS)), max_size=3),
    ),
    st.tuples(
        st.just("edge"), _NODE, _NODE,
        st.sampled_from(("supports", "contradicts")), st.sampled_from((0.5, 1.0, 1.5)),
    ),
)


def _pick(ids, index):
    index %= len(ids) + 1
    return ids[index] if index < len(ids) else "missing"


def _apply(graph, op, ids):
    name, *args = op
    if name == "anchor":
        return graph.add_anchor({"study_ref": len(ids)})
    if name == "concept":
        return graph.add_concept(f"h{len(ids)}")
    if name == "evidence":
        confidence, causes = args
        return graph.add_evidence({"n": len(ids)}, confidence,
                                  causes=[(_pick(ids, i), kind) for i, kind in causes])
    src, dst, kind, weight = args
    return graph.add_edge(_pick(ids, src), _pick(ids, dst), kind, weight)


def _attempt(graph, op, ids):
    try:
        return _apply(graph, op, ids)
    except GraphError:
        return None


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPS, min_size=5, max_size=40))
def test_mutations_are_accepted_as_the_seed_accepts_and_a_rejection_changes_nothing(ops):
    graph, seed = ReasoningGraph(), SeedReasoningGraph()
    for op in ops:
        ids = list(graph.nodes)
        nodes, edges = dict(graph.nodes), list(graph.edges)
        got = _attempt(graph, op, ids)
        want = _attempt(seed, op, ids)
        assert got == want
        if got is None:
            assert graph.nodes == nodes and graph.edges == edges
            seed.nodes, seed.edges = dict(nodes), list(edges)  # the seed kept the rejected change
        else:
            seed_graph_checks(graph)
        assert graph.nodes == seed.nodes and graph.edges == seed.edges
        assert graph.checks_run == seed.checks_run


@pytest.mark.parametrize("kind", CAUSAL_KINDS)
def test_a_causal_add_edge_is_refused_even_without_a_cycle(kind):
    graphs = []
    for graph in (ReasoningGraph(), SeedReasoningGraph()):
        anchor = graph.add_anchor("raw")
        first = graph.add_evidence({"a": 1}, 1.0, causes=[(anchor, "generates")])
        second = graph.add_evidence({"b": 2}, 1.0, causes=[(anchor, "generates")])
        graphs.append((graph, first, second))
    (graph, first, second), (seed, _, _) = graphs
    edges = list(graph.edges)
    with pytest.raises(GraphError, match="could form a cycle"):
        graph.add_edge(first, second, kind)
    assert graph.edges == edges
    seed.add_edge(first, second, kind)  # the seed accepted an acyclic causal edge
