import math

import numpy as np
import pytest

from echoagent.hub.graph import ReasoningGraph
from echoagent.hub.hypotheses import normalized_entropy, update_posteriors
from echoagent.kb.criteria import parse_criteria


def graph_with_hypotheses(labels):
    graph = ReasoningGraph()
    nodes = {label: graph.add_concept(label) for label in labels}
    anchor = graph.add_anchor("raw")
    return graph, nodes, anchor


def test_empty_graph_posterior_is_uniform():
    labels = ("h1", "h2", "h3")
    graph, nodes, _ = graph_with_hypotheses(labels)
    posterior = update_posteriors(graph, nodes, labels)
    assert np.allclose(posterior, [1 / 3] * 3, atol=1e-9)
    assert abs(posterior.sum() - 1.0) <= 1e-9


def test_single_unit_supports_edge_gives_half():
    labels = ("h1", "h2", "h3")
    graph, nodes, anchor = graph_with_hypotheses(labels)
    evidence = graph.add_evidence({"v": 1}, 1.0, causes=[(anchor, "generates")])
    graph.add_edge(evidence, nodes["h1"], "supports", 1.0)
    posterior = update_posteriors(graph, nodes, labels, beta=1.0)
    # likelihoods (2, 1, 1) -> normalized (0.5, 0.25, 0.25)
    assert posterior[0] == pytest.approx(0.5, abs=1e-12)
    assert posterior[1] == pytest.approx(0.25, abs=1e-12)


def test_edge_direction_does_not_matter_for_scoring():
    labels = ("h1", "h2")
    graph, nodes, anchor = graph_with_hypotheses(labels)
    evidence = graph.add_evidence({"v": 1}, 1.0, causes=[(anchor, "generates")])
    graph.add_edge(nodes["h1"], evidence, "supports", 1.0)  # stored hypothesis-first
    posterior = update_posteriors(graph, nodes, labels, beta=1.0)
    assert posterior[0] > posterior[1]


def test_posterior_invariant_to_global_likelihood_scale():
    labels = ("a", "b", "c")
    rng = np.random.default_rng(11)
    beta, gamma = 1.0, 0.8
    for _ in range(50):
        graph, nodes, anchor = graph_with_hypotheses(labels)
        evidence = graph.add_evidence({"v": 1}, 1.0, causes=[(anchor, "generates")])
        plan = []
        for label in labels:
            kind = "supports" if rng.random() < 0.5 else "contradicts"
            weight = float(rng.uniform(0.1, 1.0))
            plan.append((label, kind, weight))
            graph.add_edge(evidence, nodes[label], kind, weight)
        posterior = update_posteriors(graph, nodes, labels, beta, gamma)
        # independent unshifted evaluation, likelihoods scaled by arbitrary c>0
        c = float(rng.uniform(1e-6, 1e6))
        loglik = np.zeros(3)
        for label, kind, weight in plan:
            term = math.log(1 + beta) if kind == "supports" else math.log(1 - gamma)
            loglik[labels.index(label)] += weight * term
        manual = np.exp(loglik) * c
        manual /= manual.sum()
        assert np.allclose(posterior, manual, atol=1e-12)
        assert abs(posterior.sum() - 1.0) <= 1e-9


def test_scaling_all_edge_weights_preserves_argmax():
    labels = ("a", "b", "c", "d")
    rng = np.random.default_rng(5)
    for _ in range(200):
        scale = rng.uniform(0.05, 1.0)
        edge_plan = []
        for _ in range(rng.integers(1, 8)):
            edge_plan.append((
                int(rng.integers(0, len(labels))),
                "supports" if rng.random() < 0.6 else "contradicts",
                float(rng.uniform(0.05, 1.0)),
            ))
        argmaxes = []
        for factor in (1.0, scale):
            graph, nodes, anchor = graph_with_hypotheses(labels)
            evidence = graph.add_evidence({"v": 1}, 1.0, causes=[(anchor, "generates")])
            for index, kind, weight in edge_plan:
                graph.add_edge(evidence, nodes[labels[index]], kind, weight * factor)
            posterior = update_posteriors(graph, nodes, labels)
            argmaxes.append(int(np.argmax(posterior)))
        assert argmaxes[0] == argmaxes[1]


def test_extreme_contradiction_stays_finite_on_the_simplex():
    labels = ("a", "b", "c")
    graph, nodes, anchor = graph_with_hypotheses(labels)
    evidence = graph.add_evidence({"v": 1}, 1.0, causes=[(anchor, "generates")])
    # 500 unit contradictions drive exp(loglik) of a and b below the smallest double
    for _ in range(500):
        graph.add_edge(evidence, nodes["a"], "contradicts", 1.0)
        graph.add_edge(evidence, nodes["b"], "contradicts", 1.0)
    posterior = update_posteriors(graph, nodes, labels, beta=1.0, gamma=0.8)
    assert np.all(np.isfinite(posterior))
    assert np.all(posterior >= 0)
    assert abs(posterior.sum() - 1.0) <= 1e-9
    assert posterior[2] == pytest.approx(1.0)


def test_entropy_examples():
    assert normalized_entropy(np.array([1 / 3, 1 / 3, 1 / 3])) == pytest.approx(1.0)
    assert normalized_entropy(np.array([0.34, 0.33, 0.33])) == pytest.approx(1.0, abs=1e-3)
    assert normalized_entropy(np.array([0.98, 0.01, 0.01])) < 0.2
    assert normalized_entropy(np.array([1.0])) == 0.0
    assert normalized_entropy(np.array([1.0, 0.0])) == 0.0


def test_criteria_parsing_produces_grade_rules():
    rules = parse_criteria([
        "Ejection fraction of 50% or higher indicates normal left ventricular systolic function.",
        "Ejection fraction between 40% and 50% indicates mildly reduced left ventricular systolic function.",
        "EF below 40% indicates considerably reduced function.",
    ])
    assert [r.label for r in rules] == ["Normal", "MildlyReduced", "ConsiderablyReduced"]
    assert all(r.metric == "ef_percent" for r in rules)
    normal, mild, considerable = rules
    assert normal.satisfied(50.0) and not normal.satisfied(49.9)
    assert mild.satisfied(40.0) and mild.satisfied(49.9) and not mild.satisfied(50.0)
    assert considerable.satisfied(33.5) and not considerable.satisfied(40.0)


def test_criteria_parsing_handles_area_thresholds():
    rules = parse_criteria([
        "Pericardial area above 2000 mm2 indicates pericardial thickening. "
        "Pericardial area of 2000 mm2 or lower indicates a normal pericardium."
    ])
    thickening, normal = rules
    assert thickening.metric == "area_mm2"
    assert thickening.label == "pericardial thickening"
    assert thickening.satisfied(2749.0) and not thickening.satisfied(1885.0)
    assert normal.satisfied(2000.0) and not normal.satisfied(2000.1)
