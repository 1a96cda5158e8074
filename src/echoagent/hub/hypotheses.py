"""Hypothesis labels and posterior scoring.

The posterior over hypotheses is proportional to a uniform prior times a
log-linear likelihood over the graph's supports/contradicts edges:

    loglik(h) = sum_supports w * log(1 + beta) + sum_contradicts w * log(1 - gamma)

which is monotone in support, penalizes contradiction, reduces to the
prior on an empty graph, and is invariant to rescaling all likelihoods by
a positive constant.
"""
from __future__ import annotations

import math

import numpy as np

from ..kb.criteria import GRADES, ThresholdRule, normalize_grade_label
from .graph import ReasoningGraph


def hypothesis_labels(options: tuple[str, ...] | None, rules: tuple[ThresholdRule, ...],
                      criteria_items: list[str]) -> tuple[str, ...]:
    """Multiple-choice options win; otherwise rule labels; otherwise the
    criteria items themselves. Pure grade sets come out in severity order."""
    if options:
        return tuple(options)
    labels: list[str] = []
    for rule in rules:
        if rule.label not in labels:
            labels.append(rule.label)
    if labels:
        if all(label in GRADES for label in labels):
            return tuple(g for g in GRADES if g in labels)
        return tuple(labels)
    if criteria_items:
        return tuple(dict.fromkeys(criteria_items))
    return ("no guidance found",)


def labels_match(rule_label: str, hypothesis_label: str) -> bool:
    """A rule targets a hypothesis when they normalize to the same grade or
    one phrase contains the other (case-insensitive)."""
    rule_grade = normalize_grade_label(rule_label)
    hyp_grade = normalize_grade_label(hypothesis_label)
    if rule_grade is not None and hyp_grade is not None:
        return rule_grade == hyp_grade
    a = rule_label.strip().lower()
    b = hypothesis_label.strip().lower()
    return a in b or b in a


def update_posteriors(
    graph: ReasoningGraph,
    hypothesis_nodes: dict[str, str],
    labels: tuple[str, ...],
    beta: float = 1.0,
    gamma: float = 0.8,
) -> np.ndarray:
    """Posterior vector over hypotheses under a uniform prior.

    Supports/contradicts edges are counted symmetrically: an edge touches a
    hypothesis whichever direction it was stored in. The best hypothesis
    keeps weight 1/n after the shift, so the total is positive whenever the
    log-likelihoods are finite.
    """
    support_term = math.log(1.0 + beta)
    contradict_term = math.log(1.0 - gamma)
    loglik = np.zeros(len(labels), dtype=np.float64)
    for i, label in enumerate(labels):
        node_id = hypothesis_nodes[label]
        for edge in graph.edges_touching(node_id, ("supports", "contradicts")):
            term = support_term if edge.kind == "supports" else contradict_term
            loglik[i] += edge.weight * term
    weights = (1.0 / len(labels)) * np.exp(loglik - loglik.max())
    return weights / float(weights.sum())


def normalized_entropy(posterior: np.ndarray) -> float:
    """Shannon entropy scaled to [0, 1] by log(n); 0 for a single hypothesis."""
    p = np.asarray(posterior, dtype=np.float64)
    if p.size <= 1:
        return 0.0
    nonzero = p[p > 0]
    entropy = float(-(nonzero * np.log(nonzero)).sum())
    return entropy / math.log(p.size)
