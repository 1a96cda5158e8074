"""Typed evidence graph grown during a reasoning run.

Nodes are clinical concepts (hypotheses), execution evidence, or raw data
anchors; edges are generates / supports / contradicts / derives. Two
invariants hold by construction. Causal edges (generates + derives) are
created only with the new evidence node they point to, so the causal
subgraph is acyclic in creation order. A new evidence node needs a raw
anchor or an evidence node among its causes, and concepts never receive
causal edges, so every evidence node traces back to a raw anchor. Each
mutation is checked before it is applied: a rejected call leaves the graph
unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import GraphError

NODE_KINDS = ("concept", "evidence", "raw_anchor")
EDGE_KINDS = ("generates", "supports", "contradicts", "derives")
CAUSAL_KINDS = ("generates", "derives")


@dataclass
class EvidenceNode:
    node_id: str
    kind: str
    payload: object
    confidence: float

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise GraphError(f"unknown node kind {self.kind!r}")
        if not 0.0 <= self.confidence <= 1.0:
            raise GraphError(f"node {self.node_id}: confidence {self.confidence} outside [0, 1]")
        if self.kind == "raw_anchor" and self.confidence != 1.0:
            raise GraphError("raw anchors are ground truth and carry confidence 1.0")


@dataclass(frozen=True)
class TypedEdge:
    src: str
    dst: str
    kind: str
    weight: float = 1.0


@dataclass
class ReasoningGraph:
    nodes: dict[str, EvidenceNode] = field(default_factory=dict)
    edges: list[TypedEdge] = field(default_factory=list)
    checks_run: int = 0  # one per mutation checked against the invariants
    _counter: int = 0

    # -- mutation ------------------------------------------------------------

    def add_anchor(self, payload) -> str:
        node_id = self._new_id("anchor")
        self.nodes[node_id] = EvidenceNode(node_id, "raw_anchor", payload, 1.0)
        self.checks_run += 1  # a node without edges keeps both invariants
        return node_id

    def add_concept(self, payload) -> str:
        node_id = self._new_id("concept")
        self.nodes[node_id] = EvidenceNode(node_id, "concept", payload, 1.0)
        self.checks_run += 1
        return node_id

    def add_evidence(self, payload, confidence: float, causes: list[tuple[str, str]]) -> str:
        """Add one evidence node atomically with its incoming causal edges.

        ``causes`` is a list of (source node id, edge kind) with kinds from
        the causal set; at least one source must be a raw anchor or an
        evidence node, so the node cannot be born unreachable from the raw
        data.
        """
        if not causes:
            raise GraphError("evidence node needs at least one generates/derives cause")
        node_id = self._new_id("evidence")
        node = EvidenceNode(node_id, "evidence", payload, confidence)
        staged = []
        for src, kind in causes:
            if kind not in CAUSAL_KINDS:
                raise GraphError(f"edge kind {kind!r} cannot cause evidence")
            staged.append(self._make_edge(src, node_id, kind, 1.0, pending=node))
        self.checks_run += 1
        if all(self.nodes[src].kind == "concept" for src, _ in causes):
            raise GraphError(f"evidence node {node_id!r} has no path from a raw anchor")
        self.nodes[node_id] = node
        self.edges.extend(staged)
        return node_id

    def add_edge(self, src: str, dst: str, kind: str, weight: float = 1.0) -> TypedEdge:
        """Add a supports or contradicts edge between existing nodes."""
        edge = self._make_edge(src, dst, kind, weight)
        self.checks_run += 1
        if kind in CAUSAL_KINDS:
            raise GraphError(
                f"causal edge {src!r} -> {dst!r} could form a cycle; "
                "causal edges come only with their evidence node"
            )
        self.edges.append(edge)
        return edge

    def _make_edge(self, src, dst, kind, weight, pending: EvidenceNode | None = None) -> TypedEdge:
        if kind not in EDGE_KINDS:
            raise GraphError(f"unknown edge kind {kind!r}")
        if src == dst:
            raise GraphError(f"self-edge on {src!r} not allowed")
        if not 0.0 <= weight <= 1.0:
            raise GraphError(f"edge weight {weight} outside [0, 1]")
        for endpoint in (src, dst):
            if endpoint not in self.nodes and not (pending and endpoint == pending.node_id):
                raise GraphError(f"edge endpoint {endpoint!r} not in graph")
        return TypedEdge(src=src, dst=dst, kind=kind, weight=weight)

    def _new_id(self, prefix: str) -> str:
        node_id = f"{prefix}-{self._counter:04d}"
        self._counter += 1
        return node_id

    # -- queries -------------------------------------------------------------

    def edges_touching(self, node_id: str, kinds: tuple[str, ...]) -> list[TypedEdge]:
        return [
            e for e in self.edges
            if e.kind in kinds and (e.src == node_id or e.dst == node_id)
        ]
