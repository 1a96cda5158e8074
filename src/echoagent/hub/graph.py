"""Typed evidence graph grown during a reasoning run.

Nodes are clinical concepts (hypotheses), execution evidence, or raw data
anchors; edges are generates / supports / contradicts / derives. The
causal subgraph (generates + derives) must stay acyclic and every evidence
node must trace back to a raw anchor; both invariants are re-checked after
every mutation, so a violation surfaces at the mutation that caused it.
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
    created_at: int

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
    checks_run: int = 0
    _counter: int = 0

    # -- mutation ------------------------------------------------------------

    def add_anchor(self, payload, created_at: int = 0) -> str:
        node_id = self._new_id("anchor")
        self.nodes[node_id] = EvidenceNode(node_id, "raw_anchor", payload, 1.0, created_at)
        self._check()
        return node_id

    def add_concept(self, payload, created_at: int = 0) -> str:
        node_id = self._new_id("concept")
        self.nodes[node_id] = EvidenceNode(node_id, "concept", payload, 1.0, created_at)
        self._check()
        return node_id

    def add_evidence(
        self,
        payload,
        confidence: float,
        created_at: int,
        causes: list[tuple[str, str]],
    ) -> str:
        """Add one evidence node atomically with its incoming causal edges.

        ``causes`` is a list of (source node id, edge kind) with kinds from
        the causal set; at least one is required so the node cannot be born
        unreachable from the raw data.
        """
        if not causes:
            raise GraphError("evidence node needs at least one generates/derives cause")
        node_id = self._new_id("evidence")
        node = EvidenceNode(node_id, "evidence", payload, confidence, created_at)
        staged = []
        for src, kind in causes:
            if kind not in CAUSAL_KINDS:
                raise GraphError(f"edge kind {kind!r} cannot cause evidence")
            staged.append(self._make_edge(src, node_id, kind, 1.0, pending=node))
        self.nodes[node_id] = node
        self.edges.extend(staged)
        self._check()
        return node_id

    def add_edge(self, src: str, dst: str, kind: str, weight: float = 1.0) -> TypedEdge:
        edge = self._make_edge(src, dst, kind, weight)
        self.edges.append(edge)
        self._check()
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

    def causal_parents(self, node_id: str) -> list[str]:
        return [e.src for e in self.edges if e.kind in CAUSAL_KINDS and e.dst == node_id]

    # -- invariants ------------------------------------------------------------

    def _check(self) -> None:
        self.checks_run += 1
        self._check_acyclic()
        self._check_anchored()

    def _check_acyclic(self) -> None:
        adjacency: dict[str, list[str]] = {}
        indegree: dict[str, int] = {n: 0 for n in self.nodes}
        for e in self.edges:
            if e.kind not in CAUSAL_KINDS:
                continue
            adjacency.setdefault(e.src, []).append(e.dst)
            indegree[e.dst] += 1
        frontier = [n for n, d in indegree.items() if d == 0]
        visited = 0
        while frontier:
            node = frontier.pop()
            visited += 1
            for nxt in adjacency.get(node, ()):
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    frontier.append(nxt)
        if visited != len(self.nodes):
            raise GraphError("causal subgraph (generates/derives) contains a cycle")

    def _check_anchored(self) -> None:
        """Every evidence node reaches a raw anchor through causal parents."""
        anchored: set[str] = {
            n for n, node in self.nodes.items() if node.kind == "raw_anchor"
        }
        changed = True
        while changed:
            changed = False
            for e in self.edges:
                if e.kind in CAUSAL_KINDS and e.src in anchored and e.dst not in anchored:
                    anchored.add(e.dst)
                    changed = True
        for node_id, node in self.nodes.items():
            if node.kind == "evidence" and node_id not in anchored:
                raise GraphError(f"evidence node {node_id!r} has no path from a raw anchor")
