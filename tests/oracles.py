"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the production code paths: cosines via python
loops and math.fsum, AUROC via all-pairs enumeration, G-mean via full
confusion counting, chords via a per-sample python loop, component sizes
via scipy's sum_labels, axis moments and extreme projections per
pixel, knowledge resolution via a dict of similarities and
a keyed python sort, mask label validation via a full np.unique scan, token
counts via one SHA-1 per token occurrence, anatomy tags via the seed's
scan of every group's keywords, a text's keyword rows via a scan of every
keyword, the index head line via a dict per record and one ``json.dumps``,
evidence-graph invariants via the seed's
append-then-recheck graph, measurement plans via the seed's per-measurement blocks,
and trace digests via the seed's recursive canonicaliser.
"""
from __future__ import annotations

import hashlib
import json
import math
import re

from dataclasses import asdict, is_dataclass

import numpy as np
from scipy import ndimage

from echoagent.anatomy import ANATOMY_GROUPS, KEYWORD_TABLE
from echoagent.errors import GraphError
from echoagent.hub.graph import CAUSAL_KINDS, EvidenceNode, ReasoningGraph
from echoagent.hub.planning import ED, ES, ActionStep, Plan, _structures_in
from echoagent.hub.toolkit import AREA_TOOL, DIMENSION_TOOL, EF_TOOL, GRADE_TOOL, VOLUME_TOOL
from echoagent.tools.backends import SEGMENT_TOOL, VIEW_TOOL
from echoagent.tools.masks import SegmentationMask
from echoagent.tools.pgm import encode_pgm
from echoagent.tools.views import find_views_in_text


def brute_force_topk(items, query_vec, k):
    """items: iterable of (id, vector). Full cosine scan + stable sort."""
    query = list(float(x) for x in query_vec)
    qnorm = math.sqrt(math.fsum(x * x for x in query))
    scored = []
    for pid, vec in items:
        v = [float(x) for x in vec]
        dot = math.fsum(a * b for a, b in zip(query, v))
        vnorm = math.sqrt(math.fsum(x * x for x in v))
        scored.append((pid, dot / (qnorm * vnorm)))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def all_pairs_auroc(scores, labels):
    positives = [s for s, y in zip(scores, labels) if y == 1]
    negatives = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in positives:
        for n in negatives:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(positives) * len(negatives))


def confusion_gmean(y_true, y_pred, positive_class):
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == positive_class and p == positive_class)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == positive_class and p != positive_class)
    tn = sum(1 for t, p in zip(y_true, y_pred) if t != positive_class and p != positive_class)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t != positive_class and p == positive_class)
    sens = tp / (tp + fn) if tp + fn else 0.0
    spec = tn / (tn + fp) if tn + fp else 0.0
    return 100.0 * math.sqrt(sens * spec)


def scalar_chord_mm(mask, target_label, point, perp, max_steps):
    """Chord length through ``point`` along ``perp``: hit count x step size."""
    sx, sy = mask.pixel_spacing_mm
    step_mm = math.hypot(perp[0] * sx, perp[1] * sy)
    height, width = mask.labels.shape
    hits = 0
    for s in range(-max_steps, max_steps + 1):
        x = int(math.floor(point[0] + s * perp[0] + 0.5))
        y = int(math.floor(point[1] + s * perp[1] + 0.5))
        if 0 <= x < width and 0 <= y < height and mask.labels[y, x] == target_label:
            hits += 1
    return hits * step_mm


def sum_labels_largest_component(binary):
    """Largest 8-connected component, sized with ndimage.sum_labels."""
    labeled, n = ndimage.label(binary, structure=np.ones((3, 3), dtype=int))
    if n == 0:
        return np.zeros_like(binary, dtype=bool)
    sizes = ndimage.sum_labels(np.ones_like(binary, dtype=np.int64), labeled, range(1, n + 1))
    return labeled == (int(np.argmax(sizes)) + 1)


def _max_steps(mask):
    return int(math.ceil(math.hypot(*mask.labels.shape))) + 1


def pixel_moments(xs, ys):
    """(n, Σx, Σy, Σx², Σy², Σxy) of integer pixel coordinates, summed per
    pixel."""
    xs, ys = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
    return (len(xs), int(xs.sum()), int(ys.sum()), int((xs * xs).sum()),
            int((ys * ys).sum()), int((xs * ys).sum()))


def scalar_long_axis(mask, target_label, principal_direction, n_probe_disks=20):
    """(apex, base_mid, length_mm) with one scalar chord per probe.

    The region is the largest component from ndimage, its moments are
    summed per pixel (``pixel_moments``) and ``principal_direction`` maps
    them to the unit direction, so the reference shares the closed-form
    eigenvector and differs in the labelling, the moments, the extreme
    projections (a min and max over every pixel) and the chords.
    Projections are elementwise, as in the program.
    """
    component = sum_labels_largest_component(mask.labels == target_label)
    ys, xs = np.nonzero(component)
    direction = principal_direction(pixel_moments(xs, ys))
    coords = np.stack([xs, ys], axis=1).astype(np.float64)
    centroid = coords.mean(axis=0)
    centered = coords - centroid
    projections = centered[:, 0] * direction[0] + centered[:, 1] * direction[1]
    lo = centroid + direction * float(projections.min())
    hi = centroid + direction * float(projections.max())
    sx, sy = mask.pixel_spacing_mm
    length_mm = math.hypot((hi[0] - lo[0]) * sx, (hi[1] - lo[1]) * sy)
    perp = np.array([-direction[1], direction[0]])
    probe = max(1, n_probe_disks)
    near = max(1, math.ceil(probe * 0.1))
    widths = [
        scalar_chord_mm(mask, target_label, lo + (hi - lo) * ((i + 0.5) / probe),
                        perp, _max_steps(mask))
        for i in range(probe)
    ]
    width_lo = float(np.mean(widths[:near]))
    width_hi = float(np.mean(widths[-near:]))
    if abs(width_lo - width_hi) <= 1e-6:
        apex, base = (lo, hi) if lo[1] <= hi[1] else (hi, lo)
    elif width_lo < width_hi:
        apex, base = lo, hi
    else:
        apex, base = hi, lo
    return (float(apex[0]), float(apex[1])), (float(base[0]), float(base[1])), length_mm


def scalar_disk_diameters(mask, target_label, apex, base_mid, n_disks):
    apex = np.array(apex, dtype=np.float64)
    span = np.array(base_mid, dtype=np.float64) - apex
    direction = span / math.hypot(span[0], span[1])
    perp = np.array([-direction[1], direction[0]])
    return [
        scalar_chord_mm(mask, target_label, apex + span * ((i + 0.5) / n_disks),
                        perp, _max_steps(mask))
        for i in range(n_disks)
    ]


def seed_resolve(kb, query_vec, s_min):
    """(winner_id, best_sim) by sorting a {primitive id: similarity} dict.

    Raises ResolutionError carrying the three nearest anatomies, like the hub.
    """
    from echoagent.errors import ResolutionError

    if len(kb) == 0:
        raise ResolutionError("knowledge base is empty; query unresolvable")
    # matrix rows follow ascending primitive id
    sims = {pid: float(s) for pid, s in zip(sorted(kb.primitives), kb.all_similarities(query_vec))}
    ranked = sorted(sims.items(), key=lambda kv: (-kv[1], kv[0]))
    best_id, best_sim = ranked[0]
    if best_sim < s_min:
        raise ResolutionError("below s_min", nearest=_seed_nearest_anatomies(kb, sims))
    for pid, _ in ranked:
        if kb.primitives[pid].anatomy_tags:
            return pid, best_sim
    raise ResolutionError("no tagged primitive", nearest=_seed_nearest_anatomies(kb, sims))


def _seed_nearest_anatomies(kb, sims):
    best = {}
    for pid, primitive in kb.primitives.items():
        for name in primitive.anatomy_tags:
            best[name] = max(best.get(name, sims[pid]), sims[pid])
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(name for name, _ in ranked[:3])


def seed_unmapped_labels(labels, structure_map):
    """The seed's mask label check: sorted nonzero labels not in structure_map."""
    present = set(int(v) for v in np.unique(labels)) - {0}
    unmapped = sorted(present - set(structure_map))
    return unmapped


def seed_match_text(text: str) -> frozenset[str]:
    """The seed's anatomy tags: every group with a keyword in the lowercased text."""
    lowered = text.lower()
    return frozenset(g.canonical_name for g in ANATOMY_GROUPS
                     if any(kw in lowered for kw in g.keywords))


def flat_keywords_in(text: str) -> frozenset[tuple[str, str]]:
    """Every (keyword, group) row whose keyword is in the lowercased text."""
    lowered = text.lower()
    return frozenset(row for row in KEYWORD_TABLE if row[0] in lowered)


def dumped_head(kb) -> bytes:
    """The index head line as a dict per primitive record and one canonical
    ``json.dumps`` of the whole head, with its newline."""
    primitives = []
    for pid in kb.ids:
        p = kb.primitives[pid]
        primitives.append(
            {
                "id": p.id,
                "text": p.text,
                "source": {"doc": p.source.doc, "start": p.source.start, "end": p.source.end},
                "tags": sorted(p.anatomy_tags),
            }
        )
    head = {
        "version": 3,
        "encoder_id": kb.encoder.encoder_id,
        "embeddings": {"dtype": "<f8", "shape": list(kb._matrix.shape)},
        "primitives": primitives,
        "entries": [kb.entries[name].to_json() for name in sorted(kb.entries)],
    }
    return json.dumps(head, sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n"


_SEED_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _seed_tokenize(text: str) -> list[str]:
    return _SEED_TOKEN_RE.findall(text.lower())


def _seed_bucket(token: str, dim: int) -> int:
    # python's hash() is salted per process; sha1 keeps buckets stable across runs
    digest = hashlib.sha1(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dim


def seed_token_counts(text: str, dim: int) -> np.ndarray:
    """The seed's bucket counts: one SHA-1 and one scalar add per token occurrence."""
    counts = np.zeros(dim, dtype=np.float64)
    for token in _seed_tokenize(text):
        counts[_seed_bucket(token, dim)] += 1.0
    return counts


# -- evidence graph -----------------------------------------------------------


class SeedReasoningGraph(ReasoningGraph):
    """The seed's graph: append the mutation, then re-check the whole graph.

    A rejected mutation stays in ``nodes``/``edges``, as it did in the seed.
    """

    def add_anchor(self, payload) -> str:
        node_id = self._new_id("anchor")
        self.nodes[node_id] = EvidenceNode(node_id, "raw_anchor", payload, 1.0)
        self._check()
        return node_id

    def add_concept(self, payload) -> str:
        node_id = self._new_id("concept")
        self.nodes[node_id] = EvidenceNode(node_id, "concept", payload, 1.0)
        self._check()
        return node_id

    def add_evidence(self, payload, confidence, causes) -> str:
        if not causes:
            raise GraphError("evidence node needs at least one generates/derives cause")
        node_id = self._new_id("evidence")
        node = EvidenceNode(node_id, "evidence", payload, confidence)
        staged = []
        for src, kind in causes:
            if kind not in CAUSAL_KINDS:
                raise GraphError(f"edge kind {kind!r} cannot cause evidence")
            staged.append(self._make_edge(src, node_id, kind, 1.0, pending=node))
        self.nodes[node_id] = node
        self.edges.extend(staged)
        self._check()
        return node_id

    def add_edge(self, src, dst, kind, weight=1.0):
        edge = self._make_edge(src, dst, kind, weight)
        self.edges.append(edge)
        self._check()
        return edge

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


def seed_graph_checks(graph) -> None:
    """The seed's whole-graph invariant checks, run on any graph."""
    SeedReasoningGraph._check_acyclic(graph)
    SeedReasoningGraph._check_anchored(graph)


# -- planning -----------------------------------------------------------------

_SEED_VOLUME_WORDS = ("volume", "method of disks", "disk summation")
_SEED_EF_WORDS = ("ejection fraction",)
_SEED_AREA_WORDS = ("area",)
_SEED_DIMENSION_WORDS = ("diameter", "dimension")


def seed_plan_steps(entry, query, registry, taxonomy, n_disks: int = 20) -> Plan:
    """The seed's ``plan_steps``, with one spelled-out block per measurement,
    restated with each step keyed by its tool alone. ``registry`` is not read."""
    plan = Plan()
    view_items = entry.section_items("views_to_acquire")
    segment_items = entry.section_items("structures_to_segment")
    measure_items = entry.section_items("measurements")

    if not view_items and not segment_items and not measure_items:
        plan.warnings.append(
            f"repository entry for {entry.anatomy!r} offers no guidance; empty plan"
        )
        return plan

    for item in view_items:
        for view in find_views_in_text(item, taxonomy):
            if view not in plan.views:
                plan.views.append(view)
    plan.structures = _structures_in(segment_items, entry.anatomy)

    need_volumes = any(w in item.lower() for item in measure_items for w in _SEED_VOLUME_WORDS)
    need_ef = any(w in item.lower() for item in measure_items for w in _SEED_EF_WORDS)
    phases = [ED, ES] if (need_volumes or need_ef) else [ED]

    next_id = 0

    def add(goal: str, tool_name: str, inputs: dict) -> None:
        nonlocal next_id
        plan.steps.append(ActionStep(next_id, goal, tool_name, inputs))
        next_id += 1

    if plan.views and query.study_refs:
        for ref in query.study_refs:
            add(
                f"identify the echocardiographic view of {ref}",
                VIEW_TOOL,
                {"study_dir": str(ref)},
            )

    if plan.structures and plan.views:
        for structure in plan.structures:
            for view in plan.views:
                for phase in phases:
                    add(
                        f"segment {structure} on {view} at {phase}",
                        SEGMENT_TOOL,
                        {"structure": structure, "view": view, "phase": phase},
                    )
    elif plan.structures and not plan.views:
        plan.warnings.append("structures to segment but no views to acquire; skipping segmentation")

    measured: set[tuple] = set()
    for item in measure_items:
        lowered = item.lower()
        targets = [s for s in _structures_in([item], entry.anatomy) if s in plan.structures]
        if not targets:
            targets = [entry.anatomy]
        for structure in targets:
            if (any(w in lowered for w in _SEED_VOLUME_WORDS)
                    or any(w in lowered for w in _SEED_EF_WORDS)):
                for phase in (ED, ES):
                    key = ("volume", structure, phase)
                    if key not in measured:
                        measured.add(key)
                        add(
                            f"compute biplane {structure} volume at {phase}",
                            VOLUME_TOOL,
                            {"structure": structure, "phase": phase, "n_disks": n_disks},
                        )
            if any(w in lowered for w in _SEED_EF_WORDS) and ("ef", structure) not in measured:
                measured.add(("ef", structure))
                add(
                    f"compute {structure} ejection fraction",
                    EF_TOOL,
                    {"structure": structure},
                )
                add(
                    f"grade {structure} ejection fraction",
                    GRADE_TOOL,
                    {"structure": structure},
                )
            if (any(w in lowered for w in _SEED_AREA_WORDS)
                    and ("area", structure) not in measured):
                measured.add(("area", structure))
                view = plan.views[0] if plan.views else None
                add(
                    f"measure {structure} area",
                    AREA_TOOL,
                    {"structure": structure, "view": view, "phase": ED},
                )
            if (any(w in lowered for w in _SEED_DIMENSION_WORDS)
                    and ("dimension", structure) not in measured):
                measured.add(("dimension", structure))
                view = plan.views[0] if plan.views else None
                add(
                    f"measure {structure} long-axis dimension",
                    DIMENSION_TOOL,
                    {"structure": structure, "view": view, "phase": ED},
                )
    return plan


# -- trace digests --------------------------------------------------------------


def seed_canonical_payload(value):
    """The seed's recursive reduction of a run artifact to JSON-ready form."""
    if isinstance(value, SegmentationMask):
        return {
            "mask_sha256": hashlib.sha256(encode_pgm(value.labels)).hexdigest(),
            "pixel_spacing_mm": [float(s) for s in value.pixel_spacing_mm],
        }
    if is_dataclass(value) and not isinstance(value, type):
        return seed_canonical_payload(asdict(value))
    if isinstance(value, dict):
        return {str(k): seed_canonical_payload(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [seed_canonical_payload(v) for v in value]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [seed_canonical_payload(v) for v in value.tolist()]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    return value


def seed_digest(value) -> str:
    canonical = json.dumps(seed_canonical_payload(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
