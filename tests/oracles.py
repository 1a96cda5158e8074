"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the production code paths: cosines via python
loops and math.fsum, AUROC via all-pairs enumeration, G-mean via full
confusion counting, chords via a per-sample python loop, component sizes
via scipy's sum_labels, knowledge resolution via a dict of similarities and
a keyed python sort, mask label validation via a full np.unique scan, token
counts via one SHA-1 per token occurrence, and index bytes via the seed's
checksum-then-serialise save.
"""
from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np
from scipy import ndimage


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


def scalar_long_axis(mask, target_label, direction_of, n_probe_disks=20):
    """(apex, base_mid, length_mm) with one scalar chord per probe.

    ``direction_of`` maps (N, 2) coordinates to the unit principal direction,
    so the reference shares the axis fit and differs only in the chords.
    """
    component = sum_labels_largest_component(mask.labels == target_label)
    ys, xs = np.nonzero(component)
    coords = np.stack([xs, ys], axis=1).astype(np.float64)
    direction = direction_of(coords)
    centroid = coords.mean(axis=0)
    projections = (coords - centroid) @ direction
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
    sims = {pid: float(s) for pid, s in zip(kb.index.all_ids, kb.all_similarities(query_vec))}
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
    for name, ids in kb.index.by_group.items():
        group_sims = [sims[pid] for pid in ids if pid in sims]
        if group_sims:
            best[name] = max(group_sims)
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(name for name, _ in ranked[:3])


def seed_unmapped_labels(labels, structure_map):
    """The seed's mask label check: sorted nonzero labels not in structure_map."""
    present = set(int(v) for v in np.unique(labels)) - {0}
    unmapped = sorted(present - set(structure_map))
    return unmapped


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


def _seed_checksum(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def seed_save_bytes(kb) -> bytes:
    """The bytes the seed's ``KnowledgeBase.save`` wrote for ``kb``."""
    primitives = []
    for pid in kb.index.all_ids:
        p = kb.primitives[pid]
        primitives.append(
            {
                "id": p.id,
                "text": p.text,
                "source": {"doc": p.source.doc, "start": p.source.start, "end": p.source.end},
                "tags": sorted(p.anatomy_tags),
                "embedding": [float(x) for x in p.embedding],
            }
        )
    entries = [kb.entries[name].to_json() for name in sorted(kb.entries)]
    doc = {
        "version": 1,
        "d_e": kb.embedding_dim,
        "encoder_id": kb.encoder.encoder_id if kb.encoder else "unknown",
        "primitives": primitives,
        "entries": entries,
    }
    doc["checksum"] = _seed_checksum(doc)
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
