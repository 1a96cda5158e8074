"""Replayable trace records: canonical digests, JSON-lines output.

A digest is the SHA-256 of a payload's compact, key-sorted JSON encoding;
the encoder walks the payload and calls ``canonical_payload`` only for
segmentation masks.

Records deliberately carry no wall-clock fields, so two runs over the same
fixtures and config produce byte-identical trace files.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..files import rewrite
from ..tools.masks import SegmentationMask
from ..tools.pgm import pgm_header


def canonical_payload(value):
    """JSON encoder hook for the one non-JSON type in run payloads: a mask
    digests to its PGM bytes' SHA-256, hashed without building them, and its pixel spacing."""
    if isinstance(value, SegmentationMask):
        height, width = value.labels.shape
        sha = hashlib.sha256(pgm_header(width, height))
        sha.update(np.ascontiguousarray(value.labels))
        return {
            "mask_sha256": sha.hexdigest(),
            "pixel_spacing_mm": [float(s) for s in value.pixel_spacing_mm],
        }
    raise TypeError(f"cannot digest a {type(value).__name__}")


def digest(value) -> str:
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"),
                           default=canonical_payload)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TraceWriter:
    def __init__(self):
        self.records: list[dict] = []

    def emit(
        self,
        t: int,
        event_kind: str,
        posterior,
        step_id: int | None = None,
        tool: str | None = None,
        outputs_digest: str | None = None,
        confidence: float | None = None,
        trigger: bool = False,
    ) -> dict:
        record = {
            "t": t,
            "event_kind": event_kind,
            "step_id": step_id,
            "tool": tool,
            "outputs_digest": outputs_digest,
            "confidence": None if confidence is None else float(confidence),
            "posterior": [float(p) for p in posterior],
            "trigger": bool(trigger),
        }
        self.records.append(record)
        return record

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
            for r in self.records
        )

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        rewrite(path, self.to_jsonl().encode("utf-8"))
        return path

