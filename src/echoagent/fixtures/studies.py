"""Synthetic study fixtures: EF grading studies and multiple-choice studies.

EF studies are prolate spheroids rendered as identical ellipses in both
apical views; end-systolic shapes are scaled to hit a target ejection
fraction. Ground truth is the value the disk-summation pipeline computes
over the generated masks, so mocks-equal-ground-truth runs are exact.

The seed only affects cosmetic speckle in the frame images; masks,
sidecars, and records are fully deterministic.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..quant.grading import grade_ef
from ..quant.volume import biplane_volume, ejection_fraction
from ..tools.masks import SegmentationMask
from ..tools.pgm import write_pgm
from ..tools.views import A2C, A4C, PLAX
from .shapes import ellipse_mask

LV_LABEL = 1
SIZE = 256
SPACING_MM = 0.5


@dataclass(frozen=True)
class EfStudySpec:
    study_id: str
    target_ef: float
    ed_length_mm: float
    ed_radius_mm: float = 25.0
    es_length_scale: float = 0.9


EF_STUDY_SPECS: tuple[EfStudySpec, ...] = (
    EfStudySpec("study-01", 62.0, 80.0),
    EfStudySpec("study-02", 55.0, 78.0),
    EfStudySpec("study-03", 58.0, 82.0),
    EfStudySpec("study-04", 66.0, 76.0),
    EfStudySpec("study-05", 42.0, 80.0),
    EfStudySpec("study-06", 44.0, 78.0),
    EfStudySpec("study-07", 46.0, 82.0),
    EfStudySpec("study-08", 48.0, 76.0),
    EfStudySpec("study-09", 30.0, 80.0),
    EfStudySpec("study-10", 25.0, 78.0),
    EfStudySpec("study-11", 33.5, 82.0),
    EfStudySpec("study-12", 36.0, 76.0),
)


@dataclass(frozen=True)
class QaStudySpec:
    study_id: str
    anatomy: str
    view: str
    question: str
    options: tuple[str, str]
    answer: str
    semi_axes_mm: tuple[float, float]


QA_STUDY_SPECS: tuple[QaStudySpec, ...] = (
    QaStudySpec(
        "qa-01", "pericardium", PLAX,
        "Is the pericardium normal or thickened?",
        ("normal pericardium", "pericardial thickening"),
        "normal pericardium", (30.0, 20.0),
    ),
    QaStudySpec(
        "qa-02", "pericardium", PLAX,
        "Is the pericardium normal or thickened?",
        ("normal pericardium", "pericardial thickening"),
        "pericardial thickening", (35.0, 25.0),
    ),
    QaStudySpec(
        "qa-03", "left atrium", A4C,
        "Is the left atrium normal in size or enlarged?",
        ("normal left atrium", "left atrial enlargement"),
        "normal left atrium", (28.0, 25.0),
    ),
    QaStudySpec(
        "qa-04", "left atrium", A4C,
        "Is the left atrium normal in size or enlarged?",
        ("normal left atrium", "left atrial enlargement"),
        "left atrial enlargement", (35.0, 28.0),
    ),
)


def _render_frame(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    speckle = rng.integers(0, 25, size=labels.shape, dtype=np.uint8)
    base = np.where(labels > 0, 170, 30).astype(np.uint8)
    return base + speckle


def _write_study_dir(
    study_dir: Path,
    view: str,
    view_confidence: float,
    masks_by_phase: dict[str, SegmentationMask],
    structure_map: dict[int, str],
    rng: np.random.Generator,
) -> None:
    study_dir.mkdir(parents=True, exist_ok=True)
    (study_dir / "masks").mkdir(exist_ok=True)
    frames = {}
    for phase, mask in masks_by_phase.items():
        frame_name = f"{phase.lower()}.pgm"
        frames[phase] = frame_name
        write_pgm(study_dir / frame_name, _render_frame(mask.labels, rng))
        write_pgm(study_dir / "masks" / frame_name, mask.labels)
    sidecar = {
        "view": view,
        "confidence": view_confidence,
        "pixel_spacing_mm": [SPACING_MM, SPACING_MM],
        "frames": frames,
        "structure_map": {str(k): v for k, v in structure_map.items()},
        "segmentation_confidence": 1.0,
    }
    (study_dir / "study.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _ef_masks(spec: EfStudySpec) -> dict[str, SegmentationMask]:
    esv_fraction = 1.0 - spec.target_ef / 100.0
    es_radius = spec.ed_radius_mm * math.sqrt(esv_fraction / spec.es_length_scale)
    ed = ellipse_mask(SIZE, spec.ed_length_mm / 2.0, spec.ed_radius_mm, SPACING_MM)
    es = ellipse_mask(SIZE, spec.ed_length_mm * spec.es_length_scale / 2.0,
                      es_radius, SPACING_MM)
    return {"ED": ed, "ES": es}


def generate_ef_dataset(root: str | Path, seed: int = 0) -> list[dict]:
    """Write the 12-study EF-grading dataset; returns the truth records."""
    root = Path(root)
    rng = np.random.default_rng(seed)
    records = []
    for spec in EF_STUDY_SPECS:
        study_root = root / "studies" / spec.study_id
        masks = _ef_masks(spec)
        for view, view_dir in ((A2C, "a2c"), (A4C, "a4c")):
            _write_study_dir(
                study_root / view_dir, view, 0.97, masks,
                {LV_LABEL: "left ventricle"}, rng,
            )
        edv = biplane_volume(masks["ED"], masks["ED"], LV_LABEL)
        esv = biplane_volume(masks["ES"], masks["ES"], LV_LABEL)
        ef = ejection_fraction(edv, esv)
        grade = grade_ef(ef)
        record = {
            "id": spec.study_id,
            "studies": {"a2c": "a2c", "a4c": "a4c"},
            "truth": {"ef_percent": ef, "grade": grade},
            "meta": {"target_ef": spec.target_ef, "edv_ml": edv, "esv_ml": esv},
        }
        (study_root / "record.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        records.append(record)
    return records


def generate_qa_dataset(root: str | Path, seed: int = 1) -> list[dict]:
    """Write the 4-study multiple-choice dataset; returns the truth records."""
    root = Path(root)
    rng = np.random.default_rng(seed)
    records = []
    for spec in QA_STUDY_SPECS:
        study_root = root / "studies" / spec.study_id
        semi_a, semi_b = spec.semi_axes_mm
        mask = ellipse_mask(SIZE, semi_a, semi_b, SPACING_MM, structure=spec.anatomy)
        view_dir = "plax" if spec.view == PLAX else "a4c"
        _write_study_dir(
            study_root / view_dir, spec.view, 0.96,
            {"ED": mask, "ES": mask}, {1: spec.anatomy}, rng,
        )
        record = {
            "id": spec.study_id,
            "studies": {view_dir: view_dir},
            "question": spec.question,
            "options": list(spec.options),
            "truth": {"answer_option": spec.answer, "anatomy_group": spec.anatomy},
        }
        (study_root / "record.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        records.append(record)
    return records


def generate_dataset(root: str | Path, seed: int = 0, include_qa: bool = False) -> list[dict]:
    records = generate_ef_dataset(root, seed)
    if include_qa:
        records.extend(generate_qa_dataset(root, seed + 1))
    return records
