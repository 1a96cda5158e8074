"""Seeded benchmark inputs, written with the benchmark's own numpy code.

Nothing here calls the quantification code under test: EF truth is the
analytic prolate-spheroid target and multiple-choice truth is the analytic
ellipse area pi*a*b against the corpus threshold. The same seed always
writes the same files.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LV_LABEL = 1
STRUCTURE_LABEL = 1

# Canvas sizes of the EF workload, each used equally often so that every
# seed asks for the same chord work (chord cost follows canvas size).
EF_CANVAS_PX = (256, 320, 384, 448, 512)
MCQ_CANVAS_PX = 512

# EF targets stay this far from the 40 and 50 cut-offs.
EF_CUTOFF_MARGIN = 2.0
# Target EF ranges per grade, cycled so each pass holds all three grades.
EF_CLASS_RANGES = ((52.0, 70.0), (42.0, 48.0), (20.0, 38.0))

# Multiple-choice areas lie outside [0.9, 1.1] x threshold.
MCQ_BELOW = (0.60, 0.90)
MCQ_ABOVE = (1.10, 1.45)


@dataclass(frozen=True)
class McqKind:
    anatomy: str
    view: str
    view_dir: str
    question: str
    normal_option: str
    abnormal_option: str
    threshold_mm2: float


# Questions, options and thresholds as the built-in corpus states them.
MCQ_KINDS = (
    McqKind(
        "pericardium", "parasternal-long-axis", "plax",
        "Is the pericardium normal or thickened?",
        "normal pericardium", "pericardial thickening", 2000.0,
    ),
    McqKind(
        "left atrium", "apical-4-chamber", "a4c",
        "Is the left atrium normal in size or enlarged?",
        "normal left atrium", "left atrial enlargement", 2400.0,
    ),
)

# Vocabulary of the synthetic guideline documents. It holds no anatomy
# keyword, so synthetic primitives stay untagged: they add scan, sort and
# persistence work without changing which entry answers a question.
FILLER_WORDS = tuple("""
image quality gain depth sector width frame rate harmonic imaging probe
position patient breathing window acoustic shadow artifact reverberation
doppler sample volume baseline scale filter sweep speed report protocol
laboratory accreditation sonographer review archive storage calibration
transducer frequency resolution contrast agent injection saline bubble
timing electrocardiogram gating cycle average beats arrhythmia irregular
rhythm interpretation physician consult follow interval recommended
documented clearly standard obtained feasible otherwise note limitation
optimize focus zone dynamic range persistence compression annotation
labeling export workstation quality assurance audit training competency
sedation consent positioning lateral decubitus supine held expiration
repeat acquisition loop clip length digital measurement caliper placement
inner edge leading trailing convention reproducibility variability observer
""".split())

SYNTH_PARAGRAPHS_PER_DOC = 4
# Each paragraph is longer than half the 800-character chunk limit, so no
# two merge and every paragraph becomes exactly one primitive.
SYNTH_PARAGRAPH_CHARS = (420, 790)


def grade_of(ef_percent: float) -> str:
    if ef_percent >= 50.0:
        return "Normal"
    if ef_percent >= 40.0:
        return "MildlyReduced"
    return "ConsiderablyReduced"


def encode_pgm(pixels: np.ndarray) -> bytes:
    height, width = pixels.shape
    return b"P5\n%d %d\n255\n" % (width, height) + pixels.astype(np.uint8).tobytes()


def ellipse_labels(size: int, center: tuple[float, float], semi_long_px: float,
                   semi_short_px: float, tilt_rad: float, label: int) -> np.ndarray:
    """Pixels whose centre lies inside a tilted ellipse (long axis near vertical)."""
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    dx = xs - center[0]
    dy = ys - center[1]
    along = -dx * math.sin(tilt_rad) + dy * math.cos(tilt_rad)
    across = dx * math.cos(tilt_rad) + dy * math.sin(tilt_rad)
    inside = (along / semi_long_px) ** 2 + (across / semi_short_px) ** 2 <= 1.0
    return np.where(inside, np.uint8(label), np.uint8(0))


def _write_study(study_dir: Path, view: str, view_confidence: float, spacing_mm: float,
                 masks: dict[str, np.ndarray], structure: str,
                 rng: np.random.Generator) -> None:
    (study_dir / "masks").mkdir(parents=True, exist_ok=True)
    frames = {}
    for phase, labels in masks.items():
        name = f"{phase.lower()}.pgm"
        frames[phase] = name
        speckle = rng.integers(0, 25, size=labels.shape, dtype=np.uint8)
        frame = np.where(labels > 0, 170, 30).astype(np.uint8) + speckle
        for path, pixels in ((study_dir / name, frame), (study_dir / "masks" / name, labels)):
            path.write_bytes(encode_pgm(pixels))
    sidecar = {
        "view": view,
        "confidence": view_confidence,
        "pixel_spacing_mm": [spacing_mm, spacing_mm],
        "frames": frames,
        "structure_map": {str(STRUCTURE_LABEL): structure},
        "segmentation_confidence": 1.0,
    }
    (study_dir / "study.json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def _write_record(record_dir: Path, record: dict) -> None:
    (record_dir / "record.json").write_text(json.dumps(record, sort_keys=True) + "\n")


def _draw_ef(rng: np.random.Generator, grade_index: int) -> float:
    lo, hi = EF_CLASS_RANGES[grade_index % len(EF_CLASS_RANGES)]
    while True:
        ef = float(rng.uniform(lo, hi))
        if min(abs(ef - 40.0), abs(ef - 50.0)) >= EF_CUTOFF_MARGIN:
            return ef


def write_ef_dataset(root: Path, rng: np.random.Generator, per_size: int,
                     sizes: tuple[int, ...] = EF_CANVAS_PX) -> list[dict]:
    """EF-grading records over two apical views; returns the expected answers."""
    plan = [size for size in sizes for _ in range(per_size)]
    order = rng.permutation(len(plan))
    expected = []
    for index, slot in enumerate(order):
        size = plan[slot]
        record_id = f"ef-{index:04d}"
        target_ef = _draw_ef(rng, index)
        spacing = float(rng.uniform(120.0, 150.0)) / size
        ed_length = float(rng.uniform(70.0, 90.0))
        ed_radius = float(rng.uniform(20.0, 28.0))
        es_scale = float(rng.uniform(0.85, 0.95))
        # V = (4/3) pi (L/2) r^2, so ESV/EDV = scale * (r_es / r_ed)^2
        es_radius = ed_radius * math.sqrt((1.0 - target_ef / 100.0) / es_scale)
        record_dir = root / "studies" / record_id
        for view, view_dir in (("apical-2-chamber", "a2c"), ("apical-4-chamber", "a4c")):
            center = tuple((size - 1) / 2.0 + rng.uniform(-5.0, 5.0) / spacing for _ in range(2))
            tilt = math.radians(float(rng.uniform(-12.0, 12.0)))
            masks = {
                "ED": ellipse_labels(size, center, ed_length / 2 / spacing,
                                     ed_radius / spacing, tilt, LV_LABEL),
                "ES": ellipse_labels(size, center, ed_length * es_scale / 2 / spacing,
                                     es_radius / spacing, tilt, LV_LABEL),
            }
            _write_study(record_dir / view_dir, view, float(rng.uniform(0.9, 0.99)),
                         spacing, masks, "left ventricle", rng)
        grade = grade_of(target_ef)
        _write_record(record_dir, {
            "id": record_id,
            "studies": {"a2c": "a2c", "a4c": "a4c"},
            "truth": {"ef_percent": target_ef, "grade": grade},
        })
        expected.append({"id": record_id, "answer": grade, "ef_percent": target_ef,
                         "canvas_px": size})
    return expected


def write_mcq_dataset(root: Path, rng: np.random.Generator, per_class: int) -> list[dict]:
    """Area questions, ``per_class`` per (anatomy, answer) pair."""
    plan = [(kind, above) for kind in MCQ_KINDS for above in (False, True)
            for _ in range(per_class)]
    order = rng.permutation(len(plan))
    expected = []
    size = MCQ_CANVAS_PX
    for index, slot in enumerate(order):
        kind, above = plan[slot]
        record_id = f"mcq-{index:04d}"
        lo, hi = MCQ_ABOVE if above else MCQ_BELOW
        area = float(rng.uniform(lo, hi)) * kind.threshold_mm2
        ratio = float(rng.uniform(1.1, 1.6))
        semi_a = math.sqrt(area / math.pi * ratio)
        semi_b = area / (math.pi * semi_a)
        spacing = float(rng.uniform(130.0, 150.0)) / size
        center = tuple((size - 1) / 2.0 + rng.uniform(-5.0, 5.0) / spacing for _ in range(2))
        tilt = math.radians(float(rng.uniform(-20.0, 20.0)))
        labels = ellipse_labels(size, center, semi_a / spacing, semi_b / spacing,
                                tilt, STRUCTURE_LABEL)
        record_dir = root / "studies" / record_id
        _write_study(record_dir / kind.view_dir, kind.view, float(rng.uniform(0.9, 0.99)),
                     spacing, {"ED": labels, "ES": labels}, kind.anatomy, rng)
        answer = kind.abnormal_option if above else kind.normal_option
        _write_record(record_dir, {
            "id": record_id,
            "studies": {kind.view_dir: kind.view_dir},
            "question": kind.question,
            "options": [kind.normal_option, kind.abnormal_option],
            "truth": {"answer_option": answer, "anatomy_group": kind.anatomy},
        })
        expected.append({"id": record_id, "answer": answer, "canvas_px": size})
    return expected


def _paragraph(rng: np.random.Generator) -> str:
    lo, hi = SYNTH_PARAGRAPH_CHARS
    sentences: list[str] = []
    while sum(len(s) + 1 for s in sentences) < lo:
        words = rng.choice(FILLER_WORDS, int(rng.integers(8, 16)))
        sentences.append(" ".join(words).capitalize() + ".")
    return " ".join(sentences)[:hi]


def write_synthetic_corpus(corpus_dir: Path, rng: np.random.Generator, docs: int,
                           match_text) -> int:
    """Untagged guideline-style documents; returns the primitives they yield.

    ``match_text`` is the program's anatomy tagger. A document it would tag
    is an error, because a tagged synthetic primitive could change answers.
    """
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for index in range(docs):
        text = "\n\n".join(_paragraph(rng) for _ in range(SYNTH_PARAGRAPHS_PER_DOC))
        tags = match_text(text)
        if tags:
            raise ValueError(f"synthetic document {index} would be tagged {sorted(tags)}")
        (corpus_dir / f"synthetic-{index:05d}.txt").write_text(text + "\n")
    return docs * SYNTH_PARAGRAPHS_PER_DOC
