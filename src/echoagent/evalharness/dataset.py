"""Benchmark dataset loader.

Layout (documented so licensed real data can be converted to it):

    <root>/studies/<id>/record.json
    <root>/studies/<id>/<view>/study.json + frames + masks/

record.json carries exactly one ground-truth variant:

    {"id": "study-01", "studies": {"a2c": "a2c", "a4c": "a4c"},
     "truth": {"ef_percent": 33.5, "grade": "ConsiderablyReduced"}}

    {"id": "qa-01", "studies": {"plax": "plax"},
     "question": "Is the pericardium thickened?",
     "options": ["normal pericardium", "pericardial thickening"],
     "truth": {"answer_option": "normal pericardium",
               "anatomy_group": "pericardium"}}
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

from .. import anatomy
from ..errors import DatasetError, FixtureError
from ..quant.grading import grade_ef
from ..tools.backends import load_study


@dataclass(frozen=True)
class EfTruth:
    ef_percent: float
    grade: str


@dataclass(frozen=True)
class QaTruth:
    answer_option: str
    anatomy_group: str


@dataclass
class StudyRecord:
    id: str
    study_dirs: dict[str, Path]  # view hint -> directory
    truth: EfTruth | QaTruth
    question: str | None = None
    options: tuple[str, ...] | None = None

    @property
    def is_ef(self) -> bool:
        return isinstance(self.truth, EfTruth)

    def study_refs(self) -> tuple[str, ...]:
        return tuple(str(self.study_dirs[k]) for k in sorted(self.study_dirs))


def _parse_record(record_path: Path) -> StudyRecord:
    try:
        raw = json.loads(record_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON or undecodable bytes
        raise DatasetError(f"{record_path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise DatasetError(f"{record_path}: a record must be a JSON object")
    record_id = raw.get("id")
    if not record_id:
        raise DatasetError(f"{record_path}: missing record id")
    truth_raw, studies = raw.get("truth", {}), raw.get("studies", {})
    for key, value in (("truth", truth_raw), ("studies", studies)):
        if not isinstance(value, dict):
            raise DatasetError(f"{record_path}: {key} must be a JSON object")
    if not all(isinstance(rel, str) for rel in studies.values()):
        raise DatasetError(f"{record_path}: each studies value must be a string")
    question, options = raw.get("question"), raw.get("options")
    if question is not None and not isinstance(question, str):
        raise DatasetError(f"{record_path}: question must be a string")
    if options is not None and not (
        isinstance(options, list) and all(isinstance(o, str) for o in options)
    ):
        raise DatasetError(f"{record_path}: options must be a list of strings")
    has_ef = "ef_percent" in truth_raw
    has_qa = "answer_option" in truth_raw
    if has_ef == has_qa:
        raise DatasetError(
            f"record {record_id}: exactly one ground-truth variant required"
        )
    if has_ef:
        try:
            ef = float(truth_raw["ef_percent"])
        except (TypeError, ValueError) as exc:
            raise DatasetError(
                f"{record_path}: ef_percent must be a number, got {truth_raw['ef_percent']!r}"
            ) from exc
        if not math.isfinite(ef):
            raise DatasetError(f"{record_path}: ef_percent must be finite, got {ef}")
        grade = str(truth_raw.get("grade"))
        expected = grade_ef(ef)
        if grade != expected:
            raise DatasetError(
                f"record {record_id}: grade {grade!r} inconsistent with "
                f"EF {ef} (expected {expected!r})"
            )
        truth: EfTruth | QaTruth = EfTruth(ef_percent=ef, grade=grade)
    else:
        group = str(truth_raw.get("anatomy_group"))
        if not anatomy.is_valid_group(group):
            raise DatasetError(f"record {record_id}: unknown anatomy group {group!r}")
        truth = QaTruth(answer_option=str(truth_raw["answer_option"]), anatomy_group=group)
        if options and truth.answer_option not in options:
            raise DatasetError(
                f"record {record_id}: answer_option {truth.answer_option!r} "
                f"is not one of its options {options}"
            )

    study_dirs = {}
    for hint, rel in studies.items():
        study_dir = record_path.parent / rel
        try:
            load_study(study_dir)
        except FixtureError as exc:
            raise DatasetError(f"record {record_id}: {exc}") from exc
        study_dirs[str(hint)] = study_dir
    if not study_dirs:
        raise DatasetError(f"record {record_id}: no study directories listed")

    return StudyRecord(
        id=str(record_id),
        study_dirs=study_dirs,
        truth=truth,
        question=question,
        options=tuple(options) if options else None,
    )


def load_dataset(root_dir: str | Path) -> list[StudyRecord]:
    """Validated records in deterministic (id-sorted) order."""
    root = Path(root_dir)
    studies_dir = root / "studies"
    if not studies_dir.is_dir():
        if root.is_dir():
            warnings.warn(f"{root} has no studies/ subdirectory; empty dataset", stacklevel=2)
            return []
        raise DatasetError(f"dataset root not found: {root}")
    records = []
    for record_path in sorted(studies_dir.glob("*/record.json")):
        records.append(_parse_record(record_path))
    if not records:
        warnings.warn(f"no records found under {studies_dir}", stacklevel=2)
    records.sort(key=lambda r: r.id)
    seen = set()
    for record in records:
        if record.id in seen:
            raise DatasetError(f"duplicate record id {record.id!r}")
        seen.add(record.id)
    return records
