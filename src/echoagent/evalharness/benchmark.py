"""Benchmark runner: one reasoning run per record, machine-readable report."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..config import EngineConfig
from ..errors import EchoAgentError, MetricError
from ..hub.engine import DiagnosticQuery, ReasoningHub
from ..kb.criteria import GRADES
from ..kb.index import KnowledgeBase
from ..tools.registry import ToolRegistry
from .dataset import StudyRecord
from .metrics import auroc, gmean, ovr_accuracy, overall_accuracy

EF_QUESTION = (
    "Is the left ventricular ejection fraction normal, mildly reduced, "
    "or considerably reduced?"
)

@dataclass
class RecordResult:
    record_id: str
    truth_label: str
    predicted_label: str | None
    predicted_ef: float | None
    anatomy_group: str | None
    max_posterior: float | None
    error: str | None = None

    @property
    def succeeded(self) -> bool:
        return self.error is None

    @property
    def correct(self) -> bool:
        return self.succeeded and self.predicted_label == self.truth_label


@dataclass
class BenchmarkReport:
    overall_acc: float | None
    per_grade: dict[str, dict[str, float]]
    auroc_by_threshold: dict[str, float | None]
    per_group_acc: dict[str, float]
    total: int
    succeeded: int
    failed: int
    config_digest: str
    fixture_digest: str
    results: list[RecordResult] = field(default_factory=list)

    def __post_init__(self):
        rates = list(self.per_group_acc.values())
        if self.overall_acc is not None:
            rates.append(self.overall_acc)
        for per in self.per_grade.values():
            rates.extend(per.values())
        for rate in rates:
            if not 0.0 <= rate <= 100.0:
                raise ValueError(f"rate {rate} outside [0, 100]")
        if self.succeeded + self.failed != self.total:
            raise ValueError("result counts do not reconcile with dataset size")

    def to_json(self) -> dict:
        return {
            "overall_acc": self.overall_acc,
            "per_grade": self.per_grade,
            "auroc": self.auroc_by_threshold,
            "per_group_acc": self.per_group_acc,
            "counts": {"total": self.total, "succeeded": self.succeeded, "failed": self.failed},
            "config_digest": self.config_digest,
            "fixture_digest": self.fixture_digest,
            "records": [
                {
                    "id": r.record_id,
                    "truth": r.truth_label,
                    "predicted": r.predicted_label,
                    "predicted_ef": r.predicted_ef,
                    "anatomy_group": r.anatomy_group,
                    "max_posterior": r.max_posterior,
                    "error": r.error,
                }
                for r in self.results
            ],
        }


def fixture_digest(root: str | Path) -> str:
    """Stable hash over the dataset tree (relative names + bytes)."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode("utf-8"))
            h.update(path.read_bytes())
    return h.hexdigest()


def run_benchmark(
    records: list[StudyRecord],
    kb: KnowledgeBase,
    registry: ToolRegistry,
    config: EngineConfig | None = None,
    dataset_root: str | Path | None = None,
    trace_dir: str | Path | None = None,
) -> BenchmarkReport:
    hub = ReasoningHub(kb, registry, config)
    results: list[RecordResult] = []
    for record in records:
        if record.is_ef:
            question = record.question or EF_QUESTION
            options = None
            truth_label = record.truth.grade
            group = "left ventricle"
        else:
            question = record.question or "Assess the study."
            options = record.options
            truth_label = record.truth.answer_option
            group = record.truth.anatomy_group
        trace_path = None
        if trace_dir is not None:
            trace_path = Path(trace_dir) / f"{record.id}.trace.jsonl"
        try:
            query = DiagnosticQuery(
                text=question, study_refs=record.study_refs(), options=options
            )
            conclusion = hub.run(query, trace_path=trace_path)
        except EchoAgentError as exc:
            results.append(RecordResult(
                record_id=record.id, truth_label=truth_label, predicted_label=None,
                predicted_ef=None, anatomy_group=group, max_posterior=None,
                error=str(exc),
            ))
            continue
        results.append(RecordResult(
            record_id=record.id,
            truth_label=truth_label,
            predicted_label=conclusion.answer,
            predicted_ef=conclusion.ef_percent,
            anatomy_group=group,
            max_posterior=max(conclusion.posterior.values()),
        ))

    ok = [r for r in results if r.succeeded]
    failed = len(results) - len(ok)

    truth_ef = {x.id: x.truth.ef_percent for x in records if x.is_ef}
    ef_ok = [r for r in ok if r.record_id in truth_ef]
    y_true = [r.truth_label for r in ok]
    y_pred = [r.predicted_label for r in ok]

    per_grade: dict[str, dict[str, float]] = {}
    if any(r.truth_label in GRADES for r in ok):
        grade_true = [r.truth_label for r in ef_ok]
        grade_pred = [r.predicted_label for r in ef_ok]
        for grade in GRADES:
            per_grade[grade] = {
                "acc": ovr_accuracy(grade_true, grade_pred, grade),
                "gmean": gmean(grade_true, grade_pred, grade),
            }

    auroc_by_threshold: dict[str, float | None] = {}
    scored = [r for r in ef_ok if r.predicted_ef is not None]
    for threshold in (50.0, 40.0, 45.0):
        key = f"{threshold:g}"
        if not scored:
            auroc_by_threshold[key] = None
            continue
        labels = [1 if truth_ef[r.record_id] >= threshold else 0 for r in scored]
        scores = [r.predicted_ef for r in scored]
        try:
            auroc_by_threshold[key] = auroc(scores, labels)
        except MetricError:
            auroc_by_threshold[key] = None

    per_group_acc: dict[str, float] = {}
    groups = sorted({r.anatomy_group for r in ok if r.anatomy_group})
    for group_name in groups:
        member = [r for r in ok if r.anatomy_group == group_name]
        per_group_acc[group_name] = 100.0 * sum(r.correct for r in member) / len(member)

    return BenchmarkReport(
        overall_acc=overall_accuracy(y_true, y_pred) if ok else None,
        per_grade=per_grade,
        auroc_by_threshold=auroc_by_threshold,
        per_group_acc=per_group_acc,
        total=len(records),
        succeeded=len(ok),
        failed=failed,
        config_digest=hub.config.digest(),
        fixture_digest=fixture_digest(dataset_root) if dataset_root else "",
        results=results,
    )


def write_report(report: BenchmarkReport, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
