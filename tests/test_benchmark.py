import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echoagent.config import EngineConfig
from echoagent.evalharness.benchmark import run_benchmark, write_report
from echoagent.evalharness.dataset import load_dataset
from echoagent.hub.engine import ReasoningHub
from echoagent.hub.toolkit import build_default_registry, register_quant_tools
from echoagent.kb.criteria import GRADES
from echoagent.tools.masks import SegmentationMask
from echoagent.tools.registry import ToolDescriptor, ToolRegistry
from echoagent.tools.schema import FieldSpec


def test_ground_truth_mocks_give_full_marks(kb, ef_dataset, tmp_path):
    records = load_dataset(ef_dataset)
    report = run_benchmark(
        records, kb, build_default_registry(), EngineConfig(),
        dataset_root=ef_dataset, trace_dir=tmp_path / "traces",
    )
    assert report.overall_acc == pytest.approx(100.0)
    assert report.total == 12 and report.succeeded == 12 and report.failed == 0
    for grade in GRADES:
        assert report.per_grade[grade]["acc"] == pytest.approx(100.0)
        assert report.per_grade[grade]["gmean"] == pytest.approx(100.0)
    for key in ("50", "40", "45"):
        assert report.auroc_by_threshold[key] == pytest.approx(1.0)
    assert (tmp_path / "traces" / "study-01.trace.jsonl").exists()


def test_library_runs_honour_the_config_taxonomy(kb, ef_dataset, tmp_path):
    # without the four-chamber view no biplane volume, and so no EF, is possible
    taxonomy = tmp_path / "views.txt"
    taxonomy.write_text("apical-2-chamber\nparasternal-long-axis\n")
    config = EngineConfig(taxonomy_path=str(taxonomy))
    assert ReasoningHub(kb, build_default_registry(), config).taxonomy == (
        "apical-2-chamber", "parasternal-long-axis",
    )
    records = load_dataset(ef_dataset)[:2]
    report = run_benchmark(records, kb, build_default_registry(), config)
    assert [r.predicted_ef for r in report.results] == [None, None]


def test_constant_mask_stub_degrades_gracefully(kb, ef_dataset):
    from echoagent.tools.backends import mock_view_handler

    ys, xs = np.mgrid[0:256, 0:256]
    constant = SegmentationMask(
        labels=np.where((ys - 128) ** 2 + (xs - 128) ** 2 < 60**2, 1, 0).astype(np.uint8),
        pixel_spacing_mm=(0.5, 0.5),
        structure_map={1: "left ventricle"},
    )

    stub = ToolRegistry()
    register_quant_tools(stub)
    stub.register(
        ToolDescriptor(
            name="echo.view_classifier", layer="perceptual",
            input_schema=(FieldSpec("study_dir", "string"),),
            output_schema=(FieldSpec("view", "string"),),
            backend="mock",
        ),
        mock_view_handler,
    )
    stub.register(
        ToolDescriptor(
            name="echo.segmenter", layer="operational",
            input_schema=(
                FieldSpec("study_dir", "string"),
                FieldSpec("phase", "string"),
                FieldSpec("target", "string"),
            ),
            output_schema=(
                FieldSpec("mask", "mask", required=False),
                FieldSpec("empty_structure", "boolean", required=False),
            ),
            backend="mock",
        ),
        lambda inputs, ctx: ({"mask": constant, "empty_structure": False}, 0.8),
    )

    records = load_dataset(ef_dataset)
    report = run_benchmark(records, kb, stub, EngineConfig(), dataset_root=ef_dataset)
    assert report.succeeded == 12
    # identical ED/ES masks -> EF 0 everywhere -> everything graded most severe
    assert report.per_grade["Normal"]["gmean"] == 0.0
    assert report.overall_acc < 50.0


def test_counts_reconcile_and_failures_are_recorded(kb, ef_dataset, tmp_path):
    import shutil

    root = tmp_path / "ds"
    shutil.copytree(ef_dataset, root)
    # break one study's masks so its run degrades while the dataset still loads
    for view in ("a2c", "a4c"):
        shutil.rmtree(root / "studies" / "study-09" / view / "masks")
    records = load_dataset(root)
    report = run_benchmark(records, kb, build_default_registry(), EngineConfig(),
                           dataset_root=root)
    assert report.total == 12
    assert report.succeeded + report.failed == 12
    # the broken study concludes from a flat posterior rather than raising: it
    # counts as succeeded but answers from the prior, which is wrong here
    assert report.succeeded == 12
    assert report.overall_acc < 100.0
    [broken] = [r for r in report.results if r.record_id == "study-09"]
    assert broken.max_posterior < 0.9
    assert not broken.correct


def test_report_roundtrips_and_is_stable_across_reruns(kb, ef_dataset, tmp_path):
    records = load_dataset(ef_dataset)
    payloads = []
    for i in range(2):
        report = run_benchmark(
            records, kb, build_default_registry(), EngineConfig(),
            dataset_root=ef_dataset,
        )
        path = tmp_path / f"report{i}.json"
        write_report(report, path)
        payloads.append(path.read_bytes())
    assert payloads[0] == payloads[1]
    parsed = json.loads(payloads[0])
    assert parsed["counts"] == {"total": 12, "succeeded": 12, "failed": 0}
    assert parsed["config_digest"] == EngineConfig().digest()
    assert parsed["fixture_digest"]


@pytest.fixture(scope="module")
def mixed_dataset(tmp_path_factory, ef_dataset, qa_dataset):
    """The 12 EF records and the 4 multiple-choice records in one dataset."""
    root = tmp_path_factory.mktemp("mixed") / "dataset"
    shutil.copytree(ef_dataset, root)
    for study in (qa_dataset / "studies").iterdir():
        shutil.copytree(study, root / "studies" / study.name)
    return root


def test_mixed_dataset_reports_per_group_accuracy(kb, mixed_dataset):
    records = load_dataset(mixed_dataset)
    assert len(records) == 16
    report = run_benchmark(records, kb, build_default_registry(), EngineConfig(),
                           dataset_root=mixed_dataset)
    assert report.per_group_acc["pericardium"] == pytest.approx(100.0)
    assert report.per_group_acc["left atrium"] == pytest.approx(100.0)
    assert report.per_group_acc["left ventricle"] == pytest.approx(100.0)
    assert report.overall_acc == pytest.approx(100.0)


def traces_and_records(records, kb, registry):
    """Each record's trace bytes and report entry, by record id."""
    with tempfile.TemporaryDirectory() as trace_dir:
        report = run_benchmark(records, kb, registry, EngineConfig(), trace_dir=trace_dir)
        traces = {path.name: path.read_bytes() for path in Path(trace_dir).iterdir()}
    return traces, {entry["id"]: entry for entry in report.to_json()["records"]}


@pytest.fixture(scope="module")
def shared_registry():
    """One registry for every example of the property below."""
    return build_default_registry()


@settings(max_examples=10, deadline=None)
@given(order=st.permutations(range(16)))
def test_traces_do_not_depend_on_record_order_or_earlier_runs(
    kb, mixed_dataset, shared_registry, order
):
    records = load_dataset(mixed_dataset)
    expected = traces_and_records(records, kb, build_default_registry())
    got = traces_and_records([records[i] for i in order], kb, shared_registry)
    assert got == expected


def evaluate_with_study_02_a4c_frames(kb, ef_dataset, tmp_path, frames):
    """Run ``evaluate`` on a copy of the EF dataset whose study-02 a4c sidecar
    lists ``frames``; return the exit code and the report, or None without one."""
    from echoagent.cli import main

    root = tmp_path / "dataset"
    shutil.copytree(ef_dataset, root)
    sidecar_path = root / "studies" / "study-02" / "a4c" / "study.json"
    raw = json.loads(sidecar_path.read_text())
    raw["frames"] = frames
    sidecar_path.write_text(json.dumps(raw))
    kb_path = tmp_path / "kb.json"
    kb.save(kb_path)
    report_path = tmp_path / "report.json"
    code = main(["evaluate", str(root), "--kb", str(kb_path), "--report", str(report_path)])
    return code, json.loads(report_path.read_text()) if report_path.exists() else None


def test_a_sidecar_with_no_frame_for_a_phase_fails_the_segment_step_not_the_run(
    kb, ef_dataset, tmp_path, capsys
):
    code, report = evaluate_with_study_02_a4c_frames(kb, ef_dataset, tmp_path, {"ED": "ed.pgm"})
    assert "Traceback" not in capsys.readouterr().err
    assert code == 0 and report["counts"]["failed"] == 0
    no_ef = [entry["id"] for entry in report["records"] if entry["predicted_ef"] is None]
    assert no_ef == ["study-02"]


def test_a_sidecar_whose_frames_are_not_an_object_is_refused_by_evaluate(
    kb, ef_dataset, tmp_path, capsys
):
    code, report = evaluate_with_study_02_a4c_frames(kb, ef_dataset, tmp_path,
                                                     ["ed.pgm", "es.pgm"])
    err = capsys.readouterr().err
    assert code == 1 and report is None
    assert "Traceback" not in err and "malformed study sidecar" in err


def test_a_malformed_record_fails_alone_and_evaluate_exits_one(
    kb, mixed_dataset, tmp_path, capsys
):
    from echoagent.cli import main

    root = tmp_path / "dataset"
    shutil.copytree(mixed_dataset, root)
    record_path = root / "studies" / "qa-01" / "record.json"
    raw = json.loads(record_path.read_text())
    raw["options"] = [raw["options"][0]] * 2
    record_path.write_text(json.dumps(raw))
    kb_path = tmp_path / "kb.json"
    kb.save(kb_path)
    clean = run_benchmark(load_dataset(mixed_dataset), kb, build_default_registry())
    expected = {entry["id"]: entry for entry in clean.to_json()["records"]}

    code = main(["evaluate", str(root), "--kb", str(kb_path),
                 "--report", str(tmp_path / "report.json"), "--traces", str(tmp_path / "traces")])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["counts"] == {"total": 16, "succeeded": 15, "failed": 1}
    got = {entry["id"]: entry for entry in report["records"]}
    failed = got.pop("qa-01")
    assert "repeats an option" in failed["error"] and failed["predicted"] is None
    del expected["qa-01"]
    assert got == expected
    assert len(list((tmp_path / "traces").iterdir())) == 15
