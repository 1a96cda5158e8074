"""Trace digests: the JSON encoder's walk gives the seed's digests. Trace
files: each write leaves exactly the records' JSON lines at the path."""
import json
import shutil

import numpy as np
import pytest

from oracles import seed_digest

from echoagent.hub import engine
from echoagent.hub.engine import DiagnosticQuery, ReasoningHub
from echoagent.hub.trace import TraceWriter, canonical_payload, digest
from echoagent.tools.masks import SegmentationMask

EF_QUESTION = "Is the ejection fraction normal?"


def _query(study_root) -> DiagnosticQuery:
    record = json.loads((study_root / "record.json").read_text())
    refs = tuple(str(study_root / rel) for rel in sorted(record["studies"].values()))
    if "options" in record:
        return DiagnosticQuery(record["question"], refs, tuple(record["options"]))
    return DiagnosticQuery(EF_QUESTION, refs)


@pytest.fixture()
def run_payloads(kb, registry, ef_dataset, qa_dataset, tmp_path, monkeypatch):
    """Every payload the hub digests over an EF study, a multiple-choice study
    and an EF study whose a4c masks are gone (failed steps and subgoals)."""
    broken = tmp_path / "study-11"
    shutil.copytree(ef_dataset / "studies" / "study-11", broken)
    shutil.rmtree(broken / "a4c" / "masks")
    payloads = []

    def recording_digest(value):
        payloads.append(value)
        return digest(value)

    monkeypatch.setattr(engine, "digest", recording_digest)
    hub = ReasoningHub(kb, registry)
    for root in (ef_dataset / "studies" / "study-11", qa_dataset / "studies" / "qa-01", broken):
        hub.run(_query(root))
    return payloads


def _shape(payload: dict) -> str:
    for key in ("anatomy", "hypotheses", "answer", "failure", "mask", "view", "volume_ml",
                "ef_percent", "grade", "area_mm2"):
        if key in payload:
            return key
    raise AssertionError(f"unexpected payload {payload!r}")


def test_run_payload_digests_equal_the_seed_digests(run_payloads):
    assert {_shape(p) for p in run_payloads} == {
        "anatomy", "hypotheses", "answer", "failure", "view", "mask", "volume_ml",
        "ef_percent", "grade", "area_mm2",
    }
    for payload in run_payloads:
        assert digest(payload) == seed_digest(payload)


def test_hand_built_payload_digests_equal_the_seed_digests():
    labels = np.zeros((6, 5), dtype=np.uint8)
    labels[1:4, 2:4] = 1
    mask = SegmentationMask(labels, (0.25, 0.5), {1: "left ventricle"})
    transposed = SegmentationMask(labels.T, (0.5, 0.25), {1: "left ventricle"})
    assert not transposed.labels.flags.c_contiguous
    payloads = [
        {"mask": transposed, "same_bytes_other_shape": SegmentationMask(
            labels.reshape(5, 6), (0.25, 0.5), {1: "left ventricle"})},
        {"dimension_mm": 14.25, "structure": "left ventricle", "invocation_id": "inv-000007"},
        {"steps": [(0, "echo.view_classifier", "identify"), (1, "quant.area", "area")],
         "warnings": [], "hypotheses": ["a", "b"]},
        {"nested": {"z": [mask, {"b": 1, "a": None}], "a": (1.5, True)}, "mask": mask},
        {"failure": "no mask available", "goal": "measure left ventricle area"},
        {"nan": float("nan"), "unicode": "é", "int": 3},
    ]
    for payload in payloads:
        assert digest(payload) == seed_digest(payload)


@pytest.mark.parametrize("value", [b"raw", frozenset({"a"}), np.arange(3), object()])
def test_an_unsupported_type_is_a_type_error(value):
    with pytest.raises(TypeError):
        digest({"value": value})
    with pytest.raises(TypeError):
        canonical_payload(value)


def _writer(records: int) -> TraceWriter:
    trace = TraceWriter()
    for t in range(records):
        trace.emit(t, "step", [0.25, 0.75], step_id=t, tool="quant.area",
                   outputs_digest="ab" * 32, confidence=0.9, trigger=t % 2 == 1)
    return trace


@pytest.mark.parametrize("old", [b"x" * 4096, b"{}\n"], ids=["longer", "shorter"])
def test_write_over_an_existing_file_leaves_exactly_the_new_lines(tmp_path, old):
    path = tmp_path / "r.trace.jsonl"
    path.write_bytes(old)
    trace = _writer(3)
    assert trace.write(path) == path
    assert path.read_bytes() == trace.to_jsonl().encode("utf-8")


def test_write_creates_missing_parent_directories(tmp_path):
    path = tmp_path / "a" / "b" / "r.trace.jsonl"
    trace = _writer(2)
    trace.write(str(path))
    assert path.read_bytes() == trace.to_jsonl().encode("utf-8")


def test_write_through_a_symlink_rewrites_the_target_and_keeps_the_link(tmp_path):
    target = tmp_path / "target.jsonl"
    target.write_bytes(b"stale\n" * 100)
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    trace = _writer(1)
    trace.write(link)
    assert link.is_symlink()
    assert target.read_bytes() == trace.to_jsonl().encode("utf-8")


def test_write_to_a_directory_is_an_os_error(tmp_path):
    (tmp_path / "r.trace.jsonl").mkdir()
    with pytest.raises(OSError):
        _writer(1).write(tmp_path / "r.trace.jsonl")
