import json
import shutil

import pytest

from echoagent.errors import DatasetError
from echoagent.evalharness.dataset import load_dataset
from echoagent.kb.criteria import GRADES


def test_fixture_dataset_loads_twelve_records_four_per_grade(ef_dataset):
    records = load_dataset(ef_dataset)
    assert len(records) == 12
    assert [r.id for r in records] == sorted(r.id for r in records)
    per_grade = {grade: 0 for grade in GRADES}
    for record in records:
        assert record.is_ef
        per_grade[record.truth.grade] += 1
    assert per_grade == {grade: 4 for grade in GRADES}


def test_grade_inconsistent_with_ef_is_a_load_error(ef_dataset, tmp_path):
    root = tmp_path / "ds"
    shutil.copytree(ef_dataset, root)
    record_path = root / "studies" / "study-05" / "record.json"
    record = json.loads(record_path.read_text())
    record["truth"]["ef_percent"] = 45.0
    record["truth"]["grade"] = "Normal"
    record_path.write_text(json.dumps(record))
    with pytest.raises(DatasetError, match="study-05"):
        load_dataset(root)


def test_both_truth_variants_rejected(ef_dataset, tmp_path):
    root = tmp_path / "ds"
    shutil.copytree(ef_dataset, root)
    record_path = root / "studies" / "study-01" / "record.json"
    record = json.loads(record_path.read_text())
    record["truth"]["answer_option"] = "whatever"
    record_path.write_text(json.dumps(record))
    with pytest.raises(DatasetError, match="exactly one"):
        load_dataset(root)


def test_zero_pixel_spacing_is_a_load_error_naming_the_record(ef_dataset, tmp_path):
    root = tmp_path / "ds"
    shutil.copytree(ef_dataset, root)
    sidecar_path = root / "studies" / "study-02" / "a4c" / "study.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["pixel_spacing_mm"] = [0.0, 0.5]
    sidecar_path.write_text(json.dumps(sidecar))
    with pytest.raises(DatasetError, match="study-02.*pixel spacing must be positive"):
        load_dataset(root)


def test_empty_directory_warns_and_returns_empty(tmp_path):
    with pytest.warns(UserWarning):
        assert load_dataset(tmp_path) == []


def test_missing_root_is_an_error(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "nope")


def test_qa_records_carry_options_and_anatomy(qa_dataset):
    records = load_dataset(qa_dataset)
    assert len(records) == 4
    for record in records:
        assert not record.is_ef
        assert record.options and len(record.options) == 2
        assert record.truth.answer_option in record.options
