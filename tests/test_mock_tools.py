import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from echoagent.errors import ContractError, FixtureError, TaxonomyError
from echoagent.tools.backends import classify_view, load_study, segment_structure
from echoagent.tools.pgm import read_pgm, write_pgm
from echoagent.tools.views import A2C, DEFAULT_TAXONOMY


def test_classify_view_reads_sidecar(registry, ef_dataset):
    study = ef_dataset / "studies" / "study-01" / "a2c"
    result = classify_view(registry, "echo.view_classifier", study, DEFAULT_TAXONOMY)
    assert result.outputs["view"] == A2C
    assert result.confidence == 0.97


def test_unknown_view_name_is_a_taxonomy_error(registry, tmp_path):
    study = tmp_path / "weird"
    study.mkdir()
    (study / "study.json").write_text(json.dumps({
        "view": "A9C", "confidence": 0.5, "pixel_spacing_mm": [1, 1],
        "frames": {"ED": "ed.pgm", "ES": "es.pgm"},
    }))
    with pytest.raises(TaxonomyError, match="A9C"):
        classify_view(registry, "echo.view_classifier", study, DEFAULT_TAXONOMY)


def test_batch_of_two_studies_keeps_order(registry, ef_dataset):
    study_root = ef_dataset / "studies" / "study-01"
    views = [
        classify_view(registry, "echo.view_classifier", study_root / d, DEFAULT_TAXONOMY)
        .outputs["view"]
        for d in ("a2c", "a4c")
    ]
    assert views == ["apical-2-chamber", "apical-4-chamber"]


@pytest.mark.parametrize("spacing", [
    [float("nan"), 0.5], [float("inf"), 0.5], [0.5, float("-inf")], [1e-200, 1e-200],
])
def test_non_finite_or_underflowing_sidecar_spacing_is_a_fixture_error(ef_dataset, tmp_path, spacing):
    import shutil

    study = tmp_path / "a2c"
    shutil.copytree(ef_dataset / "studies" / "study-02" / "a2c", study)
    sidecar = json.loads((study / "study.json").read_text())
    sidecar["pixel_spacing_mm"] = spacing
    (study / "study.json").write_text(json.dumps(sidecar))
    with pytest.raises(FixtureError, match="pixel spacing"):
        load_study(study)


@pytest.mark.parametrize("field,value,encoding", [
    ("frames", ["ed.pgm", "es.pgm"], "utf-8"),
    ("structure_map", [[1, "left ventricle"]], "utf-8"),
    ("view", "apical-2-chamber", "utf-16"),
], ids=["frames-not-an-object", "structure-map-not-an-object", "not-utf-8"])
def test_malformed_or_undecodable_sidecar_is_a_fixture_error(ef_dataset, tmp_path, field,
                                                             value, encoding):
    import shutil

    study = tmp_path / "a2c"
    shutil.copytree(ef_dataset / "studies" / "study-02" / "a2c", study)
    sidecar = json.loads((study / "study.json").read_text())
    sidecar[field] = value
    (study / "study.json").write_bytes(json.dumps(sidecar).encode(encoding))
    with pytest.raises(FixtureError, match="study sidecar"):
        load_study(study)


def test_segmenting_a_phase_with_no_frame_is_a_fixture_error(registry, ef_dataset, tmp_path):
    import shutil

    study = tmp_path / "a4c"
    shutil.copytree(ef_dataset / "studies" / "study-02" / "a4c", study)
    sidecar = json.loads((study / "study.json").read_text())
    del sidecar["frames"]["ES"]
    (study / "study.json").write_text(json.dumps(sidecar))
    with pytest.raises(FixtureError, match="no frame for phase 'ES'"):
        segment_structure(registry, "echo.segmenter", study, "ES", "left ventricle")


def test_mock_segmentation_returns_ground_truth_bit_equal(registry, ef_dataset):
    study = ef_dataset / "studies" / "study-02" / "a4c"
    result = segment_structure(registry, "echo.segmenter", study, "ED", "left ventricle")
    mask = result.outputs["mask"]
    assert np.array_equal(mask.labels, read_pgm(study / "masks" / "ed.pgm"))
    assert not result.outputs["empty_structure"]
    assert result.confidence == 1.0


def test_spacing_propagates_from_sidecar(registry, ef_dataset):
    study = ef_dataset / "studies" / "study-03" / "a2c"
    sidecar = load_study(study)
    result = segment_structure(registry, "echo.segmenter", study, "ES", "left ventricle")
    assert result.outputs["mask"].pixel_spacing_mm == sidecar.pixel_spacing_mm


def test_absent_target_label_yields_empty_structure_flag(registry, ef_dataset):
    study = ef_dataset / "studies" / "study-04" / "a2c"
    result = segment_structure(registry, "echo.segmenter", study, "ED", "pericardium")
    assert result.outputs["empty_structure"]
    assert result.confidence == 0.0


def test_missing_mask_fixture_is_a_fixture_error(registry, ef_dataset, tmp_path):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(ef_dataset / "studies" / "study-05" / "a2c", broken)
    (broken / "masks" / "ed.pgm").unlink()
    with pytest.raises(FixtureError, match="mask"):
        segment_structure(registry, "echo.segmenter", broken, "ED", "left ventricle")
    assert registry.invocation_log[-1].status == "fixture_error"


@pytest.mark.parametrize("remove, message", [
    (lambda study: (study / "masks" / "ed.pgm").unlink(), "missing ground-truth mask {}/masks/ed.pgm"),
    (lambda study: (study / "ed.pgm").unlink(), "missing frame {}/ed.pgm"),
    # a file where the masks directory should be: the path is not there either
    (lambda study: shutil.rmtree(study / "masks") or (study / "masks").write_text(""),
     "missing ground-truth mask {}/masks/ed.pgm"),
], ids=["mask", "frame", "masks-is-a-file"])
def test_a_deleted_mask_or_frame_is_a_fixture_error_naming_it(
    registry, ef_dataset, tmp_path, remove, message
):
    study = tmp_path / "a2c"
    shutil.copytree(ef_dataset / "studies" / "study-05" / "a2c", study)
    remove(study)
    with pytest.raises(FixtureError) as info:
        segment_structure(registry, "echo.segmenter", study, "ED", "left ventricle")
    assert str(info.value) == message.format(study)
    assert registry.invocation_log[-1].status == "fixture_error"


def test_segmentation_opens_its_mask_and_frame_without_a_stat_first(
    registry, ef_dataset, monkeypatch
):
    checked = []
    exists = Path.exists
    monkeypatch.setattr(Path, "exists", lambda path: checked.append(path.name) or exists(path))
    study = ef_dataset / "studies" / "study-05" / "a2c"
    segment_structure(registry, "echo.segmenter", study, "ED", "left ventricle")
    assert checked == ["study.json"]


def test_mask_frame_dimension_mismatch_is_a_contract_error(registry, ef_dataset, tmp_path):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(ef_dataset / "studies" / "study-06" / "a2c", broken)
    write_pgm(broken / "masks" / "ed.pgm", np.zeros((16, 16), dtype=np.uint8))
    with pytest.raises(ContractError, match="dimensions"):
        segment_structure(registry, "echo.segmenter", broken, "ED", "left ventricle")


def test_mock_mask_digest_is_the_hash_of_its_pgm_encoding(registry, ef_dataset):
    import hashlib

    from echoagent.hub.trace import canonical_payload
    from echoagent.tools.pgm import encode_pgm

    study = ef_dataset / "studies" / "study-02" / "a2c"
    result = segment_structure(registry, "echo.segmenter", study, "ES", "left ventricle")
    mask = result.outputs["mask"]
    expected = hashlib.sha256(encode_pgm(mask.labels)).hexdigest()
    assert canonical_payload(mask)["mask_sha256"] == expected
