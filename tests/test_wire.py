import base64

import numpy as np
import pytest

from echoagent.config import EngineConfig
from echoagent.errors import ContractError, TransportError
from echoagent.tools.pgm import encode_pgm
from echoagent.tools.registry import ToolDescriptor, ToolRegistry
from echoagent.tools.schema import FieldSpec
from echoagent.tools.backends import make_wire_handler


def wire_registry(url, outputs_schema=(FieldSpec("value", "number"),)):
    registry = ToolRegistry()
    descriptor = ToolDescriptor(
        name="remote.tool", layer="functional",
        input_schema=(FieldSpec("x", "number"),),
        output_schema=outputs_schema,
        backend="wire",
    )
    handler = make_wire_handler("remote.tool", EngineConfig(
        tool_url=url, http_timeout_s=2.0, http_retries=2, http_backoff_s=0.0))
    registry.register(descriptor, handler)
    return registry


def test_wire_roundtrip_carries_tool_and_invocation_id(stub_server):
    stub_server.script = [(200, {"outputs": {"value": 7.5}, "confidence": 0.9})]
    registry = wire_registry(stub_server.url)
    result = registry.invoke("remote.tool", {"x": 2.0})
    assert result.outputs == {"value": 7.5}
    assert result.confidence == 0.9
    path, body = stub_server.requests[0]
    assert path == "/invoke"
    assert body["tool"] == "remote.tool"
    assert body["inputs"] == {"x": 2.0}
    assert body["invocation_id"] == result.invocation_id


def test_two_retry_backoff_is_observable_in_the_log(stub_server):
    stub_server.script = [
        (500, {}), (503, {}), (200, {"outputs": {"value": 1.0}, "confidence": 1.0}),
    ]
    registry = wire_registry(stub_server.url)
    result = registry.invoke("remote.tool", {"x": 1.0})
    assert result.outputs["value"] == 1.0
    assert len(stub_server.requests) == 3
    [entry] = registry.invocation_log
    assert entry.status == "ok"
    assert entry.attempts == 3


def test_persistent_5xx_exhausts_retries_with_transport_error(stub_server):
    stub_server.script = [(500, {})]
    registry = wire_registry(stub_server.url)
    with pytest.raises(TransportError, match="remote.tool"):
        registry.invoke("remote.tool", {"x": 1.0})
    assert len(stub_server.requests) == 3  # initial + 2 retries
    [entry] = registry.invocation_log
    assert entry.status == "transport_error"
    assert entry.attempts == 3


def test_schema_invalid_response_is_a_contract_error(stub_server):
    stub_server.script = [(200, {"outputs": {"wrong_field": 1.0}, "confidence": 1.0})]
    registry = wire_registry(stub_server.url)
    with pytest.raises(ContractError):
        registry.invoke("remote.tool", {"x": 1.0})
    assert registry.invocation_log[-1].status == "contract_error"


def test_missing_confidence_is_a_contract_error(stub_server):
    stub_server.script = [(200, {"outputs": {"value": 1.0}})]
    registry = wire_registry(stub_server.url)
    with pytest.raises(ContractError, match="confidence"):
        registry.invoke("remote.tool", {"x": 1.0})


@pytest.mark.parametrize("artifact", [
    {"media_type": "image/x-portable-graymap"},  # no bytes
    {"bytes_b64": "not base64!"},
    "a bare string",
], ids=["no_bytes", "bad_base64", "not_an_object"])
def test_malformed_artifact_is_a_contract_error(stub_server, artifact):
    stub_server.script = [(200, {
        "outputs": {"value": 1.0}, "confidence": 1.0, "artifacts": [artifact],
    })]
    registry = wire_registry(stub_server.url)
    with pytest.raises(ContractError, match="artifact malformed"):
        registry.invoke("remote.tool", {"x": 0.0})
    assert registry.invocation_log[-1].status == "contract_error"


# -- segmentation over the wire ------------------------------------------------

SEGMENTER = "echo.segmenter"


def wire_segmenter(url):
    from echoagent.tools.backends import register_perception_tools

    registry = ToolRegistry()
    register_perception_tools(registry, EngineConfig(
        tool_url=url, http_timeout_s=2.0, http_retries=0, http_backoff_s=0.0))
    return registry


def mask_response(pixels, confidence=0.9):
    return {
        "outputs": {},
        "confidence": confidence,
        "artifacts": [{"media_type": "image/x-portable-graymap",
                       "bytes_b64": base64.b64encode(encode_pgm(pixels)).decode("ascii")}],
    }


def test_wire_mask_artifact_takes_the_sidecars_spacing_and_structure_map(stub_server, ef_dataset):
    from echoagent.tools.backends import load_study, segment_structure
    from echoagent.tools.pgm import read_pgm

    study = ef_dataset / "studies" / "study-03" / "a4c"
    pixels = read_pgm(study / "masks" / "ed.pgm")
    stub_server.script = [(200, mask_response(pixels))]
    result = segment_structure(wire_segmenter(stub_server.url), SEGMENTER, study, "ED",
                               "left ventricle")
    sidecar = load_study(study)
    mask = result.outputs["mask"]
    assert np.array_equal(mask.labels, pixels)
    assert mask.pixel_spacing_mm == sidecar.pixel_spacing_mm
    assert mask.structure_map == sidecar.structure_map
    assert result.outputs["empty_structure"] is False
    assert result.confidence == 0.9
    path, body = stub_server.requests[0]
    assert body["tool"] == SEGMENTER
    assert body["inputs"] == {"study_dir": str(study), "phase": "ED", "target": "left ventricle"}


def test_wire_mask_without_the_target_is_an_empty_structure(stub_server, ef_dataset):
    from echoagent.tools.backends import segment_structure
    from echoagent.tools.pgm import read_pgm

    study = ef_dataset / "studies" / "study-03" / "a4c"
    stub_server.script = [(200, mask_response(read_pgm(study / "masks" / "ed.pgm")))]
    result = segment_structure(wire_segmenter(stub_server.url), SEGMENTER, study, "ED",
                               "pericardium")
    assert result.outputs["empty_structure"] is True
    assert result.confidence == 0.0


def test_wire_segmentation_without_an_artifact_is_a_contract_error(stub_server, ef_dataset):
    from echoagent.tools.backends import segment_structure

    study = ef_dataset / "studies" / "study-03" / "a4c"
    stub_server.script = [(200, {"outputs": {}, "confidence": 0.9})]
    with pytest.raises(ContractError, match="no mask"):
        segment_structure(wire_segmenter(stub_server.url), SEGMENTER, study, "ED",
                          "left ventricle")


def test_wire_mask_of_the_wrong_size_is_a_contract_error(stub_server, ef_dataset):
    from echoagent.tools.backends import segment_structure

    study = ef_dataset / "studies" / "study-03" / "a4c"
    stub_server.script = [(200, mask_response(np.zeros((16, 16), dtype=np.uint8)))]
    registry = wire_segmenter(stub_server.url)
    with pytest.raises(ContractError, match="dimensions"):
        segment_structure(registry, SEGMENTER, study, "ED", "left ventricle")
    [entry] = registry.invocation_log
    assert entry.status == "contract_error"


@pytest.mark.parametrize("backend", ["mock", "wire"])
def test_segmentation_reads_the_sidecar_once(stub_server, ef_dataset, monkeypatch, backend):
    from echoagent.hub.toolkit import build_default_registry
    from echoagent.tools import backends
    from echoagent.tools.pgm import read_pgm

    study = ef_dataset / "studies" / "study-04" / "a2c"
    if backend == "wire":
        registry = wire_segmenter(stub_server.url)
        stub_server.script = [(200, mask_response(read_pgm(study / "masks" / "es.pgm")))]
    else:
        registry = build_default_registry()
    calls = []
    real_load_study = backends.load_study

    def counting_load_study(study_dir):
        calls.append(study_dir)
        return real_load_study(study_dir)

    monkeypatch.setattr(backends, "load_study", counting_load_study)
    result = backends.segment_structure(registry, SEGMENTER, study, "ES", "left ventricle")
    assert not result.outputs["empty_structure"]
    assert len(calls) == 1


def test_non_json_body_after_a_retry_logs_both_attempts(stub_server):
    stub_server.script = [(503, {}), (200, b"not json")]
    registry = wire_registry(stub_server.url)
    with pytest.raises(ContractError, match="non-JSON"):
        registry.invoke("remote.tool", {"x": 1.0})
    [entry] = registry.invocation_log
    assert entry.status == "contract_error"
    assert entry.attempts == 2


def test_wire_mask_without_its_frame_is_a_fixture_error(stub_server, ef_dataset, tmp_path):
    import shutil

    from echoagent.errors import FixtureError
    from echoagent.tools.backends import segment_structure

    study = tmp_path / "a4c"
    shutil.copytree(ef_dataset / "studies" / "study-03" / "a4c", study)
    (study / "ed.pgm").unlink()
    stub_server.script = [(200, mask_response(np.zeros((16, 16), dtype=np.uint8)))]
    registry = wire_segmenter(stub_server.url)
    with pytest.raises(FixtureError, match="missing frame"):
        segment_structure(registry, SEGMENTER, study, "ED", "left ventricle")
    [entry] = registry.invocation_log
    assert entry.status == "fixture_error"
