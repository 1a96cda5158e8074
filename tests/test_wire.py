import base64

import numpy as np
import pytest

from echoagent.errors import ContractError, TransportError
from echoagent.tools.pgm import encode_pgm
from echoagent.tools.registry import FieldSpec, ToolDescriptor, ToolRegistry
from echoagent.tools.backends import make_wire_handler


def wire_registry(url, outputs_schema=(FieldSpec("value", "number"),)):
    registry = ToolRegistry()
    descriptor = ToolDescriptor(
        name="remote.tool", layer="functional",
        input_schema=(FieldSpec("x", "number"),),
        output_schema=outputs_schema,
        backend="wire",
    )
    handler = make_wire_handler(url, "remote.tool", timeout_s=2.0, retries=2, backoff_s=0.0)
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


def test_artifact_bytes_decode_content_addressed(stub_server):
    pixels = np.arange(16, dtype=np.uint8).reshape(4, 4)
    payload = base64.b64encode(encode_pgm(pixels)).decode("ascii")
    stub_server.script = [(200, {
        "outputs": {"value": 1.0},
        "confidence": 1.0,
        "artifacts": [{"id": "x", "media_type": "image/x-portable-graymap",
                       "bytes_b64": payload}],
    })]
    registry = wire_registry(stub_server.url)
    result = registry.invoke("remote.tool", {"x": 0.0})
    [blob] = result.artifacts
    assert blob.data == encode_pgm(pixels)
    import hashlib

    assert blob.id == hashlib.sha256(encode_pgm(pixels)).hexdigest()


def test_wire_artifact_id_is_the_hash_of_its_decoded_bytes_on_read(stub_server):
    import hashlib

    data = encode_pgm(np.full((3, 5), 2, dtype=np.uint8))
    stub_server.script = [(200, {
        "outputs": {"value": 1.0},
        "confidence": 1.0,
        "artifacts": [{"id": "ignored", "media_type": "image/x-portable-graymap",
                       "bytes_b64": base64.b64encode(data).decode("ascii")}],
    })]
    result = wire_registry(stub_server.url).invoke("remote.tool", {"x": 0.0})
    [blob] = result.artifacts
    assert "id" not in vars(blob)
    assert blob.id == hashlib.sha256(data).hexdigest()
