import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echoagent.errors import ContractError, RegistrationError
from echoagent.tools.registry import ToolDescriptor, ToolRegistry
from echoagent.tools.schema import FieldSpec


def echo_tool(name="t.echo", layer="functional"):
    schema = (
        FieldSpec("text", "string"),
        FieldSpec("count", "integer"),
        FieldSpec("ratio", "number"),
        FieldSpec("flag", "boolean"),
    )
    descriptor = ToolDescriptor(
        name=name, layer=layer, input_schema=schema, output_schema=schema,
    )
    return descriptor, lambda inputs, ctx: (dict(inputs), 1.0)


def test_register_then_list_shows_descriptor_once():
    registry = ToolRegistry()
    descriptor, handler = echo_tool()
    registry.register(descriptor, handler)
    assert registry.list_tools() == [descriptor]


def test_duplicate_name_rejected_naming_the_clash():
    registry = ToolRegistry()
    descriptor, handler = echo_tool()
    registry.register(descriptor, handler)
    with pytest.raises(RegistrationError, match="t.echo"):
        registry.register(descriptor, handler)


def test_layer_filtered_listing_partitions_tools():
    registry = ToolRegistry()
    for layer in ("perceptual", "operational", "functional"):
        descriptor, handler = echo_tool(name=f"t.{layer}", layer=layer)
        registry.register(descriptor, handler)
    for layer in ("perceptual", "operational", "functional"):
        listed = registry.list_tools(layer=layer)
        assert len(listed) == 1 and listed[0].layer == layer
    assert len(registry.list_tools()) == 3


def test_unknown_layer_rejected():
    with pytest.raises(RegistrationError):
        ToolDescriptor(name="x", layer="psychic", input_schema=(), output_schema=())


def test_invoke_validates_missing_field_and_logs_failure():
    registry = ToolRegistry()
    descriptor, handler = echo_tool()
    registry.register(descriptor, handler)
    with pytest.raises(ContractError, match="missing required field"):
        registry.invoke("t.echo", {"text": "hi"})
    [entry] = registry.invocation_log
    assert entry.status == "contract_error"


def test_invocation_ids_strictly_increase():
    registry = ToolRegistry()
    descriptor, handler = echo_tool()
    registry.register(descriptor, handler)
    inputs = {"text": "a", "count": 1, "ratio": 0.5, "flag": True}
    first = registry.invoke("t.echo", inputs)
    second = registry.invoke("t.echo", inputs)
    assert second.invocation_id > first.invocation_id


def test_log_counts_every_invoke_with_terminal_status():
    registry = ToolRegistry()
    descriptor, handler = echo_tool()
    registry.register(descriptor, handler)
    good = {"text": "a", "count": 1, "ratio": 0.5, "flag": False}
    registry.invoke("t.echo", good)
    with pytest.raises(ContractError):
        registry.invoke("t.echo", {})
    registry.invoke("t.echo", good)
    log = registry.invocation_log
    assert len(log) == 3
    assert [e.status for e in log] == ["ok", "contract_error", "ok"]


def test_confidence_outside_unit_interval_is_a_contract_error():
    registry = ToolRegistry()
    descriptor = ToolDescriptor(
        name="t.bad", layer="functional",
        input_schema=(), output_schema=(),
    )
    registry.register(descriptor, lambda inputs, ctx: ({}, 1.5))
    with pytest.raises(ContractError, match="confidence"):
        registry.invoke("t.bad", {})


@settings(max_examples=200, deadline=None)
@given(
    text=st.text(max_size=30),
    count=st.integers(min_value=-10**9, max_value=10**9),
    ratio=st.floats(allow_nan=False, allow_infinity=False),
    flag=st.booleans(),
)
def test_schema_closure_over_random_conforming_inputs(text, count, ratio, flag):
    registry = ToolRegistry()
    descriptor, handler = echo_tool()
    registry.register(descriptor, handler)
    result = registry.invoke(
        "t.echo", {"text": text, "count": count, "ratio": ratio, "flag": flag}
    )
    # outputs passed post-validation against the declared output schema
    assert set(result.outputs) == {"text", "count", "ratio", "flag"}
    assert registry.invocation_log[-1].status == "ok"


def test_mock_determinism_modulo_latency(ef_dataset):
    from echoagent.hub.toolkit import build_default_registry

    study = str(ef_dataset / "studies" / "study-01" / "a2c")
    results = []
    for _ in range(2):
        registry = build_default_registry()
        result = registry.invoke(
            "echo.segmenter", {"study_dir": study, "phase": "ED", "target": "left ventricle"}
        )
        results.append(result)
    first, second = results
    assert first.invocation_id == second.invocation_id
    assert first.confidence == second.confidence
    assert first.outputs["empty_structure"] == second.outputs["empty_structure"]
    import numpy as np

    assert np.array_equal(first.outputs["mask"].labels, second.outputs["mask"].labels)


@pytest.mark.parametrize("ratio", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["inputs", "outputs"])
def test_a_non_finite_number_is_a_contract_error(ratio, where):
    registry = ToolRegistry()
    descriptor, handler = echo_tool()
    good = {"text": "a", "count": 1, "ratio": 0.5, "flag": True}
    registry.register(descriptor, lambda inputs, ctx: ({**inputs, "ratio": ratio}, 1.0))
    inputs = {**good, "ratio": ratio} if where == "inputs" else good
    with pytest.raises(ContractError, match=f"t.echo {where}: field 'ratio' is not of type number"):
        registry.invoke("t.echo", inputs)
    assert registry.invocation_log[-1].status == "contract_error"


def test_an_integer_number_of_any_size_is_a_number():
    registry = ToolRegistry()
    descriptor, handler = echo_tool()
    registry.register(descriptor, handler)
    inputs = {"text": "a", "count": 1, "ratio": 10**400, "flag": True}
    assert registry.invoke("t.echo", inputs).outputs["ratio"] == 10**400
