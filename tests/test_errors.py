import pytest

from echoagent import cli, errors
from echoagent.tools.registry import ToolDescriptor, ToolRegistry

# The exit code `echoagent` returns and the invocation-log status a failed
# tool call records, for each error class. A new class must be added here.
EXPECTED = {
    "EchoAgentError": (1, "tool_error"),
    "ConfigError": (3, "tool_error"),
    "IngestError": (1, "tool_error"),
    "EncoderError": (3, "tool_error"),
    "TransportError": (1, "transport_error"),
    "ContractError": (3, "contract_error"),
    "TaxonomyError": (3, "tool_error"),
    "RegistrationError": (3, "tool_error"),
    "FixtureError": (1, "fixture_error"),
    "PgmFormatError": (1, "tool_error"),
    "IndexLoadError": (1, "tool_error"),
    "GeometryError": (3, "tool_error"),
    "VolumeError": (3, "tool_error"),
    "DomainError": (3, "tool_error"),
    "GraphError": (3, "tool_error"),
    "ResolutionError": (2, "tool_error"),
    "DatasetError": (1, "tool_error"),
    "MetricError": (3, "tool_error"),
}

ERROR_CLASSES = sorted(
    (obj for obj in vars(errors).values()
     if isinstance(obj, type) and issubclass(obj, errors.EchoAgentError)),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_class_gives_its_exit_code_and_log_status(monkeypatch, capsys, cls):
    assert cls.__name__ in EXPECTED, f"add {cls.__name__} to EXPECTED"
    code, status = EXPECTED[cls.__name__]

    def fail(*_):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_tools", fail)
    assert cli.main(["tools"]) == code
    assert capsys.readouterr().err == "error: boom\n"

    registry = ToolRegistry()
    registry.register(
        ToolDescriptor(name="t.fail", layer="functional", input_schema=(), output_schema=()),
        fail,
    )
    with pytest.raises(cls):
        registry.invoke("t.fail", {})
    [entry] = registry.invocation_log
    assert entry.status == status
    assert entry.error == "boom"
