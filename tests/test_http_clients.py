"""The retry policy, checked the same way for every HTTP client.

Connection errors, 5xx, 408 and 429 are retried; any other 4xx fails after
one request; a 200 whose body is not JSON is a contract error, never
retried.
"""
import pytest

from echoagent.config import EngineConfig
from echoagent.errors import ContractError, TransportError
from echoagent.kb.encoder import HttpEncoder
from echoagent.kb.summarize import SECTION_NAMES, HttpSummarizer, build_repository_entry
from echoagent.tools.backends import make_wire_handler
from echoagent.tools.registry import ToolDescriptor, ToolRegistry
from echoagent.tools.schema import FieldSpec


def transport(**fields) -> EngineConfig:
    """A config with ``fields``, a 2 s timeout, 2 retries and no backoff."""
    return EngineConfig(**fields, http_timeout_s=2.0, http_retries=2, http_backoff_s=0.0)


class WireClient:
    ok_body = {"outputs": {"value": 1.0}, "confidence": 1.0}

    def __init__(self, url):
        self.registry = ToolRegistry()
        self.registry.register(
            ToolDescriptor(
                name="remote.tool", layer="functional",
                input_schema=(FieldSpec("x", "number"),),
                output_schema=(FieldSpec("value", "number"),),
                backend="wire",
            ),
            make_wire_handler("remote.tool", transport(tool_url=url)),
        )

    def call(self):
        return self.registry.invoke("remote.tool", {"x": 1.0}).outputs


class EncoderClient:
    ok_body = {"vectors": [[3.0, 4.0, 0.0, 0.0]]}

    def __init__(self, url):
        self.encoder = HttpEncoder(transport(encoder_url=url, embedding_dim=4))

    def call(self):
        return self.encoder.embed_batch(["left ventricle"])


class SummarizerClient:
    ok_body = {name: ["guidance"] for name in SECTION_NAMES}

    def __init__(self, url):
        self.summarizer = HttpSummarizer(transport(summarizer_url=url))

    def call(self):
        return self.summarizer.summarize("left ventricle", ["some text"])


CLIENTS = [WireClient, EncoderClient, SummarizerClient]


@pytest.mark.parametrize("client_type", CLIENTS)
def test_5xx_is_retried_until_success(stub_server, client_type):
    client = client_type(stub_server.url)
    stub_server.script = [(500, {}), (503, {}), (200, client.ok_body)]
    client.call()
    assert len(stub_server.requests) == 3


@pytest.mark.parametrize("client_type", CLIENTS)
def test_408_and_429_are_retried(stub_server, client_type):
    client = client_type(stub_server.url)
    stub_server.script = [(408, {}), (429, {}), (200, client.ok_body)]
    client.call()
    assert len(stub_server.requests) == 3


@pytest.mark.parametrize("client_type", CLIENTS)
def test_404_fails_after_one_request(stub_server, client_type):
    client = client_type(stub_server.url)
    stub_server.script = [(404, {})]
    with pytest.raises(TransportError, match="404") as err:
        client.call()
    assert err.value.attempts == 1
    assert len(stub_server.requests) == 1
    if isinstance(client, WireClient):
        [entry] = client.registry.invocation_log
        assert entry.status == "transport_error"
        assert entry.attempts == 1


@pytest.mark.parametrize("client_type", CLIENTS)
def test_non_json_200_is_a_contract_error_without_retry(stub_server, client_type):
    client = client_type(stub_server.url)
    stub_server.script = [(200, b"<html>not json</html>")]
    with pytest.raises(ContractError, match="non-JSON"):
        client.call()
    assert len(stub_server.requests) == 1


def test_non_json_summary_degrades_the_repository_entry(stub_server, kb):
    stub_server.script = [(200, b"not json")]
    summarizer = HttpSummarizer(transport(summarizer_url=stub_server.url))
    entry = build_repository_entry(kb, "left ventricle", 8, summarizer)
    assert entry.degraded
    assert len(stub_server.requests) == 1
