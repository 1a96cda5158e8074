"""Tool registry: uniform registration, invocation, and logging.

Every capability, whether a mock, a native function, or a remote model
behind the wire protocol, is registered under a descriptor and invoked
through one validated code path. Every invocation, including failed ones,
lands in an append-only log with a monotonically increasing id. A run takes
its own ids, log and study memo from ``ToolRegistry.for_run``, so it never
writes to a shared registry. The registry does not choose tools: each
planned op names its tool, and the planner refuses, through ``get``, a
registry that lacks one.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import ContractError, EchoAgentError, RegistrationError
from .schema import Schema, validate_value_map

LAYERS = ("perceptual", "operational", "functional")
BACKENDS = ("wire", "mock", "native")


@dataclass(frozen=True)
class ToolDescriptor:
    name: str
    layer: str
    input_schema: Schema
    output_schema: Schema
    backend: str = "native"

    def __post_init__(self):
        if self.layer not in LAYERS:
            raise RegistrationError(f"tool {self.name!r}: unknown layer {self.layer!r}")
        if self.backend not in BACKENDS:
            raise RegistrationError(f"tool {self.name!r}: unknown backend {self.backend!r}")


@dataclass
class ToolResult:
    tool_name: str
    invocation_id: str
    outputs: dict
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ContractError(
                f"tool {self.tool_name}: confidence {self.confidence} outside [0, 1]"
            )


@dataclass
class InvocationContext:
    invocation_id: str
    # study dir -> its sidecar, read once per run: shared by a run's invocations
    studies: dict
    attempts: int = 1


@dataclass(frozen=True)
class LogEntry:
    invocation_id: str
    tool_name: str
    status: str  # ok | contract_error | transport_error | fixture_error | tool_error
    attempts: int
    error: str | None = None


class ToolRegistry:
    """Insertion-ordered registry; immutable by convention after startup."""

    def __init__(self):
        self._tools: dict[str, tuple[ToolDescriptor, object]] = {}
        self._log: list[LogEntry] = []
        self._next_invocation = 1
        self._studies: dict | None = None  # a run's study memo; see for_run

    def register(self, descriptor: ToolDescriptor, handler) -> ToolDescriptor:
        """Handler signature: handler(inputs: dict, ctx: InvocationContext)
        -> (outputs: dict, confidence: float)."""
        if descriptor.name in self._tools:
            raise RegistrationError(f"duplicate tool name {descriptor.name!r}")
        self._tools[descriptor.name] = (descriptor, handler)
        return descriptor

    def get(self, name: str) -> ToolDescriptor:
        try:
            return self._tools[name][0]
        except KeyError:
            raise RegistrationError(f"no tool registered under {name!r}") from None

    def list_tools(self, layer: str | None = None) -> list[ToolDescriptor]:
        listed = [desc for desc, _ in self._tools.values()]
        if layer is not None:
            listed = [d for d in listed if d.layer == layer]
        return listed

    def for_run(self) -> "ToolRegistry":
        """The same tools (the map is copied); ids from ``inv-000001``, an empty log and memo."""
        run = ToolRegistry()
        run._tools = dict(self._tools)
        run._studies = {}
        return run

    @property
    def invocation_log(self) -> tuple[LogEntry, ...]:
        return tuple(self._log)

    def invoke(self, tool_name: str, inputs: dict) -> ToolResult:
        descriptor, handler = self._tools.get(tool_name, (None, None))
        if descriptor is None:
            raise RegistrationError(f"no tool registered under {tool_name!r}")
        ctx = InvocationContext(f"inv-{self._next_invocation:06d}",
                                studies={} if self._studies is None else self._studies)
        self._next_invocation += 1
        try:
            validate_value_map(inputs, descriptor.input_schema, f"{tool_name} inputs")
            outputs, confidence = handler(inputs, ctx)
            validate_value_map(outputs, descriptor.output_schema, f"{tool_name} outputs")
            result = ToolResult(
                tool_name=tool_name,
                invocation_id=ctx.invocation_id,
                outputs=outputs,
                confidence=float(confidence),
            )
        except EchoAgentError as exc:
            self._log.append(
                LogEntry(
                    invocation_id=ctx.invocation_id,
                    tool_name=tool_name,
                    status=exc.status,
                    attempts=ctx.attempts,
                    error=str(exc),
                )
            )
            raise
        self._log.append(
            LogEntry(
                invocation_id=ctx.invocation_id,
                tool_name=tool_name,
                status="ok",
                attempts=ctx.attempts,
            )
        )
        return result
