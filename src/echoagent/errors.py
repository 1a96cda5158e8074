"""Exception hierarchy shared across the package.

Each class declares its CLI exit code (1 I/O or input, 2 unresolved query,
3 contract or config violation) and the invocation-log status of a failed
tool call; nothing else maps a failure to either.
"""


class EchoAgentError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 1
    status = "tool_error"


class ConfigError(EchoAgentError):
    """Invalid, out-of-range, or unknown configuration values."""
    exit_code = 3


class IngestError(EchoAgentError):
    """Corpus document could not be read or decoded."""


class EncoderError(EchoAgentError):
    """Text could not be embedded (e.g. no tokens, zero vector)."""
    exit_code = 3


class TransportError(EchoAgentError):
    """A remote backend was unreachable or kept failing after retries."""
    status = "transport_error"

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class ContractError(EchoAgentError):
    """A value violated a declared schema or interface contract."""
    exit_code = 3
    status = "contract_error"


class TaxonomyError(EchoAgentError):
    """A view name outside the loaded view taxonomy."""
    exit_code = 3


class RegistrationError(EchoAgentError):
    """Tool registration conflict (duplicate name, malformed descriptor)."""
    exit_code = 3


class FixtureError(EchoAgentError):
    """A mock backend could not find or read its fixture."""
    status = "fixture_error"


class PgmFormatError(EchoAgentError):
    """Malformed or unsupported PGM payload."""


class IndexLoadError(EchoAgentError):
    """A persisted knowledge index failed validation on load."""


class GeometryError(EchoAgentError):
    """Mask region unusable for geometric measurement."""
    exit_code = 3


class VolumeError(EchoAgentError):
    """Biplane volume could not be computed from the given views."""
    exit_code = 3


class DomainError(EchoAgentError):
    """Numeric input outside a function's mathematical domain."""
    exit_code = 3


class GraphError(EchoAgentError):
    """Evidence-graph structural invariant violated."""
    exit_code = 3


class ResolutionError(EchoAgentError):
    """Query could not be resolved to any anatomy repository entry. Given
    ``nearest``, the message names those anatomies, or ``none``."""
    exit_code = 2

    def __init__(self, message: str, nearest: tuple[str, ...] | None = None):
        if nearest is not None:
            message += f" (nearest anatomies: {', '.join(nearest) or 'none'})"
        super().__init__(message)
        self.nearest = nearest or ()


class DatasetError(EchoAgentError):
    """Benchmark dataset directory malformed or internally inconsistent."""


class MetricError(EchoAgentError):
    """Metric undefined for the given inputs."""
    exit_code = 3
