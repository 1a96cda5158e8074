from .masks import SegmentationMask
from .pgm import decode_pgm, encode_pgm, read_pgm, write_pgm
from .registry import (
    InvocationContext,
    LogEntry,
    ToolDescriptor,
    ToolRegistry,
    ToolResult,
)
from .schema import FieldSpec, validate_value_map
from .views import A2C, A4C, PLAX, DEFAULT_TAXONOMY, load_taxonomy
from .backends import (
    SEGMENT_TOOL,
    VIEW_TOOL,
    StudySidecar,
    classify_view,
    load_study,
    make_wire_handler,
    register_perception_tools,
    segment_structure,
)

__all__ = [
    "SegmentationMask",
    "decode_pgm",
    "encode_pgm",
    "read_pgm",
    "write_pgm",
    "InvocationContext",
    "LogEntry",
    "ToolDescriptor",
    "ToolRegistry",
    "ToolResult",
    "FieldSpec",
    "validate_value_map",
    "A2C",
    "A4C",
    "PLAX",
    "DEFAULT_TAXONOMY",
    "load_taxonomy",
    "SEGMENT_TOOL",
    "VIEW_TOOL",
    "StudySidecar",
    "classify_view",
    "load_study",
    "make_wire_handler",
    "register_perception_tools",
    "segment_structure",
]
