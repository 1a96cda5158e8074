from .graph import EvidenceNode, ReasoningGraph, TypedEdge
from .hypotheses import (
    ThresholdRule,
    normalized_entropy,
    parse_criteria,
    update_posteriors,
)
from .planning import ActionStep, Plan, plan_steps
from .trace import TraceWriter, digest, read_trace
from .toolkit import build_default_registry, register_quant_tools
from .engine import Conclusion, DiagnosticQuery, ReasoningHub

__all__ = [
    "EvidenceNode",
    "ReasoningGraph",
    "TypedEdge",
    "ThresholdRule",
    "normalized_entropy",
    "parse_criteria",
    "update_posteriors",
    "ActionStep",
    "Plan",
    "plan_steps",
    "TraceWriter",
    "digest",
    "read_trace",
    "build_default_registry",
    "register_quant_tools",
    "Conclusion",
    "DiagnosticQuery",
    "ReasoningHub",
]
