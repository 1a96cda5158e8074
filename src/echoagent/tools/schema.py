"""Tiny typed field-list schemas for tool inputs and outputs."""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import ContractError
from ..kb.criteria import ThresholdRule
from .masks import SegmentationMask

FIELD_TYPES = ("string", "number", "integer", "boolean", "mask", "rules")


@dataclass(frozen=True)
class FieldSpec:
    name: str
    type: str
    required: bool = True

    def __post_init__(self):
        if self.type not in FIELD_TYPES:
            raise ContractError(f"unknown field type {self.type!r} for {self.name!r}")


Schema = tuple[FieldSpec, ...]


def _type_ok(value, type_name: str) -> bool:
    if type_name == "string":
        return isinstance(value, str)
    if type_name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if type_name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if type_name == "boolean":
        return isinstance(value, bool)
    if type_name == "mask":
        return isinstance(value, SegmentationMask)
    if type_name == "rules":
        return isinstance(value, tuple) and all(isinstance(r, ThresholdRule) for r in value)
    return False


def validate_value_map(values: dict, schema: Schema, where: str) -> None:
    """Raise ContractError on missing, unknown, or mistyped fields."""
    if not isinstance(values, dict):
        raise ContractError(f"{where}: expected a field map, got {type(values).__name__}")
    known = {spec.name for spec in schema}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ContractError(f"{where}: unknown fields {unknown}")
    for spec in schema:
        if spec.name not in values:
            if spec.required:
                raise ContractError(f"{where}: missing required field {spec.name!r}")
            continue
        if not _type_ok(values[spec.name], spec.type):
            raise ContractError(
                f"{where}: field {spec.name!r} is not of type {spec.type}"
            )
