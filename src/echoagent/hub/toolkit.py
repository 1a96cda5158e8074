"""Native functional-layer tools and the default registry assembly."""
from __future__ import annotations

from ..config import EngineConfig
from ..kb.criteria import grade_ef
from ..quant.geometry import long_axis, mask_area
from ..quant.volume import biplane_volume, ejection_fraction
from ..tools.backends import register_perception_tools
from ..tools.registry import ToolDescriptor, ToolRegistry
from ..tools.schema import FieldSpec

VOLUME_TOOL = "quant.biplane_volume"
EF_TOOL = "quant.ejection_fraction"
GRADE_TOOL = "quant.grade_ef"
AREA_TOOL = "quant.mask_area"
DIMENSION_TOOL = "quant.long_axis_dimension"


def _volume_handler(inputs, ctx):
    volume = biplane_volume(
        inputs["mask_a2c"], inputs["mask_a4c"], inputs["target_label"], inputs["n_disks"]
    )
    return {"volume_ml": volume}, 1.0


def _ef_handler(inputs, ctx):
    ef = ejection_fraction(inputs["edv_ml"], inputs["esv_ml"])
    return {"ef_percent": ef, "anomalous": ef < 0}, 1.0


def _grade_handler(inputs, ctx):
    return {"grade": grade_ef(inputs["ef_percent"], inputs["rules"])}, 1.0


def _area_handler(inputs, ctx):
    area = mask_area(inputs["mask"], inputs["target_label"])
    empty = area == 0.0  # exactly a zero pixel count under a valid spacing
    return {"area_mm2": area, "empty_structure": empty}, (0.0 if empty else 1.0)


def _dimension_handler(inputs, ctx):
    axis = long_axis(inputs["mask"], inputs["target_label"])
    return {"dimension_mm": axis.length_mm}, 1.0


def register_quant_tools(registry: ToolRegistry) -> None:
    registry.register(
        ToolDescriptor(
            name=VOLUME_TOOL,
            layer="functional",
            input_schema=(
                FieldSpec("mask_a2c", "mask"),
                FieldSpec("mask_a4c", "mask"),
                FieldSpec("target_label", "integer"),
                FieldSpec("n_disks", "integer"),
            ),
            output_schema=(FieldSpec("volume_ml", "number"),),
        ),
        _volume_handler,
    )
    registry.register(
        ToolDescriptor(
            name=EF_TOOL,
            layer="functional",
            input_schema=(FieldSpec("edv_ml", "number"), FieldSpec("esv_ml", "number")),
            output_schema=(FieldSpec("ef_percent", "number"), FieldSpec("anomalous", "boolean")),
        ),
        _ef_handler,
    )
    registry.register(
        ToolDescriptor(
            name=GRADE_TOOL,
            layer="functional",
            input_schema=(FieldSpec("ef_percent", "number"), FieldSpec("rules", "rules")),
            output_schema=(FieldSpec("grade", "string"),),
        ),
        _grade_handler,
    )
    registry.register(
        ToolDescriptor(
            name=AREA_TOOL,
            layer="functional",
            input_schema=(FieldSpec("mask", "mask"), FieldSpec("target_label", "integer")),
            output_schema=(FieldSpec("area_mm2", "number"), FieldSpec("empty_structure", "boolean")),
        ),
        _area_handler,
    )
    registry.register(
        ToolDescriptor(
            name=DIMENSION_TOOL,
            layer="functional",
            input_schema=(FieldSpec("mask", "mask"), FieldSpec("target_label", "integer")),
            output_schema=(FieldSpec("dimension_mm", "number"),),
        ),
        _dimension_handler,
    )


def build_default_registry(config: EngineConfig | None = None) -> ToolRegistry:
    """Perception tools (mock, or wire when tool_url is set) plus native math."""
    config = config or EngineConfig()
    registry = ToolRegistry()
    register_perception_tools(registry, config)
    register_quant_tools(registry)
    return registry
