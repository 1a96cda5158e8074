"""Tool backends: study fixtures, mock handlers, and the HTTP wire adapter.

A study is a directory of PGM frames plus a ``study.json`` sidecar:

    {"view": "apical-4-chamber", "confidence": 0.97,
     "pixel_spacing_mm": [0.5, 0.5],
     "frames": {"ED": "ed.pgm", "ES": "es.pgm"},
     "structure_map": {"1": "left ventricle"},
     "segmentation_confidence": 1.0}

Ground-truth masks live under ``masks/`` co-named with their frame, which
is all the mock segmenter does: a deterministic table lookup. A run reads
each sidecar once, into ``InvocationContext.studies``; a failed read is not kept.
"""
from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path

from ..config import EngineConfig
from ..errors import ContractError, FixtureError, TaxonomyError, TransportError
from ..wire import JsonEndpoint
from .masks import SegmentationMask, valid_spacing
from .pgm import decode_pgm, pgm_dimensions, read_pgm
from .registry import InvocationContext, ToolDescriptor, ToolRegistry
from .schema import FieldSpec

SIDECAR_NAME = "study.json"


@dataclass
class StudySidecar:
    view: str
    confidence: float
    pixel_spacing_mm: tuple[float, float]
    frames: dict[str, str]  # phase -> relative frame path
    structure_map: dict[int, str]
    segmentation_confidence: float
    study_dir: Path

    def frame_path(self, phase: str) -> Path:
        return self.study_dir / self._frame(phase)

    def mask_path(self, phase: str) -> Path:
        return self.study_dir / "masks" / self._frame(phase)

    def _frame(self, phase: str) -> str:
        try:
            return self.frames[phase]
        except KeyError:
            raise FixtureError(
                f"study {self.study_dir} has no frame for phase {phase!r}"
            ) from None


def load_study(study_dir: str | Path) -> StudySidecar:
    study_dir = Path(study_dir)
    sidecar_path = study_dir / SIDECAR_NAME
    if not sidecar_path.exists():
        raise FixtureError(f"missing study sidecar {sidecar_path}")
    try:
        raw = json.loads(sidecar_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise FixtureError(f"unparseable study sidecar {sidecar_path}: {exc}") from exc
    try:
        spacing = tuple(float(v) for v in raw["pixel_spacing_mm"])
        sidecar = StudySidecar(
            view=str(raw["view"]),
            confidence=float(raw["confidence"]),
            pixel_spacing_mm=(spacing[0], spacing[1]),
            frames={str(k): str(v) for k, v in raw["frames"].items()},
            structure_map={int(k): str(v) for k, v in raw.get("structure_map", {"1": "left ventricle"}).items()},
            segmentation_confidence=float(raw.get("segmentation_confidence", 1.0)),
            study_dir=study_dir,
        )
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise FixtureError(f"malformed study sidecar {sidecar_path}: {exc}") from exc
    if not valid_spacing(*sidecar.pixel_spacing_mm):
        raise FixtureError(f"{sidecar_path}: pixel spacing must be positive and finite")
    return sidecar


def _run_study(inputs: dict, ctx: InvocationContext) -> StudySidecar:
    """The sidecar of ``inputs["study_dir"]`` from the run's memo, read on a miss."""
    study = ctx.studies.get(inputs["study_dir"])
    if study is None:
        study = ctx.studies[inputs["study_dir"]] = load_study(inputs["study_dir"])
    return study


# -- mock handlers ----------------------------------------------------------


def mock_view_handler(inputs: dict, ctx: InvocationContext):
    sidecar = _run_study(inputs, ctx)
    return {"view": sidecar.view}, sidecar.confidence


def mock_segment_handler(inputs: dict, ctx: InvocationContext):
    study = _run_study(inputs, ctx)
    mask_path = study.mask_path(inputs["phase"])
    try:
        labels = read_pgm(mask_path)
    except (FileNotFoundError, NotADirectoryError):
        raise FixtureError(f"missing ground-truth mask {mask_path}") from None
    return _segmenter_outputs(labels, study, inputs, study.segmentation_confidence)


def wire_segment_handler(wire_call):
    """Decode and check a wire segmenter's first artifact, a PGM mask, as the mock does."""

    def handler(inputs: dict, ctx: InvocationContext):
        outputs, confidence, mask_bytes = wire_call(inputs, ctx)
        if mask_bytes is None:
            raise ContractError(f"tool {SEGMENT_TOOL!r} returned no mask payload")
        segmented, confidence = _segmenter_outputs(decode_pgm(mask_bytes),
                                                   _run_study(inputs, ctx), inputs, confidence)
        return {**outputs, **segmented}, confidence  # the output check sees its fields

    return handler


def _segmenter_outputs(labels, study: StudySidecar, inputs: dict, confidence: float):
    """Segmenter outputs for a mask under the sidecar's spacing and structure map,
    checked against the frame, which must exist; confidence 0 when the target is absent."""
    mask = SegmentationMask(
        labels=labels,
        pixel_spacing_mm=study.pixel_spacing_mm,
        structure_map=dict(study.structure_map),
    )
    frame_path = study.frame_path(inputs["phase"])
    try:
        width, height = pgm_dimensions(frame_path)
    except (FileNotFoundError, NotADirectoryError):
        raise FixtureError(f"missing frame {frame_path}") from None
    if (mask.width, mask.height) != (width, height):
        raise ContractError(
            f"mask dimensions {mask.width}x{mask.height} do not match frame {width}x{height}"
        )
    label = mask.label_for(inputs["target"])
    empty = label is None or mask.pixel_count(label) == 0
    return {"mask": mask, "empty_structure": empty}, 0.0 if empty else confidence


# -- wire protocol ----------------------------------------------------------


def make_wire_handler(tool_name: str, config: EngineConfig):
    """A registry handler for a wire tool at ``config.tool_url``: (outputs,
    confidence); artifacts are checked and dropped."""
    call = _wire_call(tool_name, config)
    return lambda inputs, ctx: call(inputs, ctx)[:2]


def _wire_call(tool_name: str, config: EngineConfig):
    """POST {tool_url}/invoke with {tool, invocation_id, inputs}; the call returns
    ``_decode_wire_response`` of the reply.

    Retries follow ``JsonEndpoint.post``; the attempt count is surfaced through
    the invocation context so the registry log records it.
    """
    post = JsonEndpoint(config.tool_url.rstrip("/") + "/invoke",
                        f"tool {tool_name!r} backend", config).post

    def call(inputs: dict, ctx: InvocationContext):
        body = {"tool": tool_name, "invocation_id": ctx.invocation_id, "inputs": inputs}
        try:
            payload, ctx.attempts = post(body)
        except (ContractError, TransportError) as exc:
            ctx.attempts = exc.attempts
            raise
        return _decode_wire_response(payload, tool_name)

    return call


def _decode_wire_response(payload, tool_name: str):
    """(outputs, confidence, the first artifact's bytes or None).

    Every artifact must carry base64 ``bytes_b64``; its ``id`` and
    ``media_type`` are ignored.
    """
    if not isinstance(payload, dict) or "outputs" not in payload or "confidence" not in payload:
        raise ContractError(
            f"tool {tool_name!r} backend response missing outputs/confidence"
        )
    outputs = payload["outputs"]
    if not isinstance(outputs, dict):
        raise ContractError(f"tool {tool_name!r} backend outputs is not an object")
    confidence = payload["confidence"]
    if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
        raise ContractError(f"tool {tool_name!r} backend confidence is not numeric")
    try:
        blobs = [base64.b64decode(raw["bytes_b64"]) for raw in payload.get("artifacts", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractError(f"tool {tool_name!r} backend artifact malformed: {exc}") from exc
    return outputs, float(confidence), blobs[0] if blobs else None


# -- fabric-level operations -------------------------------------------------


def classify_view(
    registry: ToolRegistry,
    tool_name: str,
    study_dir: str | Path,
    taxonomy: tuple[str, ...],
):
    """Run the view-identification tool and enforce the taxonomy."""
    result = registry.invoke(tool_name, {"study_dir": str(study_dir)})
    view = result.outputs["view"]
    if view not in taxonomy:
        raise TaxonomyError(f"classifier returned unknown view {view!r}")
    return result


def segment_structure(
    registry: ToolRegistry,
    tool_name: str,
    study_dir: str | Path,
    phase: str,
    target: str,
):
    """Run the segmentation tool; its handler builds and checks the mask."""
    return registry.invoke(
        tool_name, {"study_dir": str(study_dir), "phase": phase, "target": target}
    )


# -- default registration ----------------------------------------------------

VIEW_TOOL = "echo.view_classifier"
SEGMENT_TOOL = "echo.segmenter"


def register_perception_tools(registry: ToolRegistry, config: EngineConfig) -> None:
    """Register the perceptual and operational layers (wire when
    ``config.tool_url`` is set, else mock)."""
    backend = "wire" if config.tool_url else "mock"
    registry.register(
        ToolDescriptor(
            name=VIEW_TOOL,
            layer="perceptual",
            input_schema=(FieldSpec("study_dir", "string"),),
            output_schema=(FieldSpec("view", "string"),),
            backend=backend,
        ),
        make_wire_handler(VIEW_TOOL, config)
        if config.tool_url else mock_view_handler,
    )
    registry.register(
        ToolDescriptor(
            name=SEGMENT_TOOL,
            layer="operational",
            input_schema=(
                FieldSpec("study_dir", "string"),
                FieldSpec("phase", "string"),
                FieldSpec("target", "string"),
            ),
            output_schema=(
                FieldSpec("mask", "mask", required=False),
                FieldSpec("empty_structure", "boolean", required=False),
            ),
            backend=backend,
        ),
        wire_segment_handler(_wire_call(SEGMENT_TOOL, config))
        if config.tool_url else mock_segment_handler,
    )
