"""Deterministic compilation of a repository entry into tool-mapped steps.

Sections compile mechanically: view mentions become view-identification
steps, structure mentions become per-view per-phase segmentation steps,
measurement phrases become quantification steps wired to the segmentation
outputs. Diagnostic criteria define hypotheses, not steps. Each op names
its tool, whose inputs the engine's op handler builds; a registry that lacks
a planned tool is refused here, before any step runs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .. import anatomy
from ..kb.summarize import RepositoryEntry
from ..tools.backends import SEGMENT_TOOL, VIEW_TOOL
from ..tools.registry import ToolRegistry
from ..tools.views import find_views_in_text
from .toolkit import AREA_TOOL, DIMENSION_TOOL, EF_TOOL, GRADE_TOOL, VOLUME_TOOL

ED = "ED"
ES = "ES"

_EF_WORDS = ("ejection fraction",)
_VOLUME_WORDS = ("volume", "method of disks", "disk summation") + _EF_WORDS

# One row per measurement op, in emission order: (trigger words, op, tool,
# goal). Each (op, structure) is planned once. Volume expands to ED and ES;
# area and dimension measure the first planned view at ED.
_MEASUREMENTS = (
    (_VOLUME_WORDS, "volume", VOLUME_TOOL, "compute biplane {structure} volume at {phase}"),
    (_EF_WORDS, "ef", EF_TOOL, "compute {structure} ejection fraction"),
    (_EF_WORDS, "grade", GRADE_TOOL, "grade {structure} ejection fraction"),
    (("area",), "area", AREA_TOOL, "measure {structure} area"),
    (("diameter", "dimension"), "dimension", DIMENSION_TOOL,
     "measure {structure} long-axis dimension"),
)


@dataclass
class ActionStep:
    step_id: int
    goal: str
    tool_name: str
    inputs: dict
    origin: str = "planned"  # planned | subgoal


@dataclass
class Plan:
    steps: list[ActionStep] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    views: list[str] = field(default_factory=list)
    structures: list[str] = field(default_factory=list)


def _structures_in(items: list[str], fallback: str) -> list[str]:
    ordered: list[str] = []
    for item in items:
        lowered = item.lower()
        mentions = []
        for group in anatomy.ANATOMY_GROUPS:
            positions = [lowered.find(kw) for kw in group.keywords if kw in lowered]
            if positions:
                mentions.append((min(positions), group.canonical_name))
        for _, name in sorted(mentions):
            if name not in ordered:
                ordered.append(name)
    if not ordered and items:
        ordered = [fallback]
    return ordered


def plan_steps(
    entry: RepositoryEntry,
    query,
    registry: ToolRegistry,
    taxonomy: tuple[str, ...],
    n_disks: int = 20,
) -> Plan:
    plan = Plan()
    view_items = entry.section_items("views_to_acquire")
    segment_items = entry.section_items("structures_to_segment")
    measure_items = entry.section_items("measurements")

    if not view_items and not segment_items and not measure_items:
        plan.warnings.append(
            f"repository entry for {entry.anatomy!r} offers no guidance; empty plan"
        )
        return plan

    for item in view_items:
        for view in find_views_in_text(item, taxonomy):
            if view not in plan.views:
                plan.views.append(view)
    plan.structures = _structures_in(segment_items, entry.anatomy)

    need_volumes = any(w in item.lower() for item in measure_items for w in _VOLUME_WORDS)
    phases = [ED, ES] if need_volumes else [ED]

    next_id = 0

    def add(goal: str, tool_name: str, inputs: dict) -> None:
        nonlocal next_id
        plan.steps.append(ActionStep(next_id, goal, tool_name, inputs))
        next_id += 1

    if plan.views and query.study_refs:
        for ref in query.study_refs:
            add(
                f"identify the echocardiographic view of {ref}",
                VIEW_TOOL,
                {"op": "classify_view", "study_dir": str(ref)},
            )

    if plan.structures and plan.views:
        for structure in plan.structures:
            for view in plan.views:
                for phase in phases:
                    add(
                        f"segment {structure} on {view} at {phase}",
                        SEGMENT_TOOL,
                        {"op": "segment", "structure": structure, "view": view, "phase": phase},
                    )
    elif plan.structures and not plan.views:
        plan.warnings.append("structures to segment but no views to acquire; skipping segmentation")

    planned: set[tuple[str, str]] = set()
    first_view = plan.views[0] if plan.views else None
    for item in measure_items:
        lowered = item.lower()
        targets = [s for s in _structures_in([item], entry.anatomy) if s in plan.structures]
        for structure in targets or [entry.anatomy]:
            for words, op, tool, goal in _MEASUREMENTS:
                if (op, structure) in planned or not any(w in lowered for w in words):
                    continue
                planned.add((op, structure))
                inputs = {"op": op, "structure": structure}
                if op == "volume":
                    for phase in (ED, ES):
                        add(goal.format(structure=structure, phase=phase), tool,
                            {**inputs, "phase": phase, "n_disks": n_disks})
                elif op in ("area", "dimension"):
                    add(goal.format(structure=structure), tool,
                        {**inputs, "view": first_view, "phase": ED})
                else:
                    add(goal.format(structure=structure), tool, inputs)
    for step in plan.steps:
        registry.get(step.tool_name)  # refuses a registry that lacks a planned tool
    return plan
