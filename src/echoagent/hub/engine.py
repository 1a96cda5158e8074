"""The orchestration loop: resolve, plan, execute, score, adapt, conclude.

Each run grows its own graph and invokes tools through its own
``ToolRegistry.for_run`` registry, whose log it returns as
``Conclusion.invocation_log``. Invocation ids, which reach the trace, restart
at ``inv-000001``, so no trace depends on earlier runs. Runs only read the
hub's registry and knowledge base, so hubs may share both.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..anatomy import dominant_group
from ..config import EngineConfig
from ..errors import ContractError, EchoAgentError, GraphError, ResolutionError
from ..kb.criteria import ThresholdRule
from ..kb.index import KnowledgeBase
from ..kb.summarize import RepositoryEntry, empty_entry
from ..tools import backends
from ..tools.registry import LogEntry, ToolRegistry
from ..tools.views import A2C, A4C, ALTERNATE_VIEW, load_taxonomy
from .graph import ReasoningGraph
from .hypotheses import hypothesis_labels, labels_match, normalized_entropy, update_posteriors
from .planning import ED, ES, ActionStep, plan_steps
from .trace import TraceWriter, digest


@dataclass(frozen=True)
class DiagnosticQuery:
    text: str
    study_refs: tuple[str, ...]
    options: tuple[str, ...] | None = None  # set => multiple-choice mode

    def __post_init__(self):
        if not self.text.strip():
            raise ContractError("query text is empty")
        if not self.study_refs:
            raise ContractError("query needs at least one study reference")
        if self.options is not None and len(self.options) < 2:
            raise ContractError("multiple-choice query needs at least two options")
        if self.options is not None and len(set(self.options)) != len(self.options):
            raise ContractError(f"multiple-choice query repeats an option: {self.options}")


@dataclass
class Conclusion:
    answer: str
    posterior: dict[str, float]
    low_consistency: bool
    anatomy: str
    graph: ReasoningGraph
    trace_records: list[dict]
    trace_path: str | None
    executed_steps: int
    subgoal_steps: int
    ef_percent: float | None = None
    grade: str | None = None
    warnings: list[str] = field(default_factory=list)
    invocation_log: tuple[LogEntry, ...] = ()


@dataclass
class _StepOutcome:
    confidence: float
    payload: dict
    anomalous: bool = False


class ReasoningHub:
    def __init__(self, kb: KnowledgeBase, registry: ToolRegistry, config: EngineConfig | None = None):
        self.kb = kb
        self.registry = registry
        self.config = config or EngineConfig()
        self.taxonomy = load_taxonomy(self.config.taxonomy_path)

    # -- knowledge resolution -------------------------------------------------

    def resolve_repository(self, query: DiagnosticQuery) -> tuple[str, RepositoryEntry, float]:
        """Nearest anatomy-tagged primitive by cosine; its dominant tag picks the entry.

        The best similarity over all primitives must reach ``s_min``. Rows are
        in ascending id order and ``np.argmax`` keeps the first maximum, so
        ties go to the smallest primitive id."""
        if len(self.kb) == 0:
            raise ResolutionError("knowledge base is empty; query unresolvable", nearest=())
        sims = self.kb.all_similarities(self.kb.encoder.embed(query.text))
        best_sim = float(sims[np.argmax(sims)])
        if best_sim < self.config.s_min:
            raise ResolutionError(
                f"no primitive within s_min={self.config.s_min} of the query "
                f"(best similarity {best_sim:.4f})",
                nearest=self._nearest_anatomies(sims),
            )
        tagged = self.kb.tagged_rows
        if not tagged.size:
            raise ResolutionError(
                "no anatomy-tagged primitive matches the query",
                nearest=self._nearest_anatomies(sims),
            )
        winner = self.kb.primitives[self.kb.ids[tagged[np.argmax(sims[tagged])]]]
        anatomy_name = dominant_group(winner.text, winner.anatomy_tags)
        entry = self.kb.entries.get(anatomy_name) or empty_entry(anatomy_name, self.config.k)
        return anatomy_name, entry, best_sim

    def _nearest_anatomies(self, sims: np.ndarray) -> tuple[str, ...]:
        best = {
            name: float(sims[rows].max())
            for name, rows in self.kb.group_rows.items() if rows.size
        }
        ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
        return tuple(name for name, _ in ranked[:3])

    # -- main loop --------------------------------------------------------------

    def run(self, query: DiagnosticQuery, trace_path: str | Path | None = None) -> Conclusion:
        cfg = self.config
        trace = TraceWriter()
        registry = self.registry.for_run()
        anatomy_name, entry, similarity = self.resolve_repository(query)

        labels = hypothesis_labels(query.options, entry.rules,
                                   entry.section_items("diagnostic_criteria"))
        posterior = np.full(len(labels), 1.0 / len(labels))

        graph = ReasoningGraph()
        hypothesis_nodes = {label: graph.add_concept(label) for label in labels}
        anchors = {str(ref): graph.add_anchor({"study_ref": str(ref)}) for ref in query.study_refs}

        trace.emit(
            t=0, event_kind="resolve", posterior=posterior,
            outputs_digest=digest({"anatomy": anatomy_name, "similarity": similarity}),
            confidence=similarity,
        )

        plan = plan_steps(entry, query, registry, self.taxonomy, cfg.n_disks)
        trace.emit(
            t=0, event_kind="plan", posterior=posterior,
            outputs_digest=digest({
                "steps": [(s.step_id, s.tool_name, s.goal) for s in plan.steps],
                "warnings": plan.warnings,
                "hypotheses": list(labels),
            }),
        )

        state = _RunState(registry=registry, graph=graph, anchors=anchors, rules=entry.rules,
                          hypothesis_nodes=hypothesis_nodes, labels=labels)
        queue: deque[ActionStep] = deque(plan.steps)
        next_step_id = len(plan.steps)
        executed = 0
        subgoal_steps = 0

        while queue and executed < cfg.d_max:
            step = queue.popleft()
            executed += 1
            if step.origin != "planned":
                subgoal_steps += 1
            outcome = self._execute_step(step, state, executed)
            posterior = update_posteriors(graph, hypothesis_nodes, labels, cfg.beta, cfg.gamma)
            total = float(posterior.sum())
            if not abs(total - 1.0) <= 1e-9 or np.any(posterior < 0):
                raise GraphError(f"posterior left the simplex (sum={total!r})")
            fired, subgoal = self._adaptive_trigger(step, outcome, posterior, next_step_id)
            if subgoal is not None:
                queue.appendleft(subgoal)
                next_step_id += 1
            trace.emit(
                t=executed,
                event_kind="step" if step.origin == "planned" else "subgoal_step",
                step_id=step.step_id,
                tool=step.tool_name,
                outputs_digest=digest(outcome.payload),
                confidence=outcome.confidence,
                posterior=posterior,
                trigger=fired,
            )

        answer_index = int(np.argmax(posterior))
        answer = labels[answer_index]
        low_consistency = float(posterior.max()) < cfg.p_stop
        if not plan.steps:
            low_consistency = True
        trace.emit(
            t=executed, event_kind="final", posterior=posterior,
            outputs_digest=digest({"answer": answer, "low_consistency": low_consistency}),
        )

        written = None
        if trace_path is not None:
            written = str(trace.write(trace_path))
        return Conclusion(
            answer=answer,
            posterior={label: float(p) for label, p in zip(labels, posterior)},
            low_consistency=low_consistency,
            anatomy=anatomy_name,
            graph=graph,
            trace_records=trace.records,
            trace_path=written,
            executed_steps=executed,
            subgoal_steps=subgoal_steps,
            ef_percent=state.ef_value,
            grade=state.grade_value,
            warnings=list(plan.warnings),
            invocation_log=registry.invocation_log,
        )

    # -- step execution ---------------------------------------------------------

    def _execute_step(self, step: ActionStep, state: "_RunState", t: int) -> _StepOutcome:
        op = step.inputs.get("op", "")
        handler = _STEP_HANDLERS.get(op)
        if handler is None:
            return state.fail(step, t, f"unknown step op {op!r}")
        try:
            return handler(self, step, state, t)
        except GraphError:
            raise  # a broken graph invariant is a defect, not a failed step
        except EchoAgentError as exc:
            return state.fail(step, t, str(exc))

    def _do_classify(self, step, state, t):
        study_dir = step.inputs["study_dir"]
        result = backends.classify_view(state.registry, step.tool_name, study_dir, self.taxonomy)
        view = result.outputs["view"]
        payload = {"view": view, "study_ref": study_dir,
                   "invocation_id": result.invocation_id}
        node = state.graph.add_evidence(
            payload, result.confidence, t,
            causes=[(state.anchors[study_dir], "generates")],
        )
        state.study_of_view[view] = study_dir
        state.classify_node[view] = node
        return _StepOutcome(result.confidence, payload)

    def _do_segment(self, step, state, t):
        view = step.inputs["view"]
        phase = step.inputs["phase"]
        structure = step.inputs["structure"]
        study_dir = state.study_of_view.get(view)
        if study_dir is None:
            return state.fail(step, t, f"no study classified as view {view!r}")
        result = backends.segment_structure(
            state.registry, step.tool_name, study_dir, phase, structure
        )
        mask = result.outputs["mask"]
        empty = bool(result.outputs.get("empty_structure", False))
        payload = {
            "structure": structure, "view": view, "phase": phase,
            "empty_structure": empty, "mask": mask,
            "invocation_id": result.invocation_id,
        }
        causes = [(state.anchors[study_dir], "generates")]
        if view in state.classify_node:
            causes.append((state.classify_node[view], "derives"))
        node = state.graph.add_evidence(payload, result.confidence, t, causes=causes)
        state.masks[(view, phase, structure)] = (node, mask)
        return _StepOutcome(result.confidence, payload)

    def _measure(self, step, state, t, inputs: dict, causes: list, **context):
        """Invoke the step's tool; add its outputs, the structure, any step
        context and the invocation id as one evidence node. Its confidence is
        the lowest of the tool's and those of the evidence it derives from,
        so a low-confidence mask weakens every measurement built on it."""
        result = state.registry.invoke(step.tool_name, inputs)
        payload = {**result.outputs, "structure": step.inputs["structure"], **context,
                   "invocation_id": result.invocation_id}
        confidence = min(result.confidence,
                         *(state.graph.nodes[src].confidence for src, _ in causes))
        node = state.graph.add_evidence(payload, confidence, t, causes=causes)
        return node, _StepOutcome(confidence, payload)

    def _do_volume(self, step, state, t):
        phase = step.inputs["phase"]
        structure = step.inputs["structure"]
        pair = []
        for view in (A2C, A4C):
            got = state.masks.get((view, phase, structure))
            if got is None:
                return state.fail(
                    step, t, f"missing {view} mask of {structure} at {phase}"
                )
            pair.append(got)
        (node_a2c, mask_a2c), (node_a4c, mask_a4c) = pair
        label = mask_a2c.label_for(structure)
        if label is None:
            return state.fail(step, t, f"structure {structure!r} not in mask label map")
        node, outcome = self._measure(step, state, t, {
            "mask_a2c": mask_a2c, "mask_a4c": mask_a4c,
            "target_label": label, "n_disks": step.inputs["n_disks"],
        }, [(node_a2c, "derives"), (node_a4c, "derives")], phase=phase)
        value = float(outcome.payload["volume_ml"])
        state.volumes[(structure, phase)] = (node, value)
        self._link_criteria(state, node, "volume_ml", value, outcome.confidence)
        return outcome

    def _do_ef(self, step, state, t):
        structure = step.inputs["structure"]
        edv = state.volumes.get((structure, ED))
        esv = state.volumes.get((structure, ES))
        if edv is None or esv is None:
            missing = ED if edv is None else ES
            return state.fail(step, t, f"missing {structure} volume at {missing}")
        node, outcome = self._measure(
            step, state, t, {"edv_ml": edv[1], "esv_ml": esv[1]},
            [(edv[0], "derives"), (esv[0], "derives")],
        )
        outcome.anomalous = bool(outcome.payload["anomalous"])
        state.ef_node[structure] = node
        state.ef_value = float(outcome.payload["ef_percent"])
        state.ef_anomalous = outcome.anomalous
        if not outcome.anomalous:
            self._link_criteria(state, node, "ef_percent", state.ef_value, outcome.confidence)
        return outcome

    def _do_grade(self, step, state, t):
        structure = step.inputs["structure"]
        if state.ef_value is None or structure not in state.ef_node:
            return state.fail(step, t, f"no ejection fraction available for {structure}")
        if state.ef_anomalous:
            return state.fail(step, t, "ejection fraction flagged anomalous; grading withheld")
        node, outcome = self._measure(
            step, state, t, {"ef_percent": state.ef_value, "rules": state.rules},
            [(state.ef_node[structure], "derives")],
        )
        state.grade_value = outcome.payload["grade"]
        self._link_criteria(state, node, "ef_percent", state.ef_value, outcome.confidence)
        return outcome

    def _do_mask_metric(self, step, state, t):
        """Area or long-axis dimension of the structure on the planned view's
        mask. Only area falls back to another view's mask at the phase."""
        op = step.inputs["op"]
        structure = step.inputs["structure"]
        view = step.inputs.get("view")
        phase = step.inputs.get("phase", ED)
        got = state.masks.get((view, phase, structure)) if view else None
        if got is None and op == "area":
            # the structure's mask at the phase with the smallest (view, ...) key
            got = state.masks.get(
                min((key for key in state.masks if key[1:] == (phase, structure)), default=None)
            )
        if got is None:
            return state.fail(step, t, f"no mask available for {structure} at {phase}")
        node_mask, mask = got
        label = mask.label_for(structure)
        if label is None:
            return state.fail(step, t, f"structure {structure!r} not in mask label map")
        node, outcome = self._measure(
            step, state, t, {"mask": mask, "target_label": label}, [(node_mask, "derives")]
        )
        metric = _MASK_METRICS[op]
        if not outcome.payload.get("empty_structure", False):
            self._link_criteria(
                state, node, metric, float(outcome.payload[metric]), outcome.confidence
            )
        return outcome

    def _link_criteria(self, state, evidence_node: str, metric: str, value: float,
                       confidence: float) -> None:
        """Compare numeric evidence against the entry's threshold rules and
        wire supports/contradicts edges into the hypothesis concepts."""
        for rule in state.rules:
            if rule.metric != metric:
                continue
            for label in state.labels:
                if not labels_match(rule.label, label):
                    continue
                kind = "supports" if rule.satisfied(value) else "contradicts"
                state.graph.add_edge(
                    evidence_node, state.hypothesis_nodes[label], kind, confidence
                )

    # -- adaptation ---------------------------------------------------------------

    def _adaptive_trigger(self, step: ActionStep, outcome: _StepOutcome,
                          posterior: np.ndarray, subgoal_id: int) -> tuple[bool, ActionStep | None]:
        """Returns (fired, sub-goal or None).

        Low confidence, an anomalous EF or high posterior entropy fire the
        trigger. Only a planned segmentation below ``c_min`` spawns a
        sub-goal: the same structure and phase on the other apical view."""
        cfg = self.config
        low_confidence = outcome.confidence < cfg.c_min
        fired = (low_confidence or outcome.anomalous
                 or normalized_entropy(posterior) > cfg.e_max)
        alternate = ALTERNATE_VIEW.get(step.inputs.get("view", ""))
        if not (low_confidence and alternate and step.origin == "planned"
                and step.inputs.get("op") == "segment"):
            return fired, None
        structure = step.inputs["structure"]
        return fired, ActionStep(
            step_id=subgoal_id,
            goal=f"re-measure {structure} from the alternate view {alternate}",
            tool_name=step.tool_name,
            inputs={"op": "segment", "structure": structure,
                    "view": alternate, "phase": step.inputs["phase"]},
            origin="subgoal",
        )


@dataclass
class _RunState:
    registry: ToolRegistry  # the run's own, from ToolRegistry.for_run
    graph: ReasoningGraph
    anchors: dict[str, str]
    rules: tuple[ThresholdRule, ...]
    hypothesis_nodes: dict[str, str]
    labels: tuple[str, ...]
    study_of_view: dict[str, str] = field(default_factory=dict)
    classify_node: dict[str, str] = field(default_factory=dict)
    # (view, phase, structure) -> (node, mask); (structure, phase) -> (node, mL)
    masks: dict[tuple, tuple] = field(default_factory=dict)
    volumes: dict[tuple, tuple] = field(default_factory=dict)
    ef_node: dict[str, str] = field(default_factory=dict)
    ef_value: float | None = None
    ef_anomalous: bool = False
    grade_value: str | None = None

    def fail(self, step: ActionStep, t: int, message: str) -> _StepOutcome:
        """Record a failed attempt as zero-confidence evidence."""
        payload = {"failure": message, "goal": step.goal}
        causes = [(anchor, "generates") for anchor in self.anchors.values()]
        self.graph.add_evidence(payload, 0.0, t, causes=causes)
        return _StepOutcome(0.0, payload)


_MASK_METRICS = {"area": "area_mm2", "dimension": "dimension_mm"}

_STEP_HANDLERS = {
    "classify_view": ReasoningHub._do_classify,
    "segment": ReasoningHub._do_segment,
    "volume": ReasoningHub._do_volume,
    "ef": ReasoningHub._do_ef,
    "grade": ReasoningHub._do_grade,
    "area": ReasoningHub._do_mask_metric,
    "dimension": ReasoningHub._do_mask_metric,
}
