import json
import shutil

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import build_fixture_kb, causal_parents, make_primitive
from oracles import brute_force_topk, seed_resolve

from echoagent import anatomy
from echoagent.config import EngineConfig
from echoagent.errors import GraphError, ResolutionError
from echoagent.hub.engine import Conclusion, DiagnosticQuery, ReasoningHub
from echoagent.hub.graph import CAUSAL_KINDS, ReasoningGraph
from echoagent.kb.encoder import HashedBowEncoder
from echoagent.kb.index import KnowledgeBase
from echoagent.kb.summarize import empty_entry

EF_QUESTION = "Is the ejection fraction normal?"


def study_refs(dataset, study_id):
    root = dataset / "studies" / study_id
    return tuple(str(p) for p in sorted(root.iterdir()) if (p / "study.json").exists())


def copy_with_segmentation_confidence(dataset, root, study_id, views, confidence):
    """Copy one study under ``root`` with its views' segmentation confidence set."""
    shutil.copytree(dataset / "studies" / study_id, root / "studies" / study_id)
    for view in views:
        sidecar_path = root / "studies" / study_id / view / "study.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["segmentation_confidence"] = confidence
        sidecar_path.write_text(json.dumps(sidecar))
    return root


def run_study(kb, registry, dataset, study_id, trace_path=None, config=None):
    hub = ReasoningHub(kb, registry, config or EngineConfig())
    query = DiagnosticQuery(EF_QUESTION, study_refs=study_refs(dataset, study_id))
    return hub.run(query, trace_path=trace_path)


def test_resolution_self_retrieval(kb, registry):
    primitive = kb.primitives["lv-grading#0"]
    hub = ReasoningHub(kb, registry)
    query = DiagnosticQuery(primitive.text, study_refs=("x",))
    anatomy_name, entry, similarity = hub.resolve_repository(query)
    assert anatomy_name == "left ventricle"
    assert similarity == pytest.approx(1.0, abs=1e-9)
    assert entry.anatomy == "left ventricle"


def test_ef_question_resolves_to_left_ventricle_by_brute_force(kb, registry):
    hub = ReasoningHub(kb, registry)
    anatomy_name, _, _ = hub.resolve_repository(
        DiagnosticQuery(EF_QUESTION, study_refs=("x",))
    )
    # independent oracle: full cosine scan, winner's tags must include the pick
    items = [(pid, kb._matrix[row]) for row, pid in enumerate(kb.ids)]
    query_vec = kb.encoder.embed(EF_QUESTION)
    [(winner_id, _)] = brute_force_topk(items, query_vec, 1)
    assert anatomy_name in kb.primitives[winner_id].anatomy_tags
    assert anatomy_name == "left ventricle"


def test_empty_knowledge_base_is_unresolvable(registry):
    hub = ReasoningHub(KnowledgeBase(encoder=HashedBowEncoder(16)), registry)
    with pytest.raises(ResolutionError):
        hub.resolve_repository(DiagnosticQuery("anything", study_refs=("x",)))


def test_gibberish_query_reports_three_nearest_anatomies(kb, registry):
    hub = ReasoningHub(kb, registry, EngineConfig(s_min=0.99))
    with pytest.raises(ResolutionError) as err:
        hub.resolve_repository(DiagnosticQuery("zqxj wvut plomb", study_refs=("x",)))
    assert len(err.value.nearest) == 3


class FixedEncoder:
    """Embeds every text as the same query vector."""

    def __init__(self, vec):
        self.vec = vec
        self.dim = len(vec)
        self.encoder_id = "fixed"

    def embed(self, text):
        return self.vec


@st.composite
def resolution_cases(draw):
    """(kb, query vector, s_min) over random KBs built to tie at the top.

    Embeddings come from a small pool of unit vectors, so many primitives
    share one under different ids. One-hot pool members score exactly the
    query's coordinate, so their ties are exact. Ids are unpadded ("p10"
    sorts before "p2"), inserted in random order, and tagged at a drawn
    rate: never, rarely (a mostly untagged majority) or often.
    """
    dim = 6
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    random_vectors = rng.normal(size=(draw(st.integers(0, 3)), dim))
    pool = np.vstack([np.eye(dim), random_vectors / np.linalg.norm(random_vectors, axis=1,
                                                                   keepdims=True)])
    tag_rate = draw(st.sampled_from([0.0, 0.1, 0.6]))
    names = anatomy.ANATOMY_NAMES
    primitives, vectors = [], []
    for i in rng.permutation(draw(st.integers(1, 80))):
        tags = set()
        if rng.random() < tag_rate:
            tags = {names[int(g)] for g in rng.integers(0, len(names), rng.integers(1, 3))}
        keywords = [anatomy.group_by_name(names[int(g)]).keywords[0]
                    for g in rng.integers(0, len(names), 3)]
        primitives.append(make_primitive(f"p{i}", " ".join(keywords), tags))
        vectors.append(pool[rng.integers(len(pool))])
    query = rng.normal(size=dim)
    query /= np.linalg.norm(query)
    kb = KnowledgeBase(encoder=FixedEncoder(query))
    kb.add_primitives(primitives, np.array(vectors))
    best = float(kb.all_similarities(query).max())
    s_min = draw(st.sampled_from(["low", "at", "above"]))
    s_min = {"low": -1.0, "at": best, "above": float(np.nextafter(best, np.inf))}[s_min]
    assume(s_min <= 1.0)
    return kb, query, s_min


@settings(max_examples=300, deadline=None)
@given(case=resolution_cases())
def test_resolution_matches_the_dict_and_sort_oracle(case):
    kb, query_vec, s_min = case
    hub = ReasoningHub(kb, None, EngineConfig(s_min=s_min))
    query = DiagnosticQuery("any question", study_refs=("x",))
    try:
        winner_id, best_sim = seed_resolve(kb, query_vec, s_min)
    except ResolutionError as expected:
        with pytest.raises(ResolutionError) as err:
            hub.resolve_repository(query)
        assert err.value.nearest == expected.nearest
        return
    anatomy_name, entry, similarity = hub.resolve_repository(query)
    winner = kb.primitives[winner_id]
    assert anatomy_name == anatomy.dominant_group(winner.text, winner.anatomy_tags)
    assert entry == empty_entry(anatomy_name, EngineConfig().k)
    assert similarity.hex() == best_sim.hex()


def test_graph_invariant_error_propagates_out_of_run(kb, registry, ef_dataset, monkeypatch):
    # only the first add_evidence breaks, so recording the step as failed would succeed
    original = ReasoningGraph.add_evidence
    calls = []

    def broken_once(self, *args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise GraphError("injected invariant violation")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ReasoningGraph, "add_evidence", broken_once)
    with pytest.raises(GraphError, match="injected invariant violation"):
        run_study(kb, registry, ef_dataset, "study-11")


def test_clean_fixture_run_concludes_confidently(kb, registry, ef_dataset, tmp_path):
    record = json.loads(
        (ef_dataset / "studies" / "study-11" / "record.json").read_text()
    )
    conclusion = run_study(kb, registry, ef_dataset, "study-11", tmp_path / "t.jsonl")
    assert conclusion.answer == "ConsiderablyReduced"
    assert conclusion.answer == record["truth"]["grade"]
    assert max(conclusion.posterior.values()) >= 0.9
    assert conclusion.subgoal_steps == 0
    assert not conclusion.low_consistency
    assert conclusion.ef_percent == pytest.approx(record["truth"]["ef_percent"])
    assert conclusion.executed_steps <= EngineConfig().d_max


def test_missing_view_fixture_forces_subgoals_and_terminates(kb, registry, ef_dataset, tmp_path):
    broken_root = tmp_path / "broken"
    shutil.copytree(ef_dataset / "studies" / "study-11", broken_root / "studies" / "study-11")
    shutil.rmtree(broken_root / "studies" / "study-11" / "a4c" / "masks")
    conclusion = run_study(kb, registry, broken_root, "study-11", tmp_path / "b.jsonl")
    assert conclusion.subgoal_steps >= 1
    assert conclusion.executed_steps <= EngineConfig().d_max
    kinds = [r["event_kind"] for r in conclusion.trace_records]
    assert "subgoal_step" in kinds
    assert conclusion.low_consistency


def test_subgoal_step_ids_are_monotone_and_follow_their_parents(kb, registry, ef_dataset, tmp_path):
    broken_root = tmp_path / "broken"
    shutil.copytree(ef_dataset / "studies" / "study-10", broken_root / "studies" / "study-10")
    shutil.rmtree(broken_root / "studies" / "study-10" / "a2c" / "masks")
    conclusion = run_study(kb, registry, broken_root, "study-10", tmp_path / "m.jsonl")
    step_records = [
        r for r in conclusion.trace_records if r["event_kind"] in ("step", "subgoal_step")
    ]
    executed_order = [r["step_id"] for r in step_records]
    executed_at = {step_id: i for i, step_id in enumerate(executed_order)}
    planned_max = max(
        r["step_id"] for r in step_records if r["event_kind"] == "step"
    )
    for record in step_records:
        if record["event_kind"] == "subgoal_step":
            assert record["step_id"] > planned_max  # fresh monotone ids
    assert len(set(executed_order)) == len(executed_order)


def test_noisy_segmentations_spawn_one_subgoal_each_and_still_grade(
    kb, registry, ef_dataset, tmp_path
):
    noisy_root = copy_with_segmentation_confidence(
        ef_dataset, tmp_path / "allnoisy", "study-02", ("a2c", "a4c"), 0.2
    )
    record = json.loads((ef_dataset / "studies" / "study-02" / "record.json").read_text())
    conclusion = run_study(kb, registry, noisy_root, "study-02", tmp_path / "h.jsonl")
    # each planned segmentation re-segments on the other view once; the
    # sub-goals, noisy too, spawn none, so volume, EF and grade still run
    assert conclusion.executed_steps == 14
    assert conclusion.subgoal_steps == 4
    assert conclusion.ef_percent == pytest.approx(record["truth"]["ef_percent"])
    assert conclusion.grade == record["truth"]["grade"]


def test_low_confidence_masks_weaken_every_measurement_built_on_them(
    kb, registry, ef_dataset, tmp_path
):
    noisy_root = copy_with_segmentation_confidence(
        ef_dataset, tmp_path / "allnoisy", "study-02", ("a2c", "a4c"), 0.2
    )
    conclusion = run_study(kb, registry, noisy_root, "study-02", tmp_path / "w.jsonl")
    # a clean study-02 concludes Normal at 0.98; here every mask is at 0.2
    assert conclusion.answer == "Normal"
    assert max(conclusion.posterior.values()) < 0.9
    assert conclusion.low_consistency
    measured = [
        node for node in conclusion.graph.nodes.values()
        if node.kind == "evidence"
        and {"volume_ml", "ef_percent", "grade"} & set(node.payload)
    ]
    assert len(measured) == 4  # EDV, ESV, EF, grade
    assert all(node.confidence == 0.2 for node in measured)
    derived = [
        r for r in conclusion.trace_records
        if (r.get("tool") or "").startswith("quant.")
    ]
    assert [r["tool"] for r in derived] == [
        "quant.biplane_volume", "quant.biplane_volume",
        "quant.ejection_fraction", "quant.grade_ef",
    ]
    assert all(r["confidence"] == 0.2 and r["trigger"] for r in derived)


def test_evidence_payloads_carry_invocation_provenance(kb, registry, ef_dataset, tmp_path):
    conclusion = run_study(kb, registry, ef_dataset, "study-06", tmp_path / "i.jsonl")
    evidence_payloads = [
        node.payload for node in conclusion.graph.nodes.values()
        if node.kind == "evidence"
    ]
    assert evidence_payloads
    for payload in evidence_payloads:
        assert "invocation_id" in payload or "failure" in payload


def test_restoring_the_fixture_removes_all_subgoals(kb, registry, ef_dataset, tmp_path):
    conclusion = run_study(kb, registry, ef_dataset, "study-11", tmp_path / "c.jsonl")
    kinds = [r["event_kind"] for r in conclusion.trace_records]
    assert "subgoal_step" not in kinds


def test_low_confidence_segmentation_requests_alternate_view(kb, registry, ef_dataset, tmp_path):
    noisy_root = copy_with_segmentation_confidence(
        ef_dataset, tmp_path / "noisy", "study-01", ("a2c",), 0.3
    )
    conclusion = run_study(kb, registry, noisy_root, "study-01", tmp_path / "n.jsonl")
    assert conclusion.subgoal_steps >= 1
    subgoal_records = [
        r for r in conclusion.trace_records if r["event_kind"] == "subgoal_step"
    ]
    assert all(r["tool"] == "echo.segmenter" for r in subgoal_records)


def test_dmax_zero_concludes_immediately_from_the_prior(kb, registry, ef_dataset, tmp_path):
    conclusion = run_study(
        kb, registry, ef_dataset, "study-01", tmp_path / "z.jsonl",
        config=EngineConfig(d_max=0),
    )
    assert conclusion.executed_steps == 0
    assert conclusion.low_consistency
    assert conclusion.answer == "Normal"  # first hypothesis on a flat prior
    assert all(
        p == pytest.approx(1 / 3) for p in conclusion.posterior.values()
    )


def test_trace_replay_is_byte_identical(kb, registry, ef_dataset, tmp_path):
    """Two runs on one registry, and a run on a fresh one, write the same bytes."""
    from echoagent.hub.toolkit import build_default_registry

    traces = []
    for i, run_registry in enumerate((registry, registry, build_default_registry())):
        path = tmp_path / f"run{i}.jsonl"
        run_study(kb, run_registry, ef_dataset, "study-07", path)
        traces.append(path.read_bytes())
    assert traces[0] == traces[1] == traces[2]


def test_invocation_log_lists_the_runs_calls_and_leaves_the_registry_alone(
    kb, registry, ef_dataset
):
    conclusion = run_study(kb, registry, ef_dataset, "study-11")
    log = conclusion.invocation_log
    assert [entry.invocation_id for entry in log] == [
        f"inv-{i:06d}" for i in range(1, len(log) + 1)
    ]
    steps = [r for r in conclusion.trace_records if r["event_kind"] == "step"]
    assert [entry.tool_name for entry in log] == [r["tool"] for r in steps]
    assert all(entry.status == "ok" and entry.attempts == 1 for entry in log)
    assert registry.invocation_log == ()
    assert run_study(kb, registry, ef_dataset, "study-11").invocation_log == log


def test_posterior_snapshots_normalized_at_every_step(kb, registry, ef_dataset, tmp_path):
    conclusion = run_study(kb, registry, ef_dataset, "study-03", tmp_path / "p.jsonl")
    for record in conclusion.trace_records:
        posterior = record["posterior"]
        assert abs(sum(posterior) - 1.0) <= 1e-9
        assert all(p >= 0 for p in posterior)


def test_graph_causality_holds_after_the_run(kb, registry, ef_dataset, tmp_path):
    conclusion = run_study(kb, registry, ef_dataset, "study-05", tmp_path / "g.jsonl")
    graph = conclusion.graph
    assert graph.checks_run > 0
    anchored = {n for n, node in graph.nodes.items() if node.kind == "raw_anchor"}
    changed = True
    while changed:
        changed = False
        for edge in graph.edges:
            if edge.kind in CAUSAL_KINDS and edge.src in anchored and edge.dst not in anchored:
                anchored.add(edge.dst)
                changed = True
    for node_id, node in graph.nodes.items():
        if node.kind == "evidence":
            assert node_id in anchored


def test_evidence_chain_has_two_derive_hops_from_mask_to_ef(kb, registry, ef_dataset, tmp_path):
    conclusion = run_study(kb, registry, ef_dataset, "study-02", tmp_path / "d.jsonl")
    graph = conclusion.graph
    ef_nodes = [
        n for n, node in graph.nodes.items()
        if node.kind == "evidence" and isinstance(node.payload, dict)
        and "ef_percent" in node.payload
    ]
    assert len(ef_nodes) == 1
    volume_parents = causal_parents(graph, ef_nodes[0])
    assert len(volume_parents) == 2
    for parent in volume_parents:
        mask_parents = causal_parents(graph, parent)
        assert any(
            "mask" in str(graph.nodes[gp].payload) for gp in mask_parents
        )


def test_anomalous_ef_fires_the_trigger_and_withholds_the_grade(
    kb, registry, tmp_path, ef_dataset
):
    # swap ED and ES masks so ESV > EDV and the computed EF is negative
    swapped_root = tmp_path / "swapped"
    shutil.copytree(ef_dataset / "studies" / "study-09", swapped_root / "studies" / "study-09")
    for view in ("a2c", "a4c"):
        masks = swapped_root / "studies" / "study-09" / view / "masks"
        ed, es = masks / "ed.pgm", masks / "es.pgm"
        tmp = masks / "tmp.pgm"
        ed.rename(tmp)
        es.rename(ed)
        tmp.rename(es)
    # e_max 1.0: entropy cannot fire the trigger, so only the anomalous EF can
    conclusion = run_study(kb, registry, swapped_root, "study-09", tmp_path / "a.jsonl",
                           config=EngineConfig(e_max=1.0))
    fired = {r["tool"]: r["trigger"] for r in conclusion.trace_records if r.get("tool")}
    assert fired["quant.ejection_fraction"]
    assert not fired["quant.biplane_volume"]
    assert conclusion.subgoal_steps == 0
    assert "subgoal_step" not in [r["event_kind"] for r in conclusion.trace_records]
    assert conclusion.grade is None
    failures = [
        node.payload["failure"] for node in conclusion.graph.nodes.values()
        if node.kind == "evidence" and "failure" in node.payload
    ]
    assert failures == ["ejection fraction flagged anomalous; grading withheld"]
    assert conclusion.answer == "Normal"  # first hypothesis on a flat posterior
    assert all(p == pytest.approx(1 / 3) for p in conclusion.posterior.values())
    assert conclusion.ef_percent == pytest.approx(-41.67, abs=0.005)
    assert conclusion.executed_steps == 10


def test_multiple_choice_answers_come_from_the_options(kb, registry, qa_dataset, tmp_path):
    for study_id, expected in (
        ("qa-01", "normal pericardium"),
        ("qa-02", "pericardial thickening"),
        ("qa-03", "normal left atrium"),
        ("qa-04", "left atrial enlargement"),
    ):
        record = json.loads(
            (qa_dataset / "studies" / study_id / "record.json").read_text()
        )
        hub = ReasoningHub(kb, registry)
        query = DiagnosticQuery(
            record["question"],
            study_refs=study_refs(qa_dataset, study_id),
            options=tuple(record["options"]),
        )
        conclusion = hub.run(query, trace_path=tmp_path / f"{study_id}.jsonl")
        assert conclusion.answer == expected
        assert conclusion.answer in record["options"]
        assert max(conclusion.posterior.values()) >= 0.9


@pytest.mark.parametrize("header", [b"P5\nabc 256\n255\n", b"P6\n256 256\n255\n"],
                         ids=["non_integer_width", "not_p5"])
def test_a_corrupt_frame_header_fails_its_segmentation_step(
    kb, registry, ef_dataset, tmp_path, header
):
    shutil.copytree(ef_dataset / "studies" / "study-03", tmp_path / "studies" / "study-03")
    frame = tmp_path / "studies" / "study-03" / "a4c" / "ed.pgm"
    frame.write_bytes(header + frame.read_bytes().split(b"\n", 3)[3])
    conclusion = run_study(kb, registry, tmp_path, "study-03")
    failed = [entry for entry in conclusion.invocation_log if entry.status != "ok"]
    assert failed
    for entry in failed:
        assert entry.tool_name == "echo.segmenter"
        assert str(frame) in entry.error
    assert isinstance(conclusion, Conclusion)


@pytest.fixture()
def load_study_calls(monkeypatch):
    """The study dirs that ``backends.load_study`` reads, in call order."""
    from echoagent.tools import backends

    calls = []
    real = backends.load_study

    def counting(study_dir):
        calls.append(str(study_dir))
        return real(study_dir)

    monkeypatch.setattr(backends, "load_study", counting)
    return calls


def test_a_run_reads_each_study_sidecar_once(kb, registry, ef_dataset, qa_dataset,
                                             load_study_calls):
    conclusion = run_study(kb, registry, ef_dataset, "study-01")
    assert conclusion.grade is not None
    # two views classified and four masks segmented read two sidecars, not six
    assert sorted(load_study_calls) == sorted(study_refs(ef_dataset, "study-01"))
    for study_id in ("qa-01", "qa-02", "qa-03", "qa-04"):
        load_study_calls.clear()
        record = json.loads((qa_dataset / "studies" / study_id / "record.json").read_text())
        ReasoningHub(kb, registry).run(DiagnosticQuery(
            record["question"], study_refs=study_refs(qa_dataset, study_id),
            options=tuple(record["options"]),
        ))
        assert load_study_calls == list(study_refs(qa_dataset, study_id))


def test_a_second_run_of_one_hub_reads_a_rewritten_sidecar_again(
    kb, registry, ef_dataset, tmp_path
):
    from echoagent.hub.toolkit import build_default_registry

    shutil.copytree(ef_dataset / "studies" / "study-02", tmp_path / "studies" / "study-02")
    hub = ReasoningHub(kb, registry)
    query = DiagnosticQuery(EF_QUESTION, study_refs=study_refs(tmp_path, "study-02"))
    first = hub.run(query, trace_path=tmp_path / "first.jsonl")
    sidecar_path = tmp_path / "studies" / "study-02" / "a4c" / "study.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["confidence"] = 0.31
    sidecar_path.write_text(json.dumps(sidecar))
    second = hub.run(query, trace_path=tmp_path / "second.jsonl")
    fresh = ReasoningHub(kb, build_default_registry()).run(
        query, trace_path=tmp_path / "fresh.jsonl"
    )
    assert (tmp_path / "second.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()
    assert (tmp_path / "second.jsonl").read_bytes() != (tmp_path / "first.jsonl").read_bytes()
    assert 0.31 in [r["confidence"] for r in second.trace_records]
    assert 0.31 not in [r["confidence"] for r in first.trace_records]
    assert fresh.answer == second.answer


def _failures(conclusion, root):
    return [
        node.payload["failure"].replace(str(root), "ROOT")
        for node in conclusion.graph.nodes.values()
        if isinstance(node.payload, dict) and "failure" in node.payload
    ]


def test_a_corrupt_sidecar_fails_its_steps_with_the_same_messages(
    kb, registry, ef_dataset, qa_dataset, tmp_path, load_study_calls
):
    shutil.copytree(ef_dataset / "studies" / "study-05", tmp_path / "studies" / "study-05")
    shutil.copytree(qa_dataset / "studies" / "qa-01", tmp_path / "studies" / "qa-01")
    (tmp_path / "studies" / "study-05" / "a2c" / "study.json").write_text("{not json")
    (tmp_path / "studies" / "qa-01" / "plax" / "study.json").write_text(
        '{"view": "parasternal-long-axis"}')

    conclusion = run_study(kb, registry, tmp_path, "study-05")
    unparseable = ("unparseable study sidecar ROOT/studies/study-05/a2c/study.json: "
                   "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)")
    # the messages of a run without the sidecar memo
    assert _failures(conclusion, tmp_path) == [
        unparseable,
        "no study classified as view 'apical-2-chamber'",
        "no study classified as view 'apical-2-chamber'",
        "missing apical-2-chamber mask of left ventricle at ED",
        "missing apical-2-chamber mask of left ventricle at ES",
        "missing left ventricle volume at ED",
        "no ejection fraction available for left ventricle",
    ]
    failed = [e for e in conclusion.invocation_log if e.status != "ok"]
    assert [(e.tool_name, e.status) for e in failed] == [
        ("echo.view_classifier", "fixture_error")]
    assert failed[0].error.replace(str(tmp_path), "ROOT") == unparseable

    conclusion = ReasoningHub(kb, registry).run(DiagnosticQuery(
        "Is the pericardium normal or thickened?",
        study_refs=study_refs(tmp_path, "qa-01"),
        options=("normal pericardium", "pericardial thickening"),
    ))
    assert _failures(conclusion, tmp_path) == [
        "malformed study sidecar ROOT/studies/qa-01/plax/study.json: 'pixel_spacing_mm'",
        "no study classified as view 'parasternal-long-axis'",
        "no mask available for pericardium at ED",
    ]


def test_a_failed_sidecar_read_is_not_kept_for_the_rest_of_the_run(
    registry, ef_dataset, tmp_path, load_study_calls
):
    from echoagent.errors import FixtureError
    from echoagent.tools.backends import VIEW_TOOL

    study = tmp_path / "a2c"
    shutil.copytree(ef_dataset / "studies" / "study-01" / "a2c", study)
    good = (study / "study.json").read_text()
    (study / "study.json").write_text("{not json")
    run = registry.for_run()
    messages = []
    for _ in range(2):
        with pytest.raises(FixtureError) as info:
            run.invoke(VIEW_TOOL, {"study_dir": str(study)})
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert len(load_study_calls) == 2
    (study / "study.json").write_text(good)
    for _ in range(2):
        assert run.invoke(VIEW_TOOL, {"study_dir": str(study)}).outputs["view"] == "apical-2-chamber"
    assert len(load_study_calls) == 3
    # the shared registry keeps no memo: each of its invocations reads again
    registry.invoke(VIEW_TOOL, {"study_dir": str(study)})
    registry.invoke(VIEW_TOOL, {"study_dir": str(study)})
    assert len(load_study_calls) == 5


def kb_with_lv_grading(corpus_dir, root, edit):
    """An index built from a copy of the fixture corpus whose left-ventricle
    grading text is ``edit`` applied to the original."""
    shutil.copytree(corpus_dir, root)
    grading = root / "lv-grading.txt"
    grading.write_text(edit(grading.read_text()))
    return build_fixture_kb(root)


def test_the_grade_follows_the_guidelines_cut_offs(corpus_dir, registry, ef_dataset, tmp_path):
    # the guideline's normal range starts at 56% here, not at the 50% of the
    # dataset's truth
    kb56 = kb_with_lv_grading(corpus_dir, tmp_path / "corpus", lambda t: t.replace("50%", "56%"))
    assert [r.describe() for r in kb56.entries["left ventricle"].rules] == [
        "ef_percent >= 56 -> Normal",
        "ef_percent >= 40 and < 56 -> MildlyReduced",
        "ef_percent < 40 -> ConsiderablyReduced",
    ]
    for i in range(1, 13):
        conclusion = run_study(kb56, registry, ef_dataset, f"study-{i:02d}")
        ef = conclusion.ef_percent
        expected = ("Normal" if ef >= 56 else "MildlyReduced" if ef >= 40
                    else "ConsiderablyReduced")
        assert (conclusion.answer, conclusion.grade) == (expected, expected), (i, ef)
        assert max(conclusion.posterior.values()) == pytest.approx(50 / 51)
        if i == 2:  # the dataset's truth says Normal, the guideline says otherwise
            assert (ef, conclusion.answer) == (pytest.approx(55.2576, abs=5e-5), "MildlyReduced")


@pytest.mark.parametrize("edit, satisfied", [
    # "above 45%" overlaps "50% or higher": study-02's EF of 55.26 meets both
    (lambda t: t.replace("between 40% and 50%", "above 45%"), 2),
    # nothing between 50% and 60%: study-02's EF meets no rule
    (lambda t: t.replace("50% or higher", "60% or higher"), 0),
], ids=["overlapping", "gapped"])
def test_rules_that_overlap_or_leave_a_gap_fail_the_grade_step(
    corpus_dir, registry, ef_dataset, tmp_path, edit, satisfied
):
    kb_edited = kb_with_lv_grading(corpus_dir, tmp_path / "corpus", edit)
    conclusion = run_study(kb_edited, registry, ef_dataset, "study-02")
    message = f"ejection fraction 55.2576% satisfies {satisfied} of the entry's ef_percent rules"
    failed = [e for e in conclusion.invocation_log if e.status != "ok"]
    assert [(e.tool_name, e.status) for e in failed] == [("quant.grade_ef", "tool_error")]
    assert failed[0].error.startswith(message)
    assert failed[0].error in _failures(conclusion, tmp_path)
    assert conclusion.grade is None
    assert conclusion.ef_percent == pytest.approx(55.2576, abs=5e-5)
    assert conclusion.low_consistency
