"""Acceptance suite: every criterion printed as its own pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import json
import shutil
import time

import numpy as np
import pytest

from conftest import build_fixture_kb, index_matrix, matrix_data, seal_index, split_index
from oracles import all_pairs_auroc, brute_force_topk, confusion_gmean

from echoagent.config import EngineConfig
from echoagent.errors import ContractError, IndexLoadError
from echoagent.evalharness.metrics import auroc, gmean
from echoagent.fixtures.shapes import cylinder_volume_ml, ellipse_mask, rect_mask, spheroid_volume_ml
from echoagent.hub.engine import DiagnosticQuery, ReasoningHub
from echoagent.hub.graph import CAUSAL_KINDS, ReasoningGraph
from echoagent.hub.hypotheses import update_posteriors
from echoagent.hub.toolkit import build_default_registry
from echoagent.kb.encoder import HashedBowEncoder
from echoagent.kb.index import KnowledgeBase
from echoagent.quant.grading import grade_ef
from echoagent.quant.volume import biplane_volume


def report(number: int, description: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {number} - {description}")
    return ok


def test_criterion_1_disk_summation_oracles():
    started = time.monotonic()
    spheroid = ellipse_mask(256, 40.0, 25.0, spacing_mm=0.5)
    spheroid_true = spheroid_volume_ml(80, 25)
    spheroid_value = biplane_volume(spheroid, spheroid, 1, 20)
    spheroid_ok = abs(spheroid_value - spheroid_true) / spheroid_true <= 0.02

    cylinder = rect_mask(128, width_px=20, height_px=60, spacing_mm=(1.0, 1.0))
    cylinder_true = cylinder_volume_ml(20, 60)
    cylinder_value = biplane_volume(cylinder, cylinder, 1, 20)
    cylinder_ok = abs(cylinder_value - cylinder_true) / cylinder_true <= 0.02

    errors = [
        abs(biplane_volume(spheroid, spheroid, 1, n) - spheroid_true) / spheroid_true
        for n in (5, 10, 20, 40)
    ]
    monotone_ok = all(b <= a + 0.002 for a, b in zip(errors, errors[1:]))
    elapsed = time.monotonic() - started
    ok = spheroid_ok and cylinder_ok and monotone_ok and elapsed < 5.0
    assert report(
        1,
        f"disk-summation volumes (spheroid {spheroid_value:.2f}/{spheroid_true:.2f} mL, "
        f"cylinder {cylinder_value:.2f}/{cylinder_true:.2f} mL, "
        f"errors {['%.4f' % e for e in errors]}, {elapsed:.2f}s)",
        ok,
    )


def test_criterion_2_grading_exactness():
    ok = (
        grade_ef(50.0) == "Normal"
        and grade_ef(40.0) == "MildlyReduced"
        and grade_ef(39.999) == "ConsiderablyReduced"
        and grade_ef(33.5) == "ConsiderablyReduced"
    )
    assert report(2, "grade boundaries 50/40/39.999 and worked value 33.5", ok)


def test_criterion_3_retrieval_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(123)
    dim, n = 256, 1000
    vectors = rng.normal(size=(n, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    from conftest import make_primitive

    kb = KnowledgeBase(encoder=HashedBowEncoder(dim))
    kb.add_primitives([make_primitive(f"p{i:04d}", f"text {i}") for i in range(n)], vectors)
    items = [(pid, kb._matrix[row]) for row, pid in enumerate(kb.ids)]
    ok = True
    for q in range(50):
        query = rng.normal(size=dim)
        query /= np.linalg.norm(query)
        k = int(rng.integers(1, n + 1))
        expected = [pid for pid, _ in brute_force_topk(items, query, k)]
        got = kb.retrieve_topk_vector(query, k=k).ids()
        if got != expected:
            ok = False
            break
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    assert report(3, f"retrieval == brute force on 1000x50 ({elapsed:.2f}s)", ok)


def _dataset_and_kb(tmp_path):
    from echoagent.fixtures.corpus import write_corpus
    from echoagent.fixtures.studies import generate_ef_dataset

    corpus = tmp_path / "corpus"
    write_corpus(corpus)
    kb = build_fixture_kb(corpus)
    dataset = tmp_path / "dataset"
    generate_ef_dataset(dataset)
    return kb, dataset


def test_criterion_4_end_to_end_determinism(tmp_path, capsys):
    from echoagent.cli import main

    kb, dataset = _dataset_and_kb(tmp_path)
    kb_path = tmp_path / "kb.json"
    kb.save(kb_path)
    outcomes = []
    trace_bytes = []
    for run_index in range(2):
        correct = 0
        confident = 0
        blobs = []
        for study_dir in sorted((dataset / "studies").iterdir()):
            record = json.loads((study_dir / "record.json").read_text())
            trace_path = tmp_path / f"{record['id']}-run{run_index}.jsonl"
            code = main([
                "run-study", str(study_dir), "Is the ejection fraction normal?",
                "--kb", str(kb_path), "--trace", str(trace_path), "--json",
            ])
            payload = json.loads(capsys.readouterr().out)
            correct += code == 0 and payload["answer"] == record["truth"]["grade"]
            confident += max(payload["posterior"].values()) >= 0.9
            blobs.append(trace_path.read_bytes())
        outcomes.append((correct, confident))
        trace_bytes.append(blobs)
    ok = (
        outcomes[0] == (12, 12)
        and outcomes[1] == (12, 12)
        and trace_bytes[0] == trace_bytes[1]
    )
    assert report(
        4,
        f"cmd_run_study: 12/12 correct grades at posterior >= 0.9 with "
        f"byte-identical traces (correct={outcomes[0][0]}, confident={outcomes[0][1]})",
        ok,
    )


def test_criterion_5_adaptive_mechanism(tmp_path):
    kb, dataset = _dataset_and_kb(tmp_path)
    config = EngineConfig()
    study = dataset / "studies" / "study-11"
    refs = tuple(str(p) for p in sorted(study.iterdir()) if (p / "study.json").exists())
    query = DiagnosticQuery("Is the ejection fraction normal?", study_refs=refs)

    # break one view, expect subgoal-origin steps and bounded termination
    shutil.rmtree(study / "a4c" / "masks")
    broken = ReasoningHub(kb, build_default_registry(), config).run(query)
    broken_kinds = [r["event_kind"] for r in broken.trace_records]
    broken_ok = (
        broken_kinds.count("subgoal_step") >= 1
        and broken.executed_steps <= config.d_max
    )

    # restore and expect a subgoal-free trace
    from echoagent.fixtures.studies import generate_ef_dataset

    shutil.rmtree(dataset)
    generate_ef_dataset(dataset)
    healthy = ReasoningHub(kb, build_default_registry(), config).run(query)
    healthy_kinds = [r["event_kind"] for r in healthy.trace_records]
    healthy_ok = healthy_kinds.count("subgoal_step") == 0 and healthy.subgoal_steps == 0

    assert report(
        5,
        f"missing fixture forces {broken_kinds.count('subgoal_step')} subgoal steps "
        f"within {broken.executed_steps} executed; restoring removes them",
        broken_ok and healthy_ok,
    )


def test_criterion_6_posterior_contract(tmp_path):
    labels = ("h1", "h2", "h3")
    graph = ReasoningGraph()
    nodes = {label: graph.add_concept(label) for label in labels}
    posterior = update_posteriors(graph, nodes, labels)
    uniform_ok = bool(np.all(np.abs(posterior - 1.0 / 3.0) <= 1e-9))

    rng = np.random.default_rng(77)
    argmax_ok = True
    for _ in range(1000):
        n_labels = int(rng.integers(2, 6))
        labs = tuple(f"h{i}" for i in range(n_labels))
        edge_plan = [
            (int(rng.integers(0, n_labels)),
             "supports" if rng.random() < 0.6 else "contradicts",
             float(rng.uniform(0.05, 1.0)))
            for _ in range(int(rng.integers(1, 7)))
        ]
        scale = float(rng.uniform(0.05, 1.0))
        argmaxes = []
        for factor in (1.0, scale):
            g = ReasoningGraph()
            node_ids = {label: g.add_concept(label) for label in labs}
            anchor = g.add_anchor("raw")
            evidence = g.add_evidence({"v": 1}, 1.0, causes=[(anchor, "generates")])
            for index, kind, weight in edge_plan:
                g.add_edge(evidence, node_ids[labs[index]], kind, weight * factor)
            p = update_posteriors(g, node_ids, labs)
            argmaxes.append(int(np.argmax(p)))
        if argmaxes[0] != argmaxes[1]:
            argmax_ok = False
            break

    kb, dataset = _dataset_and_kb(tmp_path)
    normalization_ok = True
    for study_dir in sorted((dataset / "studies").iterdir()):
        refs = tuple(
            str(p) for p in sorted(study_dir.iterdir()) if (p / "study.json").exists()
        )
        hub = ReasoningHub(kb, build_default_registry(), EngineConfig())
        conclusion = hub.run(
            DiagnosticQuery("Is the ejection fraction normal?", study_refs=refs)
        )
        for record in conclusion.trace_records:
            total = sum(record["posterior"])
            if abs(total - 1.0) > 1e-9 or any(p < 0 for p in record["posterior"]):
                normalization_ok = False
    ok = uniform_ok and argmax_ok and normalization_ok
    assert report(
        6,
        "uniform empty-graph posterior, argmax invariance over 1000 graphs, "
        "normalization at every step",
        ok,
    )


def test_criterion_7_metric_oracles():
    exact_ok = auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    rng = np.random.default_rng(9)
    auroc_ok = True
    gmean_ok = True
    classes = ["a", "b", "c"]
    for _ in range(1000):
        n = int(rng.integers(4, 50))
        scores = rng.uniform(0, 1, n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        if abs(auroc(list(scores), list(y)) - all_pairs_auroc(list(scores), list(y))) > 1e-9:
            auroc_ok = False
            break
        y_true = [classes[i] for i in rng.integers(0, 3, n)]
        y_pred = [classes[i] for i in rng.integers(0, 3, n)]
        cls = classes[int(rng.integers(0, 3))]
        if abs(gmean(y_true, y_pred, cls) - confusion_gmean(y_true, y_pred, cls)) > 1e-9:
            gmean_ok = False
            break
    ok = exact_ok and auroc_ok and gmean_ok
    assert report(7, "gmean/auroc match brute force on 1000 instances; 0.75 exact", ok)


def test_criterion_8_graph_invariants_in_fixture_runs(tmp_path):
    kb, dataset = _dataset_and_kb(tmp_path)
    checks = 0
    ok = True
    for study_dir in sorted((dataset / "studies").iterdir()):
        refs = tuple(
            str(p) for p in sorted(study_dir.iterdir()) if (p / "study.json").exists()
        )
        hub = ReasoningHub(kb, build_default_registry(), EngineConfig())
        conclusion = hub.run(
            DiagnosticQuery("Is the ejection fraction normal?", study_refs=refs)
        )
        graph = conclusion.graph
        checks += graph.checks_run
        mutations = len(graph.nodes) + sum(
            1 for e in graph.edges if e.kind in ("supports", "contradicts")
        )
        # every node addition and every standalone edge addition re-checked
        if graph.checks_run < mutations:
            ok = False
        anchored = {n for n, node in graph.nodes.items() if node.kind == "raw_anchor"}
        changed = True
        while changed:
            changed = False
            for edge in graph.edges:
                if edge.kind in CAUSAL_KINDS and edge.src in anchored and edge.dst not in anchored:
                    anchored.add(edge.dst)
                    changed = True
        for node_id, node in graph.nodes.items():
            if node.kind == "evidence" and node_id not in anchored:
                ok = False
    assert report(
        8, f"acyclicity + anchor reachability checked {checks} times across 12 runs", ok
    )


def test_criterion_9_wire_protocol(stub_server):
    from echoagent.tools.registry import ToolDescriptor, ToolRegistry
    from echoagent.tools.schema import FieldSpec
    from echoagent.tools.backends import make_wire_handler

    registry = ToolRegistry()
    registry.register(
        ToolDescriptor(
            name="remote.t", layer="functional",
            input_schema=(FieldSpec("x", "number"),),
            output_schema=(FieldSpec("value", "number"),),
            backend="wire",
        ),
        make_wire_handler("remote.t", EngineConfig(tool_url=stub_server.url, http_retries=2,
                                                   http_backoff_s=0.0)),
    )
    stub_server.script = [
        (500, {}), (500, {}), (200, {"outputs": {"value": 9.0}, "confidence": 1.0}),
        (200, {"outputs": {"bogus": 1}, "confidence": 1.0}),
    ]
    result = registry.invoke("remote.t", {"x": 1.0})
    roundtrip_ok = result.outputs == {"value": 9.0}
    retry_ok = registry.invocation_log[-1].attempts == 3
    contract_ok = False
    try:
        registry.invoke("remote.t", {"x": 2.0})
    except ContractError:
        contract_ok = registry.invocation_log[-1].status == "contract_error"
    ok = roundtrip_ok and retry_ok and contract_ok
    assert report(
        9, "stub server roundtrip, observable 2-retry backoff, contract errors", ok
    )


def test_criterion_10_kb_persistence(tmp_path, kb):
    path = tmp_path / "kb.json"
    kb.save(path)
    loaded = KnowledgeBase.load(path)
    roundtrip_ok = (
        set(loaded.primitives) == set(kb.primitives)
        and loaded.entries == kb.entries
        and loaded.ids == kb.ids
        and np.array_equal(loaded._matrix, kb._matrix)
    )

    rejected = 0
    _, head, data = split_index(path.read_bytes())
    norm_head = json.loads(head)
    rows = index_matrix(norm_head, data)
    rows[0] = 0.0
    rows[0, 0] = 0.5
    bad_norm = seal_index(norm_head, matrix_data(rows))
    dangling_head = json.loads(head)
    dangling_head["entries"][0]["supporting_primitive_ids"] = ["ghost#1"]
    bad_dangling = seal_index(dangling_head, data)
    bad_checksum = b"0" * 64 + b"\n" + head + b"\n" + data

    for i, corrupted in enumerate((bad_norm, bad_dangling, bad_checksum)):
        bad_path = tmp_path / f"bad{i}.json"
        bad_path.write_bytes(corrupted)
        try:
            KnowledgeBase.load(bad_path)
        except IndexLoadError:
            rejected += 1
    ok = roundtrip_ok and rejected == 3
    assert report(
        10, f"roundtrip equality; {rejected}/3 corrupted files rejected", ok
    )
