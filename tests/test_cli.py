import dataclasses
import hashlib
import json
import math
import os
import shutil
import threading
from pathlib import Path

import pytest

from echoagent.cli import main
from echoagent.config import EngineConfig
from echoagent.errors import ConfigError


@pytest.fixture(scope="module")
def saved_kb(tmp_path_factory, kb):
    path = tmp_path_factory.mktemp("cli_kb") / "kb.json"
    kb.save(path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_kb_prints_all_fourteen_anatomy_counts(capsys, tmp_path, corpus_dir):
    out_path = tmp_path / "kb.json"
    code, out, _ = run_cli(capsys, "build-kb", str(corpus_dir), str(out_path))
    assert code == 0
    assert out_path.exists()
    lines = [line for line in out.splitlines() if ": " in line and "primitives" in line]
    assert len(lines) == 14
    assert any(line.startswith("left ventricle: ") for line in lines)


def test_build_kb_prints_each_entrys_rules_and_the_sentences_without_one(
    capsys, tmp_path, corpus_dir
):
    from echoagent.kb.criteria import criteria_sentences
    from echoagent.kb.index import KnowledgeBase

    out_path = tmp_path / "kb.json"
    code, out, _ = run_cli(capsys, "build-kb", str(corpus_dir), str(out_path))
    assert code == 0
    entries = KnowledgeBase.load(out_path).entries
    without = [name for name, entry in entries.items() if not entry.rules]
    assert sorted(without) == [
        "interatrial septum", "interventricular septum", "mitral valve", "pulmonic valve",
    ]
    lines = out.splitlines()
    for name in without:
        assert f"rules of {name}: none" in lines
    assert "rules of left ventricle:" in lines
    assert "  ef_percent >= 40 and < 50 -> MildlyReduced" in lines
    for name, entry in entries.items():
        for rule in entry.rules:
            assert f"  {rule.describe()}" in lines
        parsed = {rule.source_text for rule in entry.rules}
        for sentence in criteria_sentences(entry.section_items("diagnostic_criteria")):
            if sentence not in parsed:
                assert f"  no rule: {sentence}" in lines
    assert ("  no rule: Interventricular septal thickness above 15 mm indicates "
            "significant hypertrophy.") in lines


def test_build_kb_empty_dir_warns_and_exits_zero(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run_cli(capsys, "build-kb", str(empty), str(tmp_path / "kb.json"))
    assert code == 0
    assert "no documents" in err


def test_build_kb_unwritable_output_fails_nonzero(capsys, corpus_dir, tmp_path):
    code, _, err = run_cli(
        capsys, "build-kb", str(corpus_dir), str(tmp_path / "missing_dir" / "kb.json")
    )
    assert code == 1


def test_query_kb_json_roundtrips_and_is_deterministic(capsys, saved_kb):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "query-kb", "ejection fraction grading", "--kb", str(saved_kb),
            "-k", "3", "--json",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert len(payload["hits"]) == 3


def test_run_study_reports_grade_and_high_posterior(capsys, saved_kb, ef_dataset, tmp_path):
    study = ef_dataset / "studies" / "study-11"
    code, out, _ = run_cli(
        capsys, "run-study", str(study), "Is the ejection fraction normal?",
        "--kb", str(saved_kb), "--trace", str(tmp_path / "t.jsonl"), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] == "ConsiderablyReduced"
    assert max(payload["posterior"].values()) >= 0.9
    assert (tmp_path / "t.jsonl").exists()


def test_run_study_options_restrict_answers(capsys, saved_kb, qa_dataset, tmp_path):
    study = qa_dataset / "studies" / "qa-02"
    code, out, _ = run_cli(
        capsys, "run-study", str(study), "Is the pericardium normal or thickened?",
        "--kb", str(saved_kb),
        "--options", "normal pericardium", "pericardial thickening",
        "--trace", str(tmp_path / "t.jsonl"), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] in ("normal pericardium", "pericardial thickening")
    assert payload["answer"] == "pericardial thickening"


def test_run_study_missing_directory_exits_one(capsys, saved_kb, tmp_path):
    code, _, err = run_cli(
        capsys, "run-study", str(tmp_path / "nope"), "anything?", "--kb", str(saved_kb)
    )
    assert code == 1


def test_unresolvable_query_exits_two_with_nearest(capsys, saved_kb, ef_dataset, tmp_path):
    config = tmp_path / "strict.json"
    config.write_text(json.dumps({"s_min": 0.999}))
    study = ef_dataset / "studies" / "study-01"
    code, _, err = run_cli(
        capsys, "--config", str(config),
        "run-study", str(study), "zxqw vbnm plorp", "--kb", str(saved_kb),
    )
    assert code == 2
    assert "nearest" in err


def test_unresolvable_records_name_their_nearest_anatomies(capsys, saved_kb, ef_dataset,
                                                          tmp_path):
    config = tmp_path / "strict.json"
    config.write_text(json.dumps({"s_min": 1.0}))
    report = tmp_path / "report.json"
    code, _, err = run_cli(
        capsys, "--config", str(config),
        "evaluate", str(ef_dataset), "--kb", str(saved_kb), "--report", str(report),
    )
    assert code == 1
    records = json.loads(report.read_text())["records"]
    assert records and all("(nearest anatomies: " in r["error"] for r in records)
    assert "Traceback" not in err


def test_unknown_config_key_exits_three(capsys, tmp_path, saved_kb, ef_dataset):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"not_a_key": 1}))
    code, _, err = run_cli(
        capsys, "--config", str(config), "tools",
    )
    assert code == 3
    assert "unknown config keys" in err


def test_removed_r_max_key_exits_three(capsys, tmp_path):
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"r_max": 3}))
    code, _, err = run_cli(capsys, "--config", str(config), "tools")
    assert code == 3
    assert "r_max" in err


FLOAT_KEYS = [f.name for f in dataclasses.fields(EngineConfig) if f.type == "float"]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                         ids=["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_config_exits_three(capsys, tmp_path, saved_kb, ef_dataset,
                                             key, value):
    with pytest.raises(ConfigError, match=key):
        EngineConfig.from_dict({key: value})
    config = tmp_path / "nonfinite.json"
    config.write_text(json.dumps({key: value}))  # json writes Infinity / -Infinity / NaN
    study = ef_dataset / "studies" / "study-11"
    code, _, err = run_cli(
        capsys, "--config", str(config),
        "run-study", str(study), "Is the ejection fraction normal?", "--kb", str(saved_kb),
        "--trace", str(tmp_path / "t.jsonl"),
    )
    assert code == 3
    assert f"{key} must be finite" in err


def test_evaluate_writes_report_and_prints_accuracy(capsys, saved_kb, ef_dataset, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "evaluate", str(ef_dataset), "--kb", str(saved_kb),
        "--report", str(report_path),
    )
    assert code == 0
    assert report_path.exists()
    payload = json.loads(report_path.read_text())
    assert payload["overall_acc"] == 100.0
    assert "overall accuracy: 100.00%" in out


def test_evaluate_honours_taxonomy_path(capsys, saved_kb, ef_dataset, tmp_path):
    # without the four-chamber view no biplane volume, and so no EF, is possible
    taxonomy = tmp_path / "views.txt"
    taxonomy.write_text("apical-2-chamber\nparasternal-long-axis\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"taxonomy_path": str(taxonomy)}))
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "--config", str(config), "evaluate", str(ef_dataset),
        "--kb", str(saved_kb), "--report", str(report_path),
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["records"]
    assert all(r["predicted_ef"] is None for r in payload["records"])
    assert payload["overall_acc"] < 100.0


def test_evaluate_bad_layout_exits_nonzero(capsys, saved_kb, tmp_path):
    root = tmp_path / "ds" / "studies" / "x"
    root.mkdir(parents=True)
    (root / "record.json").write_text("{not json")
    code, _, err = run_cli(capsys, "evaluate", str(tmp_path / "ds"), "--kb", str(saved_kb))
    assert code == 1


def test_gen_fixtures_corpus_dataset_and_masks(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen-fixtures", "corpus", str(tmp_path / "c"))
    assert code == 0 and (tmp_path / "c" / "lv-grading.txt").exists()

    code, out, _ = run_cli(
        capsys, "gen-fixtures", "dataset", str(tmp_path / "d"), "--include-qa"
    )
    assert code == 0
    assert "study-12" in out and "qa-04" in out

    code, out, _ = run_cli(
        capsys, "gen-fixtures", "masks", str(tmp_path / "m"),
        "--kind", "spheroid", "--length-mm", "80", "--radius-mm", "25",
        "--spacing", "0.5", "--size", "256",
    )
    assert code == 0
    meta = json.loads((tmp_path / "m" / "meta.json").read_text())
    assert meta["analytic_volume_ml"] == pytest.approx(104.72, abs=0.01)
    assert (tmp_path / "m" / "a2c.pgm").exists()


def test_gen_fixtures_same_seed_is_reproducible(capsys, tmp_path):
    from echoagent.evalharness.benchmark import fixture_digest

    for name in ("r1", "r2"):
        code, _, _ = run_cli(
            capsys, "gen-fixtures", "dataset", str(tmp_path / name), "--seed", "5"
        )
        assert code == 0
    assert fixture_digest(tmp_path / "r1") == fixture_digest(tmp_path / "r2")


FIXTURE_DIGEST = "c60fd10f03680003031dc802e1d42cfde907e0187a1cae0ee20096c7aed0e819"
DEFAULT_MASK_SHA256 = "f61df51d6dbed8f98e333de4b7f6426aea2447af41aa97eccd084ba43ee5b1f5"


def test_gen_fixtures_bytes_are_pinned(capsys, tmp_path):
    """The seed-0 dataset with the multiple-choice studies, and the default
    spheroid masks, render to these exact bytes.

    Moving the shape renderer must not move a pixel. Scoring EF against
    analytic geometry (ROADMAP.md, "Score the pipeline against geometry")
    changes the dataset by design; that change must state the new digest
    here.
    """
    from echoagent.evalharness.benchmark import fixture_digest

    code, _, _ = run_cli(capsys, "gen-fixtures", "dataset", str(tmp_path / "d"), "--include-qa")
    assert code == 0
    assert fixture_digest(tmp_path / "d") == FIXTURE_DIGEST
    code, _, _ = run_cli(capsys, "gen-fixtures", "masks", str(tmp_path / "m"))
    assert code == 0
    for view in ("a2c", "a4c"):
        data = (tmp_path / "m" / f"{view}.pgm").read_bytes()
        assert hashlib.sha256(data).hexdigest() == DEFAULT_MASK_SHA256


# the first line of the fixture corpus's kb.json: the SHA-256 of the rest
FIXTURE_INDEX_DIGEST = "9607ba1deb374724c1059f86f43fa4703c31009c3bf1303324bb362bdcb8ea80"


def test_build_kb_index_bytes_are_pinned(capsys, tmp_path):
    """The fixture corpus builds to these exact index bytes.

    Tagging, chunking, embedding and saving must not move a byte of the
    saved index; a change that moves one by design must state the new
    digest here.
    """
    assert run_cli(capsys, "gen-fixtures", "corpus", str(tmp_path / "c"))[0] == 0
    assert run_cli(capsys, "build-kb", str(tmp_path / "c"), str(tmp_path / "kb.json"))[0] == 0
    raw = (tmp_path / "kb.json").read_bytes()
    digest, rest = raw.split(b"\n", 1)
    assert digest.decode("ascii") == FIXTURE_INDEX_DIGEST
    assert hashlib.sha256(rest).hexdigest() == FIXTURE_INDEX_DIGEST


# SHA-256 of the fixture evaluation's report and traces, run from a fresh
# directory with relative paths (study paths enter the plan digest)
FIXTURE_REPORT_SHA256 = "67862d86f7260b99246eeeb096c15b89109d64ae2d2ac41c7598d431f4239538"
FIXTURE_TRACE_SHA256 = {
    "qa-01": "aeef710cfe41a04e5e637fd7b5bcb8442a0767d74c5eb7fc9e551943343775ab",
    "qa-02": "f3832f03d8729aac77e5d895079beb2afb39499cba34782e075c379c6fd380e8",
    "qa-03": "e4222ef76927eea237e20de1a316221495af1ddc00d39059d3644e017bdeefe2",
    "qa-04": "c75cea885fae8f87adc236aba3dbf6e1cc3e8472c67decf675201e80fae7e64d",
    "study-01": "f24eb532af0e04d9afd24e7b0de537d0f4d9c8bfc4848a1e1a5b2f0e44e04f6d",
    "study-02": "111acd22627c9009eb5e6ecd1925e3559a26c35612e3f03eac8e169b7dbda873",
    "study-03": "93bbe0f9216fa3151d3edf1d33569912688b63847a9b44c92e493b83bfd99f37",
    "study-04": "7c8c619b6b8253eff4edd85dae9960100ef56b7bbe0e9dd02b22bba595854e6e",
    "study-05": "ba08cd874610ee8b67d20efdb98b30e894fc7f3fb377b80560f48180d219c0b7",
    "study-06": "09cc771691660ee54dc5dc627b228ed2a7a6b52d784dc136c489e1335bad44df",
    "study-07": "353578d2463360c98d6194d4d7dcf54b485105303440a7946d5249ca9826e6f6",
    "study-08": "954d81f06b555f188547861941b74862fabc1d448576ae1507cbf752a8457bc9",
    "study-09": "b59db9134812b98055b15929a4cb1a011be7de51b18ec93dfe527a4270975f3b",
    "study-10": "a6eef3f520a487516eb9cb55b32a8d73f0bff973fc3466b8410ae838f6b3c485",
    "study-11": "b5e99450a7e4e51576e8c19b881107ca4692ab2e081afd552d36b786ff87dd59",
    "study-12": "3b52b512b89eb7166081f101bff31e7ba49e77816ba70b9908d7f36c04365999",
}
# study-11's trace with its a4c masks removed: both a4c segmentations fail
# and each spawns a sub-goal on the a2c view
SUBGOAL_TRACE_SHA256 = "8ba3498ea102ca1fd98c32b26f6fdbcbc89e002700e789b2e03cd5781bde149b"


def _trace_digests(traces: Path) -> dict[str, str]:
    return {path.name.removesuffix(".trace.jsonl"): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in traces.iterdir()}


def test_fixture_evaluation_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    """The fixture evaluation writes these exact report and trace bytes, and
    so does its sub-goal path: evaluated again with study-11's a4c masks
    removed, only study-11's trace changes.

    Planning, tool dispatch, graph updates and tracing must not move a byte;
    a change that moves one by design must state the new digests here.
    """
    monkeypatch.chdir(tmp_path)
    for argv in (["gen-fixtures", "corpus", "corpus"],
                 ["gen-fixtures", "dataset", "dataset", "--include-qa"],
                 ["build-kb", "corpus", "kb.json"],
                 ["evaluate", "dataset", "--kb", "kb.json", "--report", "report.json",
                  "--traces", "traces"]):
        assert run_cli(capsys, *argv)[0] == 0
    report = Path("report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == FIXTURE_REPORT_SHA256
    assert _trace_digests(Path("traces")) == FIXTURE_TRACE_SHA256

    shutil.rmtree("dataset/studies/study-11/a4c/masks")
    assert run_cli(capsys, "evaluate", "dataset", "--kb", "kb.json",
                   "--report", "subgoal.json", "--traces", "subgoal")[0] == 0
    trace = Path("subgoal/study-11.trace.jsonl").read_text()
    assert trace.count('"event_kind":"subgoal_step"') == 2
    assert _trace_digests(Path("subgoal")) == {**FIXTURE_TRACE_SHA256,
                                               "study-11": SUBGOAL_TRACE_SHA256}


@pytest.mark.parametrize("argv", [
    ["--size", "0"],
    ["--size", "-1"],
    ["--spacing", "0"],
    ["--spacing", "nan"],
    ["--radius-mm", "0"],
    ["--length-mm", "-5"],
    ["--length-mm", "inf"],
    ["--kind", "cylinder", "--radius-mm", "-1"],
    ["--size", "8"],  # the 80 mm spheroid overruns a 3.5 mm canvas
    ["--kind", "cylinder", "--size", "100"],  # 160 px tall on a 100 px canvas
    ["--radius-mm", "0.01"],  # no pixel centre lies inside
], ids=" ".join)
def test_gen_fixtures_masks_refuses_a_shape_it_cannot_render(capsys, tmp_path, argv):
    out = tmp_path / "m"
    code, _, err = run_cli(capsys, "gen-fixtures", "masks", str(out), *argv)
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_tools_listing_covers_all_three_layers(capsys):
    code, out, _ = run_cli(capsys, "tools", "--json")
    assert code == 0
    tools = json.loads(out)
    layers = {t["layer"] for t in tools}
    assert layers == {"perceptual", "operational", "functional"}
    names = {t["name"] for t in tools}
    assert "echo.view_classifier" in names and "quant.biplane_volume" in names
    assert all(set(t) == {"name", "layer", "backend", "outputs"} for t in tools)


def test_tools_listing_prints_name_layer_and_backend(capsys):
    code, out, _ = run_cli(capsys, "tools", "--layer", "functional")
    assert code == 0
    assert out.splitlines()[0].split() == ["quant.biplane_volume", "functional", "native"]


def test_tools_layer_filter(capsys):
    code, out, _ = run_cli(capsys, "tools", "--layer", "perceptual", "--json")
    assert code == 0
    tools = json.loads(out)
    assert len(tools) == 1 and tools[0]["name"] == "echo.view_classifier"


def test_run_study_default_trace_goes_to_working_dir_not_dataset(
    capsys, saved_kb, ef_dataset, tmp_path, monkeypatch
):
    from echoagent.evalharness.benchmark import fixture_digest

    before = fixture_digest(ef_dataset)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "run-study", str(ef_dataset / "studies" / "study-11"),
        "Is the ejection fraction normal?", "--kb", str(saved_kb), "--json",
    )
    assert code == 0
    assert json.loads(out)["trace_path"] == "trace.jsonl"
    assert (tmp_path / "trace.jsonl").stat().st_size > 0
    assert fixture_digest(ef_dataset) == before


@pytest.mark.parametrize("question, options", [
    ("Is the pericardium normal or thickened?", ["a", "a"]),
    ("   ", []),
])
def test_malformed_query_exits_three_without_a_traceback(
    capsys, saved_kb, qa_dataset, tmp_path, question, options
):
    study = qa_dataset / "studies" / "qa-02"
    argv = ["run-study", str(study), question, "--kb", str(saved_kb),
            "--trace", str(tmp_path / "t.jsonl")]
    if options:
        argv += ["--options", *options]
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.startswith("error: ")
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("command", ["query-kb", "run-study"])
def test_a_mismatched_encoder_exits_one_naming_both_encoders(
    capsys, saved_kb, ef_dataset, tmp_path, command
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"embedding_dim": 128}))
    argv = {
        "query-kb": ["query-kb", "ejection fraction", "--kb", str(saved_kb)],
        "run-study": ["run-study", str(ef_dataset / "studies" / "study-01"),
                      "Is the ejection fraction normal?", "--kb", str(saved_kb),
                      "--trace", str(tmp_path / "t.jsonl")],
    }[command]
    code, _, err = run_cli(capsys, "--config", str(config), *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert "'hashed-bow-256'" in err and "'hashed-bow-128'" in err
    assert not (tmp_path / "t.jsonl").exists()


def test_run_study_into_a_directory_exits_one_with_one_error_line(
    capsys, saved_kb, ef_dataset, tmp_path
):
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    code, _, err = run_cli(
        capsys, "run-study", str(ef_dataset / "studies" / "study-11"),
        "Is the ejection fraction normal?", "--kb", str(saved_kb),
        "--trace", str(trace_dir),
    )
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_run_study_twice_into_one_trace_file_gives_the_same_bytes(
    capsys, saved_kb, ef_dataset, tmp_path
):
    trace = tmp_path / "t.jsonl"
    argv = ["run-study", str(ef_dataset / "studies" / "study-11"),
            "Is the ejection fraction normal?", "--kb", str(saved_kb),
            "--trace", str(trace)]
    assert run_cli(capsys, *argv)[0] == 0
    first = trace.read_bytes()
    trace.write_bytes(first + first)
    assert run_cli(capsys, *argv)[0] == 0
    assert trace.read_bytes() == first


def _through_a_fifo(path: Path, work) -> tuple[object, bytes]:
    """Run ``work`` while a thread reads everything written to a new FIFO at
    ``path``; returns what ``work`` returned and the bytes read."""
    os.mkfifo(path)
    got = []
    reader = threading.Thread(target=lambda: got.append(path.read_bytes()), daemon=True)
    reader.start()
    result = work()
    reader.join(timeout=60)
    return result, got[0]


@pytest.mark.parametrize("sink", ["dev_null", "fifo"])
def test_build_kb_writes_an_index_into_a_file_that_is_not_regular(
    capsys, corpus_dir, tmp_path, sink
):
    assert run_cli(capsys, "build-kb", str(corpus_dir), str(tmp_path / "kb.json"))[0] == 0
    argv = ["build-kb", str(corpus_dir)]
    if sink == "dev_null":
        assert run_cli(capsys, *argv, os.devnull)[0] == 0
        return
    fifo = tmp_path / "kb.fifo"
    (code, _, _), written = _through_a_fifo(fifo, lambda: run_cli(capsys, *argv, str(fifo)))
    assert code == 0
    assert written == (tmp_path / "kb.json").read_bytes()


@pytest.mark.parametrize("sink", ["dev_null", "fifo"])
def test_run_study_writes_a_trace_into_a_file_that_is_not_regular(
    capsys, saved_kb, ef_dataset, tmp_path, sink
):
    argv = ["run-study", str(ef_dataset / "studies" / "study-11"),
            "Is the ejection fraction normal?", "--kb", str(saved_kb), "--trace"]
    assert run_cli(capsys, *argv, str(tmp_path / "t.jsonl"))[0] == 0
    if sink == "dev_null":
        code, out, _ = run_cli(capsys, *argv, os.devnull)
        assert (code, out.splitlines()[-1]) == (0, f"trace: {os.devnull}")
        return
    fifo = tmp_path / "t.fifo"
    (code, _, _), written = _through_a_fifo(fifo, lambda: run_cli(capsys, *argv, str(fifo)))
    assert code == 0
    assert written == (tmp_path / "t.jsonl").read_bytes()


def _config_argv(raw: bytes):
    def argv(tmp_path, saved_kb, ef_dataset):
        path = tmp_path / "config.json"
        path.write_bytes(raw)
        return ["--config", str(path), "tools"]
    return argv


def _record_argv(change):
    """evaluate over a one-record copy of the dataset whose record.json is
    replaced by change(parsed record), written as JSON unless it is bytes."""
    def argv(tmp_path, saved_kb, ef_dataset):
        study = tmp_path / "ds" / "studies" / "study-01"
        shutil.copytree(ef_dataset / "studies" / "study-01", study)
        record = study / "record.json"
        changed = change(json.loads(record.read_text()))
        record.write_bytes(changed if isinstance(changed, bytes) else json.dumps(changed).encode())
        return ["evaluate", str(tmp_path / "ds"), "--kb", str(saved_kb)]
    return argv


def _tags_argv(tmp_path, saved_kb, ef_dataset):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "notes.txt").write_text("The pericardium is thin.\n")
    (corpus / "notes.tags").write_bytes(b"pericardium\n\xff\n")
    return ["build-kb", str(corpus), str(tmp_path / "kb.json")]


def _same_stem_argv(tmp_path, saved_kb, ef_dataset):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("The pericardium is thin.\n")
    (corpus / "a.md").write_text("The aortic root is dilated.\n")
    return ["build-kb", str(corpus), str(tmp_path / "kb.json")]


def _directory_document_argv(tmp_path, saved_kb, ef_dataset):
    corpus = tmp_path / "corpus"
    (corpus / "x.md").mkdir(parents=True)
    (corpus / "a.txt").write_text("The pericardium is thin.\n")
    return ["build-kb", str(corpus), str(tmp_path / "kb.json")]


def _taxonomy_argv(tmp_path, saved_kb, ef_dataset):
    taxonomy = tmp_path / "views.txt"
    taxonomy.write_bytes(b"apical-4-chamber\n\xff\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"taxonomy_path": str(taxonomy)}))
    return ["--config", str(config), "run-study", str(ef_dataset / "studies" / "study-01"),
            "Is the ejection fraction normal?", "--kb", str(saved_kb),
            "--trace", str(tmp_path / "t.jsonl")]


def _options_argv(*options):
    def argv(tmp_path, saved_kb, ef_dataset):
        return ["run-study", str(ef_dataset / "studies" / "study-01"),
                "Is the ejection fraction normal?", "--kb", str(saved_kb),
                "--trace", str(tmp_path / "t.jsonl"), "--options", *options]
    return argv


def _query_argv(k: str):
    def argv(tmp_path, saved_kb, ef_dataset):
        return ["query-kb", "ejection fraction", "--kb", str(saved_kb), "-k", k]
    return argv


# (case, exit code, text the one error line must hold, argv builder)
BROKEN_INPUTS = [
    ("config-k-string", 3, "k must be int", _config_argv(b'{"k": "8"}')),
    ("config-s_min-null", 3, "s_min must be float", _config_argv(b'{"s_min": null}')),
    ("config-d_max-float", 3, "d_max must be int", _config_argv(b'{"d_max": 2.5}')),
    ("config-d_max-bool", 3, "d_max must be int", _config_argv(b'{"d_max": true}')),
    ("config-beta-bool", 3, "beta must be float", _config_argv(b'{"beta": false}')),
    ("config-tool_url-list", 3, "tool_url must be", _config_argv(b'{"tool_url": ["x"]}')),
    ("config-taxonomy_path-number", 3, "taxonomy_path must be",
     _config_argv(b'{"taxonomy_path": 5}')),
    ("config-non-utf8", 3, "config.json", _config_argv(b'{"k": "\xff"}')),
    ("config-missing", 1, "missing.json",
     lambda tmp_path, saved_kb, ef_dataset: ["--config", str(tmp_path / "missing.json"), "tools"]),
    ("record-list", 1, "record.json", _record_argv(lambda raw: [raw])),
    ("record-non-utf8", 1, "record.json", _record_argv(lambda raw: b'{"id": "\xff"}')),
    ("record-truth-list", 1, "record.json",
     _record_argv(lambda raw: {**raw, "truth": ["ef_percent", "grade"]})),
    ("record-studies-list", 1, "record.json",
     _record_argv(lambda raw: {**raw, "studies": ["a2c", "a4c"]})),
    ("record-ef-string", 1, "record.json",
     _record_argv(lambda raw: {**raw, "truth": {"ef_percent": "abc", "grade": "Normal"}})),
    ("record-no-grade", 1, "study-01",
     _record_argv(lambda raw: {**raw, "truth": {"ef_percent": 55.0}})),
    ("record-study-number", 1, "record.json",
     _record_argv(lambda raw: {**raw, "studies": {"a4c": 5}})),
    ("record-options-number", 1, "record.json", _record_argv(lambda raw: {**raw, "options": 5})),
    ("record-options-string", 1, "record.json",
     _record_argv(lambda raw: {**raw, "options": "ab"})),
    ("record-question-number", 1, "record.json",
     _record_argv(lambda raw: {**raw, "question": 5})),
    ("record-ef-nan", 1, "record.json",
     _record_argv(lambda raw: {**raw, "truth": {"ef_percent": float("nan"), "grade": "Normal"}})),
    ("record-ef-infinity", 1, "record.json",
     _record_argv(lambda raw: {**raw, "truth": {"ef_percent": float("inf"), "grade": "Normal"}})),
    ("record-answer-not-an-option", 1, "record study-01: answer_option 'Normla'",
     _record_argv(lambda raw: {**raw, "question": "Is the ejection fraction normal?",
                               "options": ["Normal", "Reduced"],
                               "truth": {"answer_option": "Normla",
                                         "anatomy_group": "left ventricle"}})),
    ("tags-non-utf8", 1, "notes.tags", _tags_argv),
    ("corpus-same-stem", 1, "a.md and a.txt share the stem 'a'", _same_stem_argv),
    ("corpus-directory-document", 1, "x.md", _directory_document_argv),
    ("taxonomy-non-utf8", 3, "views.txt", _taxonomy_argv),
    ("run-study-empty-option", 3, "blank option", _options_argv("", "Normal")),
    ("run-study-whitespace-option", 3, "blank option", _options_argv(" \t", "Normal")),
    ("query-kb-k-0", 3, "-k must be >= 1", _query_argv("0")),
    ("query-kb-k-negative", 3, "-k must be >= 1", _query_argv("-3")),
]


@pytest.mark.parametrize("code, needle, make_argv", [case[1:] for case in BROKEN_INPUTS],
                         ids=[case[0] for case in BROKEN_INPUTS])
def test_broken_input_ends_in_its_exit_code_with_one_error_line(
    capsys, saved_kb, ef_dataset, tmp_path, code, needle, make_argv
):
    result, _, err = run_cli(capsys, *make_argv(tmp_path, saved_kb, ef_dataset))
    assert result == code, err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert needle in err
    assert "Traceback" not in err
