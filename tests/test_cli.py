import json

import pytest

from echoagent.cli import main


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


def test_unknown_config_key_exits_three(capsys, tmp_path, saved_kb, ef_dataset):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"not_a_key": 1}))
    code, _, err = run_cli(
        capsys, "--config", str(config), "tools",
    )
    assert code == 3
    assert "unknown config keys" in err


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


def test_tools_listing_covers_all_three_layers(capsys):
    code, out, _ = run_cli(capsys, "tools", "--json")
    assert code == 0
    tools = json.loads(out)
    layers = {t["layer"] for t in tools}
    assert layers == {"perceptual", "operational", "functional"}
    names = {t["name"] for t in tools}
    assert "echo.view_classifier" in names and "quant.biplane_volume" in names


def test_tools_layer_filter(capsys):
    code, out, _ = run_cli(capsys, "tools", "--layer", "perceptual", "--json")
    assert code == 0
    tools = json.loads(out)
    assert len(tools) == 1 and tools[0]["name"] == "echo.view_classifier"
