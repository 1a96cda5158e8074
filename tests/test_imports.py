"""Each module imports only what it uses: no package re-exports a heavy
dependency into modules that do not need it. Every case runs in a fresh
interpreter, since this process has already imported everything."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import build_fixture_kb

import echoagent

SRC = str(Path(echoagent.__file__).resolve().parents[1])


def loaded_after(code: str) -> set[str]:
    """The module names in ``sys.modules`` after running ``code``."""
    script = code + "\nimport sys\nprint('\\n'.join(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (SRC, os.environ.get("PYTHONPATH")))
        )}, check=True,
    )
    return set(done.stdout.splitlines())


def has(modules: set[str], name: str) -> bool:
    return any(m == name or m.startswith(name + ".") for m in modules)


@pytest.mark.parametrize(("module", "absent"), [
    ("echoagent.kb.index", ("scipy", "echoagent.hub.engine")),
    ("echoagent.tools.pgm", ("requests",)),
    ("echoagent.evalharness.dataset", ("scipy.stats",)),
    ("echoagent.evalharness.benchmark", ("scipy.stats",)),
    ("echoagent.quant.volume", ("echoagent.fixtures",)),
])
def test_importing_a_module_loads_only_its_dependencies(module, absent):
    modules = loaded_after(f"import {module}")
    assert module in modules
    for name in absent:
        assert not has(modules, name), f"import {module} loaded {name}"


def test_build_kb_runs_without_scipy(corpus_dir, tmp_path):
    out = tmp_path / "kb.json"
    modules = loaded_after(
        "from echoagent.cli import main\n"
        f"assert main(['build-kb', {str(corpus_dir)!r}, {str(out)!r}]) == 0"
    )
    assert out.exists()
    assert not has(modules, "scipy")


def test_evaluate_runs_without_scipy(corpus_dir, ef_dataset, tmp_path):
    kb, report = tmp_path / "kb.json", tmp_path / "report.json"
    build_fixture_kb(corpus_dir).save(kb)
    modules = loaded_after(
        "from echoagent.cli import main\n"
        f"assert main(['evaluate', {str(ef_dataset)!r}, '--kb', {str(kb)!r}, "
        f"'--report', {str(report)!r}]) == 0"
    )
    # the report's AUROC is computed, so the metric and the volumes behind it
    # ran in that process
    assert json.loads(report.read_text())["auroc"]["45"] == 1.0
    assert "echoagent.quant.geometry" in modules
    assert not has(modules, "scipy")


def test_run_study_runs_without_scipy(corpus_dir, ef_dataset, tmp_path):
    kb, trace = tmp_path / "kb.json", tmp_path / "trace.jsonl"
    build_fixture_kb(corpus_dir).save(kb)
    study = ef_dataset / "studies" / "study-11"
    modules = loaded_after(
        "from echoagent.cli import main\n"
        f"assert main(['run-study', {str(study)!r}, 'Is the ejection fraction normal?', "
        f"'--kb', {str(kb)!r}, '--trace', {str(trace)!r}]) == 0"
    )
    # the volume steps fit the long axes, and the grade settles on one answer
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [e["tool"] for e in events].count("quant.biplane_volume") == 2
    assert max(events[-1]["posterior"]) >= 0.9
    assert not has(modules, "scipy")


def test_tools_listing_runs_without_scipy():
    modules = loaded_after(
        "from echoagent.cli import main\n"
        "assert main(['tools']) == 0"
    )
    assert "echoagent.hub.toolkit" in modules
    assert not has(modules, "scipy")
