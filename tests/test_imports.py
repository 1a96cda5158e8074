"""Each module imports only what it uses: no package re-exports a heavy
dependency into modules that do not need it. Every case runs in a fresh
interpreter, since this process has already imported everything."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
