import json
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import framekit as fk
from helpers import fresh_env


def make_mb3():
    """Three equiangular unit-ish vectors in the plane; the standard
    example of a tight Parseval frame with excess 1."""
    k = np.arange(3)
    rows = np.sqrt(2.0 / 3.0) * np.column_stack(
        [np.cos(2 * np.pi * k / 3), np.sin(2 * np.pi * k / 3)])
    return fk.Frame(dim=2, field="real", vectors=rows)


@pytest.fixture
def tol():
    return fk.ToleranceConfig()


@pytest.fixture
def mb3():
    return make_mb3()


@pytest.fixture
def basis2():
    return fk.Frame(dim=2, field="real", vectors=np.eye(2))


@pytest.fixture
def e1e2e1():
    return fk.Frame(dim=2, field="real", vectors=[[1, 0], [0, 1], [1, 0]])


# Run by one fresh interpreter: the names in sys.modules after `import
# framekit`, after each command and after importing every given module.
_START_UP = """\
import io, sys
import framekit
steps = [["import", sorted(sys.modules), 0]]
for argv in {commands!r}:
    sys.stdout = io.StringIO()
    code = framekit.run_command(argv)
    sys.stdout = sys.__stdout__
    steps.append([argv[0], sorted(sys.modules), code])
for name in {modules!r}:
    __import__(name)
steps.append(["modules", sorted(sys.modules), 0])
import json
print(json.dumps(steps))
"""


@pytest.fixture(scope="session")
def loaded_after(tmp_path_factory):
    """The modules one fresh interpreter holds after each of its steps, by
    step: "import" (`import framekit`), then "analyze", "nu" (--global-min),
    "check", "parseval-dual", "identity" and "gen" through run_command,
    then "modules", an import of every framekit module.  Each set holds
    what the steps before it loaded, so a module missing from it is
    missing from a fresh start of that step alone."""
    tmp = tmp_path_factory.mktemp("start_up")
    frame, p = str(tmp / "f.json"), str(tmp / "p.json")
    fk.write_frame(make_mb3(), frame)
    fk.write_frame(fk.parseval_projection_frame(3, 10, seed=2, field="complex"), p)
    commands = [["analyze", frame], ["nu", p, "--global-min"], ["check", frame, frame],
                ["parseval-dual", frame], ["identity", frame, "--j", "1"],
                ["gen", "--kind", "random", "--dim", "2", "--n", "3",
                 "--out", str(tmp / "g.json")]]
    modules = [f"framekit.{m.name}" for m in pkgutil.iter_modules(fk.__path__)]
    script = _START_UP.format(commands=commands, modules=modules)
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp, env=fresh_env(),
                         capture_output=True, text=True, check=True).stdout
    steps = json.loads(out)
    # a command that fails may stop before it loads what it needs
    assert [(step, code) for step, _, code in steps] == [
        (step, 0) for step in ("import", *(argv[0] for argv in commands), "modules")]
    return {step: set(loaded) for step, loaded, _ in steps}
