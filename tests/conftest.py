import importlib.util
import os
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def perfbench(monkeypatch):
    """``perfbench(name)``: ``perfbench/<name>.py`` as a module, loaded from the file and never
    written, under a name of its own for the test."""

    def load(name: str):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up here
        spec.loader.exec_module(module)
        return module

    return load


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process it made unreaped, whichever path forked it."""
    yield
    try:
        reaped = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process was left unreaped (waitpid gave {reaped})")
