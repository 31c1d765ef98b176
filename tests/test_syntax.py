"""Every Python file of the project parses as the oldest Python that ``pyproject.toml`` allows.

``ast.parse(..., feature_version=...)`` rejects grammar newer than that version (an
``except*``, a ``type`` statement, PEP 695 generics), so a file that only a newer
interpreter can read fails here even when the suite runs on a newer one.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _oldest_python() -> tuple[int, int]:
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups()
    return int(major), int(minor)


def test_every_source_directory_is_checked():
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {"src", "tests", "perfbench"}


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_every_source_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_oldest_python())
