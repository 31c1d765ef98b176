"""The README's "Library use" block runs as written, so a renamed or removed public name fails here."""

import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_library_use_block_runs(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "tests" / "fixtures", tmp_path / "tests" / "fixtures")
    monkeypatch.chdir(tmp_path)  # the block names the fixtures and writes its files relative to it
    exec(compile(_library_block(), "README.md", "exec"), {"__name__": "readme"})
    assert (tmp_path / "fused.txt").is_file() and (tmp_path / "model.txt").is_file()
