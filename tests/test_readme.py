"""The README's examples run as written: its "Library use" block, so a renamed or removed
public name fails here, and its console walkthroughs on the fixture corpus, whose printed
output must match what the README shows."""

import re
import shlex
import shutil
from pathlib import Path

from scenefuse.cli import main

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


def _fixture_sessions() -> list[tuple[list[str], list[str]]]:
    """Each ``$ scenefuse ...`` command of the README's console blocks that run on the
    fixture corpus, in README order, with the output lines shown under it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sessions = []
    for block in re.findall(r"^```\w*\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE):
        if "tests/fixtures" not in block:
            continue
        for command in re.split(r"^\$ ", block, flags=re.MULTILINE)[1:]:
            lines = command.splitlines()
            while lines[0].endswith("\\"):
                lines[:2] = [lines[0][:-1] + lines[1]]
            sessions.append((shlex.split(lines[0]), lines[1:]))
    return sessions


def _shown(line: str) -> re.Pattern:
    """``line`` as a pattern in which each ``...`` stands for any run of list values, or
    for the last digits of a value that depend on the BLAS kernel."""
    return re.compile("[^\\]]*".join(map(re.escape, line.split("..."))))


def test_the_fixture_walkthroughs_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    sessions = _fixture_sessions()
    assert [argv[1] for argv, _ in sessions] == ["featurize-text", "fuse", "train-eval", "vqa"]
    shutil.copytree(ROOT / "tests" / "fixtures", tmp_path / "tests" / "fixtures")
    monkeypatch.chdir(tmp_path)
    for argv, shown in sessions:
        assert argv[0] == "scenefuse" and main(argv[1:]) == 0, argv
        printed = capsys.readouterr().out.splitlines()
        if shown:  # a command shown without output may still print a progress line
            assert len(printed) == len(shown), argv
            for line, expected in zip(printed, shown):
                assert _shown(expected).fullmatch(line), (argv[1], line)
