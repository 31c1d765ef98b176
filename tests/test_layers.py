"""Which module does what, read from the source: ``io`` keeps the file formats, and
``_split`` alone makes processes and holds the rule that splits a float table."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scenefuse"


def _tree(name: str) -> ast.Module:
    path = SRC / name
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _imported(tree: ast.Module) -> set[str]:
    """The modules ``tree`` imports, a relative import as its dots and name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def test_io_makes_no_process():
    tree = _tree("io.py")
    calls = [
        f"os.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "os" and node.attr in {"fork", "waitpid", "kill", "_exit"}
    ]
    assert calls == []
    assert {"tempfile", "threading", "signal"}.isdisjoint(_imported(tree))


def test_split_imports_nothing_from_the_package():
    imported = _imported(_tree("_split.py"))
    assert [name for name in imported if name.startswith((".", "scenefuse"))] == []


def test_parallel_min_is_compared_in_one_place():
    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
            n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
        }

    compares = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare) and names(node) & {"PARALLEL_MIN", "_PARALLEL_MIN"}
    ]
    assert len(compares) == 1, compares
