"""Which module does what, read from the source: ``io`` keeps the file formats, and
``_split`` alone makes processes, asks whether a file is regular and holds the rules
that split a float table across CPUs and a table into blocks of rows.  No module changes
the warning filters, which every thread of the process shares, nor numpy's error state
past the block that needs it.  Only ``io`` opens a file, so every file a command
reads or writes passes its checks, and only ``io._float_rows`` cuts a file into ranges and
reads them, so one function reads every float table.  Only ``data`` draws from ``numpy.random``, whose stream
numpy may change; the rest take splitmix64's.  The package namespace holds what the README's "Library
use" block imports from it, plus the math oracles."""

import ast
from pathlib import Path

import scenefuse
from test_readme import _library_block

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


_PROCESS_CALLS = {"fork", "waitpid", "kill", "_exit"}


def _named(tree: ast.Module, module: str, attrs: set[str]) -> list[str]:
    """Where ``tree`` names ``module.<attr>`` for an attr of ``attrs``, or imports one from it."""
    names = [
        f"{module}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == module and node.attr in attrs
    ]
    return names + [
        f"{module}.{alias.name}" for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == module
        for alias in node.names if alias.name in attrs
    ]


def _process_calls(tree: ast.Module) -> list[str]:
    """Where ``tree`` names ``os.fork``, ``os.waitpid``, ``os.kill`` or ``os._exit``."""
    return _named(tree, "os", _PROCESS_CALLS)


_STAT_CALLS = {"os.stat", "os.fstat", "stat.S_ISREG"}


def _stat_calls(tree: ast.Module) -> list[str]:
    """Where ``tree`` names ``os.stat``, ``os.fstat`` or ``stat.S_ISREG``."""
    names = [
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    ]
    names += [
        f"{node.module}.{alias.name}" for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
    ]
    return [name for name in names if name in _STAT_CALLS]


def test_io_makes_no_process():
    tree = _tree("io.py")
    assert _process_calls(tree) == []
    assert {"tempfile", "threading", "signal"}.isdisjoint(_imported(tree))


def test_no_module_but_split_makes_a_process():
    calls = {path.name: _process_calls(_tree(path.name)) for path in sorted(SRC.glob("*.py"))}
    assert calls.pop("_split.py")  # the check sees the calls that are there
    assert calls == dict.fromkeys(calls, [])


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


def _block_rules(tree: ast.Module) -> list[str]:
    """Where ``tree`` binds a ``*BLOCK*`` name, or divides a literal or such a name by a width."""

    def names(node) -> set[str]:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
            n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
        }

    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [f"{name} = ..." for t in targets for name in names(t) if "BLOCK" in name]
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
            left = names(node.left)
            if not left or any("BLOCK" in name for name in left):
                found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return found


def test_the_block_of_rows_is_sized_in_one_place():
    rules = {path.name: _block_rules(_tree(path.name)) for path in sorted(SRC.glob("*.py"))}
    split_rules = [rule.partition(" (line")[0] for rule in rules.pop("_split.py")]
    assert split_rules == ["BLOCK = ...", "BLOCK // width"]  # the check sees the one rule
    assert rules == dict.fromkeys(rules, [])


def test_no_module_but_split_asks_whether_a_file_is_regular():
    calls = {path.name: _stat_calls(_tree(path.name)) for path in sorted(SRC.glob("*.py"))}
    assert calls.pop("_split.py")  # the check sees the calls that are there
    assert calls == dict.fromkeys(calls, [])


# each changes the warning filters of the whole process, every thread's
_FILTER_CALLS = {"catch_warnings", "simplefilter", "filterwarnings"}


def test_no_module_changes_the_warning_filters():
    calls = {
        path.name: _named(_tree(path.name), "warnings", _FILTER_CALLS)
        for path in sorted(SRC.glob("*.py"))
    }
    assert calls == dict.fromkeys(calls, [])


# each changes numpy's error state for the rest of the thread's life; np.errstate restores it
_ERROR_STATE_CALLS = {"seterr", "seterrcall"}


def test_no_module_changes_numpy_error_state_for_good():
    calls = {
        path.name: [name for module in ("np", "numpy")
                    for name in _named(_tree(path.name), module, _ERROR_STATE_CALLS)]
        for path in sorted(SRC.glob("*.py"))
    }
    assert calls == dict.fromkeys(calls, [])


def _numpy_random(tree: ast.Module) -> list[str]:
    """Where ``tree`` names ``np.random`` or ``numpy.random``, or imports it or from it."""
    names = _named(tree, "np", {"random"}) + _named(tree, "numpy", {"random"})
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.random"):
            names.append(node.module)
    return names


def test_no_module_but_data_names_numpy_random():
    names = {path.name: _numpy_random(_tree(path.name)) for path in sorted(SRC.glob("*.py"))}
    assert names.pop("data.py")  # the check sees the names that are there
    assert names == dict.fromkeys(names, [])


# a Path's methods that open a file; the builtin open is named alone
_FILE_METHODS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def _file_opens(tree: ast.Module) -> list[str]:
    """Where ``tree`` calls the builtin ``open`` or a method of ``_FILE_METHODS``."""
    return [
        f"{ast.unparse(node.func)} (line {node.lineno})" for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "open"
            or isinstance(node.func, ast.Attribute) and node.func.attr in _FILE_METHODS
        )
    ]


def test_no_module_but_io_opens_a_file():
    # _split's tempfile.TemporaryFile makes a child's temp file: it opens no named file
    opens = {path.name: _file_opens(_tree(path.name)) for path in sorted(SRC.glob("*.py"))}
    assert opens.pop("io.py")  # the check sees the calls that are there
    assert opens == dict.fromkeys(opens, [])


def _split_readers(tree: ast.Module) -> list[str]:
    """The top-level statements of ``tree`` (a function or class by its name) that name
    ``_split.Span`` or ``_split.line_ends``."""
    return [
        getattr(node, "name", f"line {node.lineno}") for node in tree.body
        if _named(node, "_split", {"Span", "line_ends"})
    ]


def test_one_function_reads_every_float_table():
    readers = {path.name: _split_readers(_tree(path.name)) for path in sorted(SRC.glob("*.py"))}
    assert readers.pop("io.py") == ["_float_rows"]
    assert readers == dict.fromkeys(readers, [])


_ORACLES = {"circular_convolve_naive", "outer_sketch_oracle", "loss_and_grad"}


def test_the_package_exports_the_readme_names_and_the_oracles():
    readme = [
        alias.name for node in ast.walk(ast.parse(_library_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "scenefuse" for alias in node.names
    ]
    assert sorted(scenefuse.__all__) == sorted({*readme, *_ORACLES})
    assert all(callable(getattr(scenefuse, name)) for name in scenefuse.__all__)
