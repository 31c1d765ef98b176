import builtins
import dataclasses
import json
import math
import os
import re
import shutil
import signal
import threading
import tracemalloc
import warnings
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scenefuse import _split
from scenefuse import io as scenefuse_io
from scenefuse.classifier import ClassifierModel, init_model
from scenefuse.data import CleaningReport, Manifest, ManifestRow, VqaRecord
from scenefuse.io import (
    RunManifest,
    load_cleaning_report,
    load_embeddings,
    load_features,
    load_manifest,
    load_model,
    load_run_manifest,
    load_transcriptions,
    load_vqa,
    save_model,
    write_cleaning_report,
    write_embeddings,
    write_feature_tables,
    write_features,
    write_manifest,
    write_run_manifest,
    write_transcriptions,
    write_vqa,
)
from scenefuse.text import RowTable, TranscribedWord, TranscriptionRecord

# any value a JSON document can hold, nested a little
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


CLEANING_REPORT = {
    "total_words": 3, "kept_words": 2, "removed_words": 1, "emptied_records": 0,
    "removed_per_image": {"a": 1},
}
RUN_MANIFEST = {
    "tool": "scenefuse", "version": "0.1.0", "command": "fuse", "params": {}, "results": {},
}


def _load_or_name_line(loader, path, lines):
    """Load ``lines``; a rejection must be a ValueError that starts with ``path:2:``."""
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n", encoding="utf-8")
    try:
        return loader(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:2: "), str(exc)
        return None


# a float field: five times in six a finite float's repr, else a short run of float-ish
# characters and words, including those where np.loadtxt and float() disagree
# (U+001F, "1_0", a non-ASCII digit)
FLOAT_FIELDS = st.integers(0, 5).flatmap(
    lambda draw: st.floats(allow_nan=False, allow_infinity=False).map(repr) if draw else st.lists(
        st.sampled_from([*"0123456789.eE+-_ \t\n\x1f", "nan", "inf", "\u0661"]), max_size=6
    ).map("".join)
)

# finite float64 matrices, with the signed zero and both ends of the float range
FINITE_MATRICES = arrays(
    np.float64,
    st.tuples(st.integers(2, 5), st.integers(2, 4)),
    elements=st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]),
)


def _load_or_message(loader, path):
    """``loader(path)``, or the message it raises with ``path`` written as PATH."""
    try:
        return loader(path)
    except ValueError as exc:
        return str(exc).replace(str(path), "PATH")


# per float table: loader, first data line, separator before the values (None: the whole line)
FLOAT_TABLES = {
    "embeddings": (load_embeddings, 1, " "),
    "features": (load_features, 1, "\t"),
    "model": (load_model, 2, None),
}


def _table_text(kind: str, rows: list[list[str]]) -> str:
    """A float table whose header fits ``rows``; the fields themselves may be anything."""
    dim = len(rows[0])
    if kind == "model":
        head = [f"{len(rows)} {dim - 1}", "\t".join(f"c{i}" for i in range(len(rows)))]
        return "\n".join(head + [" ".join(row) for row in rows]) + "\n"
    sep = FLOAT_TABLES[kind][2]
    lines = [f"k{i}{sep}" + " ".join(row) for i, row in enumerate(rows)]
    return "\n".join([f"{len(rows)} {dim}"] + lines) + "\n"


def _loaded_matrix(kind: str, loaded) -> np.ndarray:
    if kind == "model":
        return np.column_stack([loaded.W, loaded.b])
    return loaded.matrix


# the CPU counts that a float table of any size is split over (None: as the program decides)
PARTS = [None, 1, 2, 3, 5]


def _split_into(parts: int | None):
    """Split every float table, whatever its size, into ``parts`` ranges (None: no patch).

    Ranges start past the bytes that the header's read took, so reads are cut to at
    most 16 bytes (less if ``CHUNK`` is already patched lower) to leave a small
    table something to split.
    """
    if parts is None:
        return nullcontext()
    chunk = min(_split.CHUNK, 16)
    return mock.patch.multiple(_split, PARALLEL_MIN=0, cpus=lambda: parts, CHUNK=chunk)


def _spying(target, name: str, calls: list):
    """Patch ``target.name`` to append each call's arguments to ``calls`` before the call."""
    real = getattr(target, name)

    def call(*args):
        calls.append(args)
        return real(*args)

    return mock.patch.object(target, name, call)


def _float_reference(text: str, first: int, sep) -> list[list[float]]:
    """Each data line's values through float(), one line at a time."""
    return [
        [float(v) for v in (line if sep is None else line.partition(sep)[2]).split(" ")]
        for line in text.splitlines()[first:]
    ]


class TestFloatTables:
    @given(
        kind=st.sampled_from(sorted(FLOAT_TABLES)),
        rows=st.integers(2, 3).flatmap(
            lambda dim: st.lists(
                st.lists(FLOAT_FIELDS, min_size=dim, max_size=dim), min_size=2, max_size=4
            )
        ),
        block=st.integers(1, 8),  # values per np.loadtxt call, so rows cross block boundaries
        parts=st.sampled_from(PARTS),
    )
    @settings(max_examples=400, deadline=None)
    def test_any_text_loads_as_float_reads_it_or_names_the_file(
        self, tmp_path_factory, kind, rows, block, parts
    ):
        loader, first, sep = FLOAT_TABLES[kind]
        path = tmp_path_factory.getbasetemp() / f"fuzz-{kind}.txt"
        text = _table_text(kind, rows)
        path.write_text(text, encoding="utf-8")
        try:
            with mock.patch.object(_split, "BLOCK", block), _split_into(parts):
                loaded = loader(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)
            if parts is not None:  # a split load gives the message of the one-range load
                with mock.patch.object(_split, "BLOCK", block), \
                        pytest.raises(ValueError) as whole:
                    loader(path)
                assert str(exc) == str(whole.value)
            if "unparseable float" in str(exc):  # float() itself rejects that line
                lineno = int(str(exc)[len(f"{path}:") :].split(":")[0])
                with pytest.raises(ValueError):
                    _float_reference(text.splitlines()[lineno - 1], 0, sep)
            return
        expected = np.array(_float_reference(text, first, sep))
        assert _loaded_matrix(kind, loaded).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", sorted(FLOAT_TABLES))
    @pytest.mark.parametrize("field", ["1_0", "\u0661", "\u00a02.5", "+.5e1", "1e999", "\x1f1", ""])
    def test_fields_read_exactly_as_float_reads_them(self, tmp_path, kind, field):
        loader, first, sep = FLOAT_TABLES[kind]
        path = tmp_path / "table.txt"
        text = _table_text(kind, [["0.5", "1.5"], ["2.5", field]])
        path.write_text(text, encoding="utf-8")
        try:
            value = float(field)
        except ValueError:
            with pytest.raises(ValueError, match=rf"table\.txt:{first + 2}: unparseable float"):
                loader(path)
            return
        if not np.isfinite(value):
            with pytest.raises(ValueError, match=rf"table\.txt:{first + 2}: non-finite value"):
                loader(path)
            return
        assert _loaded_matrix(kind, loader(path)).tolist() == [[0.5, 1.5], [2.5, value]]

    @pytest.mark.parametrize("kind", sorted(FLOAT_TABLES))
    @pytest.mark.parametrize(
        "last, extra, fault",
        [
            ("3.5", False, None),
            ("1_0", False, None),  # np.loadtxt rejects it, float() reads it
            ("1e", False, "unparseable float"),
            ("3.5", True, "but 3 data lines|got 3"),
        ],
        ids=["clean", "float-fallback", "bad-row", "header-count"],
    )
    @pytest.mark.parametrize("parts", PARTS)
    def test_a_load_opens_its_file_once(self, tmp_path, kind, last, extra, fault, parts):
        loader = FLOAT_TABLES[kind][0]
        path = tmp_path / "table.txt"
        rows = [["0.5", "1.5"], ["2.5", last]]
        text = _table_text(kind, rows)
        if extra:  # a third row, which the header does not count
            text += _table_text(kind, rows + [["4.5", "5.5"]]).splitlines(keepends=True)[-1]
        path.write_text(text, encoding="utf-8")
        real_open, opened = open, []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        with mock.patch("builtins.open", counting_open), _split_into(parts):
            if fault is None:
                loader(path)
            else:
                with pytest.raises(ValueError, match=fault):
                    loader(path)
        assert opened == [path]

    @pytest.mark.parametrize("kind", sorted(FLOAT_TABLES))
    def test_a_pipe_loads_as_its_file_does(self, tmp_path, kind):
        # a pipe states no size, so its matrix grows (here a row at a time) up to the
        # header's count, and a count no allocation could hold fails as in a file;
        # a pipe is read in one range, without asking how many parts its values make
        loader, asked = FLOAT_TABLES[kind][0], []
        text = _table_text(kind, [["0.5", "1.5"], ["2.5", "3.5"], ["4.5", "5.5"]])
        for count in ("3", "1000000000000"):
            data = text.replace("3 ", f"{count} ", 1)  # the header's count comes first
            file, pipe = tmp_path / f"{count}.txt", tmp_path / f"{count}.pipe"
            file.write_text(data, encoding="utf-8")
            os.mkfifo(pipe)
            writer = threading.Thread(target=pipe.write_text, args=(data, "utf-8"))
            writer.start()
            try:
                with mock.patch.object(_split, "BLOCK", 2), _spying(_split, "parts", asked):
                    through_pipe = _load_or_message(loader, pipe)
            finally:
                writer.join()
            assert asked == []
            from_file = _load_or_message(loader, file)
            assert isinstance(from_file, str) == (count != "3"), from_file
            if isinstance(from_file, str):
                assert through_pipe == from_file
            else:
                assert _loaded_matrix(kind, through_pipe).tobytes() == (
                    _loaded_matrix(kind, from_file).tobytes()
                )

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: write_features(path, RowTable(["a", "b"], [[1.0, 1.0], [1.0, np.inf]])),
            lambda path: write_embeddings(path, RowTable(["a", "b"], [[1.0], [np.nan]])),
            lambda path: save_model(
                path, ClassifierModel(np.array([[1.0], [-np.inf]]), np.zeros(2), ["a", "b"])
            ),
            lambda path: save_model(
                path, ClassifierModel(np.ones((2, 1)), np.array([0.0, np.nan]), ["a", "b"])
            ),
        ],
        ids=["features-non-finite", "embeddings-non-finite", "model-weight-non-finite",
             "model-bias-non-finite"],
    )
    def test_a_bad_last_row_leaves_no_file(self, tmp_path, write):
        path = tmp_path / "table.txt"
        with pytest.raises(ValueError, match="'b' has"):
            write(path)
        assert not path.exists()

    def test_a_bad_row_past_the_first_checked_block_is_named(self, tmp_path):
        # rows are checked _split.BLOCK values at a time: here one row per block
        path = tmp_path / "table.txt"
        with mock.patch.object(_split, "BLOCK", 1), \
                pytest.raises(ValueError, match="feature for 'c' has"):
            write_features(path, RowTable(["a", "b", "c"], [[1.0, 2.0], [3.0, 4.0], [5.0, np.nan]]))
        assert not path.exists()

    @given(kind=st.sampled_from(sorted(FLOAT_TABLES)), matrix=FINITE_MATRICES,
           parts=st.sampled_from(PARTS))
    @settings(max_examples=150, deadline=None)
    def test_finite_matrices_round_trip_bit_exactly(self, tmp_path_factory, kind, matrix, parts):
        loader = FLOAT_TABLES[kind][0]
        keys = [f"k{i}" for i in range(len(matrix))]
        writer = {
            "embeddings": lambda path, m: write_embeddings(path, RowTable(keys, m)),
            "features": lambda path, m: write_features(path, RowTable(keys, m)),
            "model": lambda path, m: save_model(path, ClassifierModel(m[:, :-1], m[:, -1], keys)),
        }[kind]
        base = tmp_path_factory.getbasetemp()
        with _split_into(parts):
            writer(base / "once.txt", matrix)
            again = _loaded_matrix(kind, loader(base / "once.txt"))
        assert again.tobytes() == matrix.tobytes()
        writer(base / "twice.txt", again)  # on one CPU
        assert (base / "once.txt").read_bytes() == (base / "twice.txt").read_bytes()


def _no_child_left() -> bool:
    """Whether every child process made here has been reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _fatal_in_children(target, name: str):
    """Patch ``target.name`` so that a forked child that calls it is killed by SIGKILL."""
    parent, real = os.getpid(), getattr(target, name)

    def call(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    return mock.patch.object(target, name, call)


def _returning(target, name: str, results: list):
    """Patch ``target.name`` to append each call's result to ``results``."""
    real = getattr(target, name)

    def call(*args):
        results.append(real(*args))
        return results[-1]

    return mock.patch.object(target, name, call)


def _watching_children(results: list):
    """Patch ``Forks.result`` to append each temp file it gives (None: the child failed)."""
    return _returning(_split.Forks, "result", results)


class TestSplit:
    """A float table split over CPUs, each range but the first in a forked child."""

    TABLE = RowTable([f"k{i}" for i in range(40)], np.random.default_rng(0).standard_normal((40, 3)))
    WRITERS = {"features": write_features, "embeddings": write_embeddings}

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    @pytest.mark.parametrize("parts", [2, 3, 5])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_a_clean_table_is_read_in_every_range_once(self, tmp_path, kind, parts, newline):
        path, results = tmp_path / "table.txt", []
        self.WRITERS[kind](path, self.TABLE)
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        with _split_into(parts), _watching_children(results), \
                mock.patch.object(scenefuse_io, "_float_rows", wraps=scenefuse_io._float_rows) as ranges:
            assert FLOAT_TABLES[kind][0](path) == self.TABLE
        assert ranges.call_count == 1
        assert len(results) == parts - 1 and None not in results

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_a_killed_writer_child_costs_time_not_bytes(self, tmp_path, kind):
        write, results = self.WRITERS[kind], []
        write(tmp_path / "one.txt", self.TABLE)
        with _split_into(3), _fatal_in_children(builtins, "open"), _watching_children(results):
            write(tmp_path / "split.txt", self.TABLE)
        assert results == [None, None]  # so the parent wrote both children's rows
        assert (tmp_path / "split.txt").read_bytes() == (tmp_path / "one.txt").read_bytes()
        assert _no_child_left()

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_a_killed_loader_child_costs_time_not_values(self, tmp_path, kind):
        loader, results, asked = FLOAT_TABLES[kind][0], [], []
        self.WRITERS[kind](tmp_path / "table.txt", self.TABLE)
        with _split_into(3), _fatal_in_children(_split, "Span"), \
                _watching_children(results), _spying(_split, "parts", asked), \
                mock.patch.object(scenefuse_io, "_float_rows", wraps=scenefuse_io._float_rows) as ranges:
            loaded = loader(tmp_path / "table.txt")
        assert results[0] is None  # so the parent read that child's range itself
        assert ranges.call_count == 1
        assert len(asked) == 1
        assert loaded == self.TABLE
        assert _no_child_left()

    @pytest.mark.parametrize(
        "line, text, message, read, children",
        [
            # the child fails or reads a key already seen: the parent reads its range too
            (38, b"k36\t1.0 2.0 x\n", ":38: unparseable float", [0, 1], 1),
            (38, b"k0\t1.0 2.0 3.0\n", ":38: duplicate image_id 'k0'", [0, 1], 1),
            # the parent's own range is faulty: it raises there; the header decides the
            # split, so its fault meets no child
            (3, b"k1\t1.0 2.0 x\n", ":3: unparseable float", [0], 1),
            (1, b"40 x\n", ":1: header must hold two integers", [0], 0),
            (4, b"k2\t\xff\n", ":4: not UTF-8 (byte 0xff at column 4)", [0], 1),
            # every range is clean: the child's rows are taken
            (1, b"41 3\n", ": header count 41 but 40 data lines", [0], 1),
        ],
        ids=["bad-row-in-the-child's-range", "key-in-two-ranges",
             "bad-row-in-the-parent's-range", "header", "bad-byte-in-the-parent's-range",
             "count-off-in-clean-ranges"],
    )
    def test_the_parent_reads_a_range_again_only_for_a_failed_child_or_a_seen_key(
        self, tmp_path, line, text, message, read, children
    ):
        path = tmp_path / "table.txt"
        write_features(path, self.TABLE)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line - 1] = text
        path.write_bytes(b"".join(lines))
        started, spans, ends = [], [], []
        with _split_into(2), _spying(_split.Forks, "start", started), \
                _spying(_split, "Span", spans), _returning(_split, "line_ends", ends), \
                mock.patch.object(scenefuse_io, "_float_rows", wraps=scenefuse_io._float_rows) as ranges:
            with pytest.raises(ValueError) as exc:
                load_features(path)
        assert str(exc.value) == f"{path}{message}"
        starts = [0] + [end for found in ends for end in found[:-1]]  # where each range starts
        assert [starts.index(start) for _, start, _ in spans] == read  # the parent's reads
        assert ranges.call_count == 1
        assert len(started) == children
        assert _no_child_left()

    @pytest.fixture(scope="class")
    def large(self, tmp_path_factory):
        """A feature file of ``PARALLEL_MIN`` values, about ten reads of ``CHUNK`` bytes."""
        path = tmp_path_factory.mktemp("large") / "table.txt"
        rows = _split.PARALLEL_MIN // 32
        rng = np.random.default_rng(3)
        keys = [f"k{i}" for i in range(rows)]
        write_features(path, RowTable(keys, rng.standard_normal((rows, 32))))
        assert path.stat().st_size > 8 * _split.CHUNK
        return path

    @pytest.mark.parametrize(
        "line, text, message",
        [
            (1, b"4096 x\n", ":1: header must hold two integers"),
            (3, b"k1\t1.0 x\n", ":3: expected 32 values, got 2"),
        ],
        ids=["header", "row-3"],
    )
    def test_a_faulty_load_stops_at_its_first_faulty_line(
        self, tmp_path, large, line, text, message
    ):
        path = tmp_path / "table.txt"
        lines = large.read_bytes().splitlines(keepends=True)
        lines[line - 1] = text
        path.write_bytes(b"".join(lines))
        parent, read, real_pread = os.getpid(), [], os.pread

        def pread(fd, n, at):
            data = real_pread(fd, n, at)
            if os.getpid() == parent:
                read.append(len(data))
            return data

        with mock.patch.object(_split, "cpus", lambda: 2), mock.patch.object(os, "pread", pread):
            with pytest.raises(ValueError) as exc:
                load_features(path)
        assert str(exc.value) == f"{path}{message}"
        assert sum(read) <= 2 * _split.CHUNK
        assert _no_child_left()

    def test_a_child_killed_mid_range_costs_one_more_read_of_its_range(self, large):
        parent, real_pread, preads = os.getpid(), os.pread, []
        results, read, real_read = [], [], _split.Span.read

        def pread(fd, n, at):  # a child dies at its second read, inside its range
            if os.getpid() != parent:
                preads.append(at)
                if len(preads) == 2:
                    os.kill(os.getpid(), signal.SIGKILL)
            return real_pread(fd, n, at)

        def span_read(span, n):
            read.append(real_read(span, n))
            return read[-1]

        with mock.patch.object(_split, "cpus", lambda: 2), mock.patch.object(os, "pread", pread), \
                mock.patch.object(_split.Span, "read", span_read), _watching_children(results), \
                mock.patch.object(scenefuse_io, "_float_rows", wraps=scenefuse_io._float_rows) as ranges:
            loaded = load_features(large)
        assert results == [None]
        assert ranges.call_count == 1
        # the parent read its own range, then the child's, each byte once
        assert sum(map(len, read)) == large.stat().st_size
        assert loaded == load_features(large)  # as a load whose child was not killed
        assert _no_child_left()

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_every_child_is_reaped_when_the_parent_fails(self, tmp_path, kind):
        path = tmp_path / "table.txt"
        with _split_into(5), mock.patch.object(shutil, "copyfileobj", side_effect=OSError("full")):
            with pytest.raises(OSError, match="full"):
                self.WRITERS[kind](path, self.TABLE)
        assert _no_child_left()
        self.WRITERS[kind](path, self.TABLE)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] += " 0.5"  # a field too many in the first row, which the parent reads
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with _split_into(5), pytest.raises(ValueError, match=":2: expected"):
            FLOAT_TABLES[kind][0](path)
        assert _no_child_left()

    @pytest.mark.parametrize("rows, split", [(39, False), (40, True)])
    def test_only_a_table_of_parallel_min_values_is_split(self, tmp_path, rows, split):
        table = RowTable(list(self.TABLE)[:rows], self.TABLE.matrix[:rows])
        started = []
        with mock.patch.multiple(_split, PARALLEL_MIN=120, cpus=lambda: 2, CHUNK=64), \
                _spying(_split.Forks, "start", started):
            write_features(tmp_path / "table.txt", table)
            assert load_features(tmp_path / "table.txt") == table
        assert len(started) == (2 if split else 0)  # one child writes, one loads

    @pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
    def test_a_table_below_parallel_min_is_read_once_by_the_parent(self, tmp_path, faulty):
        # fewer values than PARALLEL_MIN, in a file of many reads: no range is chosen,
        # no child is made and every byte is read once, whether the table loads or not
        path, started, line_ends, read = tmp_path / "table.txt", [], [], []
        table = RowTable(list(self.TABLE)[:39], self.TABLE.matrix[:39])
        write_features(path, table)
        if faulty:  # the last value of the last row
            path.write_bytes(path.read_bytes()[:-1] + b"x\n")
        assert len(table) * table.dim < 120 and path.stat().st_size >= 20 * 64
        real_read = _split.Span.read

        def span_read(span, n):
            read.append(real_read(span, n))
            return read[-1]

        with mock.patch.multiple(_split, PARALLEL_MIN=120, cpus=lambda: 2, CHUNK=64), \
                _spying(_split.Forks, "start", started), \
                _spying(_split, "line_ends", line_ends), \
                mock.patch.object(_split.Span, "read", span_read), \
                mock.patch.object(scenefuse_io, "_float_rows", wraps=scenefuse_io._float_rows) as ranges:
            loaded = _load_or_message(load_features, path)
        assert loaded == ("PATH:40: unparseable float" if faulty else table)
        assert ranges.call_count == 1
        assert started == [] and line_ends == []
        assert sum(map(len, read)) == path.stat().st_size

    @pytest.mark.parametrize(
        "kind, text",
        [("features", "0 1\n\n\n\n"), ("model", "2 1\nc0\tc1\n0 0\n0 0\n")],
        ids=["features-count", "model-clean"],
    )
    def test_ranges_start_wherever_the_header_read_stopped(self, tmp_path, kind, text):
        # at each read size the header's read stops at another byte, where the ranges
        # start, and the split load must give what the one-range load gives
        loader = FLOAT_TABLES[kind][0]
        path = tmp_path / "table.txt"
        path.write_text(text, encoding="utf-8")
        with _split_into(1):
            one_range = _load_or_message(loader, path)
        starts = []
        for chunk in range(1, len(text) + 1):
            with mock.patch.object(_split, "CHUNK", chunk), _split_into(2), \
                    _spying(_split, "line_ends", starts), \
                    mock.patch.object(scenefuse_io, "_float_rows", wraps=scenefuse_io._float_rows) as ranges:
                loaded = _load_or_message(loader, path)
            if isinstance(one_range, str):
                assert loaded == one_range
            else:
                assert ranges.call_count == 1
                assert _loaded_matrix(kind, loaded).tobytes() == (
                    _loaded_matrix(kind, one_range).tobytes()
                )
        assert len({args[1] for args in starts}) > 1

    def test_one_cpu_while_another_thread_runs_or_without_fork(self, monkeypatch):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert _split.cpus() == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert _split.cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "fork")
        assert _split.cpus() == 1

    @pytest.mark.parametrize("reaped_by", ["result", "exit"])
    def test_one_cpu_inside_a_child_of_forks_and_in_its_parent_until_it_is_reaped(
        self, reaped_by
    ):
        # so a large table loaded while train-eval's cell workers run is not split again
        every = len(os.sched_getaffinity(0))
        read_end, write_end = os.pipe()

        def job(out):
            os.read(read_end, 1)  # until the parent has looked
            out.write(f"{_split.cpus()} {_split.parts(_split.PARALLEL_MIN)}".encode())

        try:
            with _split.Forks() as forks:
                index = forks.start(job)
                assert (_split.cpus(), _split.parts(_split.PARALLEL_MIN)) == (1, 1)
                os.write(write_end, b"x")
                if reaped_by == "result":
                    assert forks.result(index).read() == b"1 1"
                    assert _split.cpus() == every
        finally:
            os.close(read_end)
            os.close(write_end)
        assert _split.cpus() == every
        assert _no_child_left()


def _asking(path, matrix: np.ndarray):
    """A producer of ``matrix``'s rows that appends each ``start stop`` it is asked for to ``path``.

    Each range is one ``O_APPEND`` write, so the asks of forked children land there too.
    """

    def rows(start: int, stop: int) -> np.ndarray:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{start} {stop}\n".encode())
        finally:
            os.close(fd)
        return matrix[start:stop]

    return rows


def _asked(path) -> list[tuple[int, int]]:
    return [tuple(map(int, line.split())) for line in path.read_text().splitlines()]


class TestFeatureRows:
    """``write_feature_tables`` of one table: a feature file whose rows a producer makes a block
    at a time."""

    KEYS = [f"k{i}" for i in range(40)]
    MATRIX = np.random.default_rng(1).standard_normal((40, 3))

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 6, 7, 1 << 14])
    def test_rows_are_asked_for_a_block_at_a_time_twice_each(self, tmp_path, parts, block):
        asks = tmp_path / "asks.txt"
        with mock.patch.object(_split, "BLOCK", block), _split_into(parts):
            write_feature_tables([(tmp_path / "t.txt", _asking(asks, self.MATRIX))], self.KEYS, 3)
        step = max(1, block // 3)
        asked = _asked(asks)
        assert all(0 < stop - start <= step for start, stop in asked)
        if step < len(self.KEYS):
            assert (0, len(self.KEYS)) not in asked
        # every row once to check it, in order, then once to write it
        rows = [row for start, stop in asked for row in range(start, stop)]
        check = len(self.KEYS)
        assert rows[:check] == list(range(check))
        assert sorted(rows[check:]) == list(range(check))

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("bad", [0, 27, 39])  # 27 and 39 lie in the last run of 2 or 3
    def test_a_non_finite_row_raises_with_its_key_before_the_file_exists(
        self, tmp_path, parts, bad
    ):
        path, matrix = tmp_path / "t.txt", self.MATRIX.copy()
        matrix[bad, 1] = np.nan
        started = []
        with _split_into(parts), mock.patch.object(_split, "BLOCK", 6), \
                _spying(_split.Forks, "start", started), \
                pytest.raises(ValueError, match=f"^feature for 'k{bad}' has non-finite values$"):
            write_feature_tables([(path, lambda start, stop: matrix[start:stop])], self.KEYS, 3)
        assert not path.exists() and not started

    @given(matrix=FINITE_MATRICES, parts=st.sampled_from([1, 2, 3]), block=st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_the_bytes_are_those_of_write_features(self, tmp_path_factory, matrix, parts, block):
        base, keys = tmp_path_factory.getbasetemp(), [f"k{i}" for i in range(len(matrix))]
        write_features(base / "table.txt", RowTable(keys, matrix))
        with mock.patch.object(_split, "BLOCK", block), _split_into(parts):
            write_feature_tables([(base / "rows.txt", lambda start, stop: matrix[start:stop])],
                                 keys, matrix.shape[1])
        assert (base / "rows.txt").read_bytes() == (base / "table.txt").read_bytes()

    @pytest.mark.parametrize("parts", [1, 2])
    @pytest.mark.parametrize(
        "make",
        [lambda m: m.astype(int), lambda m: m > 0, lambda m: m.astype(int).tolist()],
        ids=["int", "bool", "list-of-lists"],
    )
    def test_a_block_of_any_numbers_writes_as_write_features_writes_its_rows(
        self, tmp_path, make, parts
    ):
        values = make(np.round(self.MATRIX * 4))
        write_features(tmp_path / "table.txt", RowTable(self.KEYS, values))
        with _split_into(parts):
            write_feature_tables([(tmp_path / "rows.txt", lambda start, stop: values[start:stop])],
                                 self.KEYS, 3)
        assert (tmp_path / "rows.txt").read_bytes() == (tmp_path / "table.txt").read_bytes()

    def test_a_killed_child_leaves_its_run_to_the_parent(self, tmp_path):
        results, asks = [], tmp_path / "asks.txt"
        write_features(tmp_path / "table.txt", RowTable(self.KEYS, self.MATRIX))
        with _split_into(3), mock.patch.object(_split, "BLOCK", 6), \
                _fatal_in_children(builtins, "open"), _watching_children(results):
            write_feature_tables([(tmp_path / "rows.txt", _asking(asks, self.MATRIX))], self.KEYS, 3)
        assert results == [None, None]  # so the parent wrote both children's rows
        assert (tmp_path / "rows.txt").read_bytes() == (tmp_path / "table.txt").read_bytes()
        assert _no_child_left()
        # the parent asked for every row to check it and again to write it
        assert sorted(row for start, stop in _asked(asks) for row in range(start, stop)) == \
            sorted(2 * list(range(len(self.KEYS))))

    def test_a_write_holds_about_one_block_of_rows(self, tmp_path):
        # 2000 rows of 300 values made on demand, 4.8 MB as one matrix; one block is 128 kB
        keys, dim = [f"k{i}" for i in range(2000)], 300

        def rows(start: int, stop: int) -> np.ndarray:
            block = np.arange(start * dim, stop * dim, dtype=float).reshape(-1, dim)
            block /= 7  # in place: one block's array, as a producer of new rows makes
            return block

        with mock.patch.object(_split, "cpus", lambda: 1):
            tracemalloc.start()
            try:
                write_feature_tables([(tmp_path / "t.txt", rows)], keys, dim)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 * _split.BLOCK * 8, peak

    def _failing_on_write(self):
        """A producer of ``MATRIX`` that raises ``OSError`` once the check pass is done."""
        asked = []

        def rows(start: int, stop: int) -> np.ndarray:
            asked.append(start)  # the 40 rows are one block, asked for once to check them
            if len(asked) > 1:
                raise OSError("rows are gone")
            return self.MATRIX[start:stop]

        return rows

    def test_a_later_table_that_fails_to_write_leaves_no_table(self, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        tables = [(first, lambda start, stop: self.MATRIX[start:stop]),
                  (second, self._failing_on_write())]
        with pytest.raises(OSError, match="^rows are gone$"):
            write_feature_tables(tables, self.KEYS, 3)
        assert not first.exists() and not second.exists()

    def test_a_link_written_through_is_left_when_a_later_table_fails(self, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        link.symlink_to(target)
        tables = [(link, lambda start, stop: self.MATRIX[start:stop]),
                  (tmp_path / "b.txt", self._failing_on_write())]
        with pytest.raises(OSError, match="^rows are gone$"):
            write_feature_tables(tables, self.KEYS, 3)
        assert link.is_symlink() and target.exists()
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_a_repeated_key_raises_before_the_file_exists(self, tmp_path):
        path = tmp_path / "t.txt"
        with pytest.raises(ValueError, match="^feature id 'k1' repeats$"):
            write_feature_tables([(path, lambda a, b: self.MATRIX[a:b])], ["k0", "k1", "k1"], 3)
        assert not path.exists()

    def test_a_block_of_the_wrong_shape_raises_before_the_file_exists(self, tmp_path):
        path = tmp_path / "t.txt"
        with pytest.raises(ValueError, match=r"^rows 0 to 2 came as \(2, 2\), not \(2, 3\)$"):
            write_feature_tables([(path, lambda a, b: self.MATRIX[a:b, :2])], ["a", "b"], 3)
        assert not path.exists()


_SMALL_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _small_tables(draw):
    """Keys of 0-3 rows, some of which may repeat, and a finite matrix of theirs 0-3 wide."""
    keys = draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=3))
    width = draw(st.integers(0, 3))
    return keys, draw(arrays(np.float64, (len(keys), width), elements=_SMALL_FLOATS))


@st.composite
def _small_models(draw):
    """Class names (0-3, some may repeat) and finite weights and biases of 0-3 rows, 0-3 wide."""
    names = draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=3))
    rows, width = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    W = draw(arrays(np.float64, (rows, width), elements=_SMALL_FLOATS))
    return names, W, draw(arrays(np.float64, (rows,), elements=_SMALL_FLOATS))


class TestWritersAgreeWithLoaders:
    """A value a writer writes loads back equal; any other is refused before its file opens,
    where it is built or where it is written."""

    @given(kind=st.sampled_from(["features", "feature-rows", "embeddings"]), table=_small_tables())
    @settings(max_examples=200, deadline=None)
    def test_a_table_loads_back_equal_or_leaves_no_file(self, tmp_path_factory, kind, table):
        keys, matrix = table
        path = tmp_path_factory.getbasetemp() / "agree-table.txt"
        path.unlink(missing_ok=True)
        try:
            if kind == "feature-rows":
                write_feature_tables([(path, lambda start, stop: matrix[start:stop])],
                                     keys, matrix.shape[1])
            else:
                write = write_embeddings if kind == "embeddings" else write_features
                write(path, RowTable(keys, matrix))
        except ValueError:
            assert not path.exists()
            return
        loaded = (load_embeddings if kind == "embeddings" else load_features)(path)
        assert list(loaded) == keys and loaded.matrix.tobytes() == matrix.tobytes()

    @given(model=_small_models())
    @settings(max_examples=200, deadline=None)
    def test_a_model_loads_back_equal_or_leaves_no_file(self, tmp_path_factory, model):
        names, W, b = model
        path = tmp_path_factory.getbasetemp() / "agree-model.txt"
        path.unlink(missing_ok=True)
        try:
            built = ClassifierModel(W=W, b=b, class_names=names)
            save_model(path, built)
        except ValueError:
            assert not path.exists()
            return
        assert load_model(path) == built

    @pytest.mark.parametrize(
        "write, message",
        [
            (lambda path: write_embeddings(path, RowTable([], np.empty((0, 2)))),
             "embedding table is empty"),
            (lambda path: write_feature_tables([(path, lambda start, stop: np.empty((1, 0)))],
                                               ["a"], 0),
             "feature width must be at least 1, got 0"),
            (lambda path: write_feature_tables([(path, lambda start, stop: np.empty((0, 0)))],
                                               [], 0),
             "feature width must be at least 1, got 0"),
        ],
        ids=["empty-lexicon", "width-0", "width-0-no-rows"],
    )
    def test_a_table_its_loader_rejects_is_named_before_the_file_opens(
        self, tmp_path, write, message
    ):
        path = tmp_path / "t.txt"
        with pytest.raises(ValueError, match=f"^{message}$"):
            write(path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "W, b, names, message",
        [
            (np.zeros((1, 2)), np.zeros(1), ["a"], "need at least two classes"),
            (np.zeros((2, 2)), np.zeros(2), ["a", "a"], "duplicate class names"),
            (np.zeros((2, 0)), np.zeros(2), ["a", "b"], r"W must be \(2, D >= 1\) for 2 classes, "
                                                        r"not \(2, 0\)"),
            (np.zeros((3, 2)), np.zeros(3), ["a", "b"], r"W must be \(2, D >= 1\) for 2 classes, "
                                                        r"not \(3, 2\)"),
            (np.zeros((2, 2)), np.zeros(3), ["a", "b"], r"b must be \(2,\) for 2 classes, "
                                                        r"not \(3,\)"),
        ],
        ids=["one-class", "repeated-name", "no-weight-column", "more-rows-than-names",
             "bias-of-another-length"],
    )
    def test_a_model_its_loader_rejects_cannot_be_built(self, W, b, names, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ClassifierModel(W=W, b=b, class_names=names)

    def test_a_built_model_keeps_its_fields(self):
        model = init_model(2, ["a", "b"], seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.class_names = ["a"]  # save_model would write C=1, which load_model rejects

    def test_the_names_a_model_was_built_from_can_change_without_it(self, tmp_path):
        names = ["a", "b"]
        model = ClassifierModel(W=np.ones((2, 3)), b=np.zeros(2), class_names=names)
        names.append("c")
        save_model(tmp_path / "model.txt", model)
        assert load_model(tmp_path / "model.txt") == model


class TestDecodeErrors:
    @pytest.mark.parametrize(
        "loader, lines",
        [
            (load_features, [b"3 2", b"a\t1.0 2.0", b"b\t1.0 \xff2.0", b"c\t1.0 2.0"]),
            (load_transcriptions, [b'{"image_id": "a", "words": []}',
                                   b'{"image_id": "b", "words": []}', b'{"image_id": "\xff"}']),
            (load_manifest, [b"a\tcat\ttrain", b"b\tdog\ttest", b"c\tc\xffat\ttrain"]),
            (load_cleaning_report, [b"{", b'  "total_words": 3,', b'  "kept\xff": 2', b"}"]),
        ],
        ids=["float-table", "jsonl", "manifest", "json-report"],
    )
    def test_a_bad_byte_names_the_file_line_and_column(self, tmp_path, loader, lines):
        path = tmp_path / "input"
        path.write_bytes(b"\n".join(lines) + b"\n")
        column = lines[2].index(b"\xff") + 1  # every byte before it is ASCII
        with pytest.raises(ValueError) as exc:
            loader(path)
        assert str(exc.value) == f"{path}:3: not UTF-8 (byte 0xff at column {column})"

    @pytest.mark.parametrize(
        "data, where",
        [
            (b"\xfe", "1: not UTF-8 (byte 0xfe at column 1)"),
            (b"a\tb\ttrain\r\n\xc3(", "2: not UTF-8 (byte 0xc3 at column 1)"),
            ("\u00e9\tl\ttrain\u2028x\tl\ttest\x1c\u00e9".encode() + b"\xed\xa0\x80",
             "3: not UTF-8 (byte 0xed at column 2)"),
            (b"a\tl\ttrain\rb\tl\ttest\rc\tl\ttrain\r\x80", "4: not UTF-8 (byte 0x80 at column 1)"),
        ],
        ids=["first-byte", "truncated-sequence", "unicode-line-breaks", "carriage-returns"],
    )
    def test_lines_are_numbered_as_splitlines_numbers_them(self, tmp_path, data, where):
        path = tmp_path / "m.tsv"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}:{where}')}$"):
            load_manifest(path)


class TestLineReader:
    @given(
        data=st.lists(
            st.sampled_from([b"a", b"\t", b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c", b"\x1d",
                             b"\x1e", "\x85".encode(), "\u2028".encode(), "\u2029".encode(),
                             "\u00e9".encode(), "\u20ac".encode(), "\U0001f600".encode(), b"\xff",
                             b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\x80"])
            | st.binary(max_size=3),
            max_size=24,
        ).map(b"".join),
        chunk=st.integers(1, 7),
    )
    @settings(max_examples=600, deadline=None)
    def test_lines_match_splitlines_at_every_chunk_boundary(self, tmp_path_factory, data, chunk):
        path = tmp_path_factory.getbasetemp() / "lines.txt"
        path.write_bytes(data)
        try:
            expected = data.decode("utf-8").splitlines()
        except UnicodeDecodeError:
            with pytest.raises(ValueError) as whole:
                scenefuse_io._read_text(path)
            expected = str(whole.value)
            pattern = r":\d+: not UTF-8 \(byte 0x[0-9a-f]{2} at column \d+\)"
            assert re.fullmatch(re.escape(str(path)) + pattern, expected), expected
        with mock.patch.object(_split, "CHUNK", chunk):
            try:
                got = list(scenefuse_io._lines(path))
            except ValueError as exc:
                got = str(exc)
        assert got == expected

    def test_a_float_table_costs_less_than_its_file(self, tmp_path):
        # a whole-file read held the text and its list of lines, about twice the file
        rng = np.random.default_rng(0)
        table = RowTable([f"w{i}" for i in range(2000)], rng.standard_normal((2000, 300)))
        path = tmp_path / "lexicon.txt"
        write_embeddings(path, table)
        tracemalloc.start()
        try:
            loaded = load_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == table
        assert peak < path.stat().st_size


# lexicon rows: per row, whether it stays out of the vocabulary, and its fields
LEXICON_ROWS = st.integers(1, 3).flatmap(
    lambda dim: st.lists(
        st.tuples(
            st.booleans(),
            st.lists(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     min_size=dim, max_size=dim),
        ),
        min_size=1, max_size=10,
    )
)

# per fault: how it changes the fields of a row that no vocabulary holds
ROW_FAULTS = {
    "bad-byte": lambda fields: fields[:-1] + ["1.\udcff"],
    "unparseable-float": lambda fields: fields[:-1] + ["1e"],
    "non-finite": lambda fields: fields[:-1] + ["-inf"],
    "wrong-field-count": lambda fields: fields + ["0.5"],
}


def _lexicon_bytes(rows: list[tuple[str, list[str]]], dim: int, count: int | None = None) -> bytes:
    """A lexicon file of ``rows`` whose header states ``count`` rows (default: as many as given)."""
    lines = [f"{len(rows) if count is None else count} {dim}"]
    lines += [" ".join([token, *fields]) for token, fields in rows]
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")


_FIELDS = ["1.0", "2.0"]
# per kind of fault, a lexicon whose one bad row, "other", is out of the vocabulary {"kept"}
FAULTY_LEXICONS = {
    **{
        fault: _lexicon_bytes([("kept", _FIELDS), ("other", change(_FIELDS)), ("last", _FIELDS)], 2)
        for fault, change in ROW_FAULTS.items()
    },
    "duplicate-token": _lexicon_bytes(
        [("other", _FIELDS), ("kept", _FIELDS), ("other", _FIELDS)], 2
    ),
    "header-count": _lexicon_bytes([("kept", _FIELDS), ("other", _FIELDS)], 2, count=3),
}


class TestVocabulary:
    """``load_embeddings(path, vocabulary)``: the full table restricted to ``vocabulary``."""

    @given(
        rows=LEXICON_ROWS,
        strangers=st.lists(st.text("xyz", min_size=1, max_size=3), max_size=3),
        chunk=st.integers(1, 64),
        block=st.integers(1, 4),
        parts=st.sampled_from(PARTS),
    )
    @settings(max_examples=300, deadline=None)
    def test_only_the_vocabulary_rows_are_kept_bit_for_bit(
        self, tmp_path_factory, rows, strangers, chunk, block, parts
    ):
        path = tmp_path_factory.getbasetemp() / "lexicon.txt"
        lexicon = [(f"w{i}", fields) for i, (_, fields) in enumerate(rows)]
        path.write_bytes(_lexicon_bytes(lexicon, len(rows[0][1])))
        vocabulary = {f"w{i}" for i, (out, _) in enumerate(rows) if not out} | set(strangers)
        full = load_embeddings(path)
        with mock.patch.object(_split, "CHUNK", chunk), \
                mock.patch.object(_split, "BLOCK", block), _split_into(parts):
            kept = load_embeddings(path, vocabulary)
        expected = [token for token in full if token in vocabulary]
        assert list(kept) == expected
        assert kept.matrix.tobytes() == full.rows(expected).tobytes()
        assert kept.dim == full.dim

    @given(
        rows=LEXICON_ROWS,
        faults=st.lists(
            st.tuples(st.sampled_from([*ROW_FAULTS, "duplicate-token", "extra-row"]),
                      st.integers(0, 9)),
            min_size=1, max_size=2,
        ),
        chunk=st.integers(1, 64),
        block=st.integers(1, 4),
        parts=st.sampled_from(PARTS),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_fault_in_a_row_not_kept_fails_as_the_full_load_does(
        self, tmp_path_factory, rows, faults, chunk, block, parts
    ):
        # each fault goes to a row out of the vocabulary: a duplicate repeats the token of
        # the first such row, and an extra row, which the header does not count, is appended
        lexicon = [(f"w{i}", fields) for i, (_, fields) in enumerate(rows)]
        out = [i for i, (left_out, _) in enumerate(rows) if left_out]
        count = None
        for fault, pick in faults:
            if fault == "extra-row":
                count = len(rows)
                lexicon.append(("extra", rows[0][1]))
            elif out:
                row = out[pick % len(out)]
                token, fields = lexicon[row]
                if fault == "duplicate-token":
                    token = lexicon[out[0]][0] if out[0] < row else token
                else:
                    fields = ROW_FAULTS[fault](fields)
                lexicon[row] = (token, fields)
        path = tmp_path_factory.getbasetemp() / "lexicon.txt"
        path.write_bytes(_lexicon_bytes(lexicon, len(rows[0][1]), count))
        vocabulary = {f"w{i}" for i, (out, _) in enumerate(rows) if not out}
        try:
            full = load_embeddings(path)
        except ValueError as exc:
            message = str(exc)
        else:
            message = None
        with mock.patch.object(_split, "CHUNK", chunk), \
                mock.patch.object(_split, "BLOCK", block), _split_into(parts):
            if message is None:
                kept = load_embeddings(path, vocabulary)
                assert list(kept) == [token for token in full if token in vocabulary]
                assert kept.matrix.tobytes() == full.rows(kept).tobytes()
            else:
                with pytest.raises(ValueError) as exc:
                    load_embeddings(path, vocabulary)
                assert str(exc.value) == message

    @pytest.mark.parametrize("fault", sorted(FAULTY_LEXICONS))
    def test_every_kind_of_fault_fails_the_filtered_load(self, tmp_path, fault):
        path = tmp_path / "lexicon.txt"
        path.write_bytes(FAULTY_LEXICONS[fault])
        with pytest.raises(ValueError) as whole:
            load_embeddings(path)
        with pytest.raises(ValueError) as kept:
            load_embeddings(path, {"kept"})
        assert str(kept.value) == str(whole.value)

    def test_a_huge_header_count_fails_with_its_message(self, tmp_path):
        path = tmp_path / "lexicon.txt"
        path.write_text(f"{10 ** 9} 2\na 1.0 2.0\n", encoding="utf-8")
        message = f"{path}: header count 1000000000 but 1 data lines"
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            load_embeddings(path, {"a"})

    def test_a_load_holds_its_vocabulary_rows_not_the_lexicon(self, tmp_path):
        # the rows kept, one block of rows and one chunk of text (5.3 MB traced here),
        # where a full load of this lexicon peaks at 27.3 MB: its 22.9 MB matrix and more
        rows, dim = 10_000, 300
        rng = np.random.default_rng(0)
        table = RowTable([f"w{i}" for i in range(rows)], rng.integers(-9, 9, (rows, dim)) / 8)
        path = tmp_path / "lexicon.txt"
        write_embeddings(path, table)
        vocabulary = [f"w{i}" for i in range(0, rows, 10)]
        tracemalloc.start()
        try:
            kept = load_embeddings(path, set(vocabulary))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept == RowTable(vocabulary, table.rows(vocabulary))
        assert peak < table.matrix.nbytes / 2


def _feature_bytes(rows: list[tuple[str, list[str]]], dim: int, count: int | None = None) -> bytes:
    """A feature file of ``rows`` whose header states ``count`` rows (default: as many as given)."""
    lines = [f"{len(rows) if count is None else count} {dim}"]
    lines += [key + "\t" + " ".join(fields) for key, fields in rows]
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")


# per kind of fault, a feature file whose one bad row, "other", is not in the order kept
FAULTY_FEATURES = {
    **{
        fault: _feature_bytes([("kept", _FIELDS), ("other", change(_FIELDS)), ("last", _FIELDS)], 2)
        for fault, change in ROW_FAULTS.items()
    },
    "duplicate-id": _feature_bytes([("other", _FIELDS), ("kept", _FIELDS), ("other", _FIELDS)], 2),
    "header-count": _feature_bytes([("kept", _FIELDS), ("other", _FIELDS)], 2, count=3),
}


class TestOrder:
    """``load_features(path, order)``: the rows of the ids of ``order``, in that order."""

    @given(
        matrix=FINITE_MATRICES,
        picks=st.lists(st.integers(0, 7), unique=True),  # a pick past the file's rows is absent
        chunk=st.integers(1, 64),
        block=st.integers(1, 4),
        parts=st.sampled_from(PARTS),
    )
    @settings(max_examples=300, deadline=None)
    def test_the_rows_of_the_ids_come_bit_for_bit_in_that_order(
        self, tmp_path_factory, matrix, picks, chunk, block, parts
    ):
        path = tmp_path_factory.getbasetemp() / "features.txt"
        full = RowTable([f"i{k}" for k in range(len(matrix))], matrix)
        write_features(path, full)
        order = [f"i{k}" for k in picks]
        with mock.patch.object(_split, "CHUNK", chunk), \
                mock.patch.object(_split, "BLOCK", block), _split_into(parts):
            kept = load_features(path, order)
        expected = [image_id for image_id in order if image_id in full]
        assert list(kept) == expected
        assert kept.matrix.tobytes() == full.rows(expected).tobytes()
        assert kept.dim == full.dim and not kept.matrix.flags.writeable

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_a_split_load_places_every_range_by_the_order(self, tmp_path, parts):
        rng = np.random.default_rng(6)
        full = RowTable([f"i{k}" for k in range(40)], rng.standard_normal((40, 3)))
        path = tmp_path / "features.txt"
        write_features(path, full)
        order = [f"i{k}" for k in rng.permutation(45)]  # five ids the file lacks
        started = []
        with _split_into(parts), _spying(_split.Forks, "start", started):
            kept = load_features(path, order)
        assert len(started) == parts - 1
        expected = [image_id for image_id in order if image_id in full]
        assert kept == RowTable(expected, full.rows(expected))

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("fault", sorted(FAULTY_FEATURES))
    def test_a_fault_in_a_row_not_kept_fails_as_the_full_load_does(self, tmp_path, fault, parts):
        path = tmp_path / "features.txt"
        path.write_bytes(FAULTY_FEATURES[fault])
        with pytest.raises(ValueError) as whole:
            load_features(path)
        with _split_into(parts), pytest.raises(ValueError) as kept:
            load_features(path, ["last", "kept"])
        assert str(kept.value) == str(whole.value)

    def test_a_repeated_id_raises_before_the_file_is_opened(self, tmp_path):
        with pytest.raises(ValueError, match="^order id 'a' repeats$"):
            load_features(tmp_path / "missing.txt", ["a", "b", "a"])

    def test_a_pipe_loads_as_its_file_does(self, tmp_path):
        data = _feature_bytes([(f"i{k}", [f"{k}.5", "1.0"]) for k in range(5)], 2)
        file, pipe = tmp_path / "f.txt", tmp_path / "f.pipe"
        file.write_bytes(data)
        os.mkfifo(pipe)
        opened = threading.Event()

        def write() -> None:
            with open(pipe, "wb") as fh:  # returns once a reader has opened the pipe
                opened.set()
                fh.write(data)

        writer = threading.Thread(target=write)
        writer.start()
        order = ["i3", "x", "i0", "i4"]
        try:
            with mock.patch.object(_split, "BLOCK", 2):
                through_pipe = load_features(pipe, order)
        finally:
            # unset, the writer has not closed its end: the load failed before it opened
            # the pipe, or before the writer ran on, and this open meets the writer's
            if not opened.is_set():
                with open(pipe, "rb") as fh:
                    fh.read()
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert through_pipe == load_features(file, order)
        assert list(through_pipe) == ["i3", "i0", "i4"]

    def test_a_reordered_load_holds_no_second_matrix(self, tmp_path):
        # the 4.8 MB of rows kept, one block and one chunk of text; a reordered copy of
        # the rows would take the peak past 9.6 MB
        rows, dim = 2000, 300
        rng = np.random.default_rng(2)
        table = RowTable([f"i{k}" for k in range(rows)], rng.integers(-9, 9, (rows, dim)) / 8)
        path = tmp_path / "features.txt"
        write_features(path, table)
        order = [f"i{k}" for k in rng.permutation(rows)]
        with mock.patch.object(_split, "cpus", lambda: 1):
            tracemalloc.start()
            try:
                kept = load_features(path, order)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert kept == RowTable(order, table.rows(order))
        assert peak < 1.5 * table.matrix.nbytes, peak


# per case: loader, file bytes, the message after "path": the header's fault, then that of the
# first faulty line, then a row count other than the header's; a huge dim or count fails with
# its own message, not a failed allocation
FAULT_ORDER = {
    "features-bad-float-then-bad-byte": (
        load_features, b"3 2\na\t1.0 x\nb\t1.0 2.0\nc\t1.0 \xff\n", ":2: unparseable float",
    ),
    "features-structure-and-header-count": (
        load_features, b"3 2\na\t1.0 2.0\nb 1.0 2.0\n", ":3: expected '<image_id>\\t<values>'",
    ),
    "features-non-finite-before-duplicate": (
        load_features, b"3 2\na\t1.0 inf\nb\t1.0 2.0\na\t1.0 2.0\n", ":2: non-finite value",
    ),
    "features-duplicate-before-non-finite": (
        load_features, b"3 2\na\t1.0 2.0\na\t1.0 2.0\nb\t1.0 nan\n", ":3: duplicate image_id 'a'",
    ),
    "features-bad-float-before-structure": (
        load_features, b"3 2\na\t1.0 2.0\nb\t1.0 1e\nc\t1.0\n", ":3: unparseable float",
    ),
    "features-header-then-bad-byte": (
        load_features, b"3 x\na\t1.0 2.0\n\xc3(\n", ":1: header must hold two integers",
    ),
    "embeddings-bad-float-then-bad-byte": (
        load_embeddings, b"2 2\na 1.0 x\nb 1.0 \xff\n", ":2: unparseable float",
    ),
    "embeddings-structure-and-header-count": (
        load_embeddings, b"3 2\na 1.0\nb 1.0 2.0\n",
        ":2: expected token plus 2 values, got 2 fields",
    ),
    "embeddings-non-finite-before-duplicate": (
        load_embeddings, b"3 2\na 1.0 2.0\nb -inf 2.0\na 1.0 2.0\n", ":3: non-finite value",
    ),
    "embeddings-extra-row-and-bad-float": (
        load_embeddings, b"1 2\na 1.0 x\nb 1.0 2.0\n", ":2: unparseable float",
    ),
    "model-too-few-rows-and-bad-value": (
        load_model, b"2 1\na\tb\n1.0 x\n", ":3: unparseable float",
    ),
    "model-bad-value-then-bad-byte": (
        load_model, b"2 1\na\tb\n1.0 x\n1.0 \x80\n", ":3: unparseable float",
    ),
    "model-structure-before-non-finite": (
        load_model, b"2 1\na\tb\n1.0\n1.0 nan\n", ":3: expected 2 values, got 1",
    ),
    "model-header-then-bad-byte": (
        load_model, b"x y\n\xff\n1 2\n", ":1: header must hold two integers",
    ),
    "features-huge-dim": (
        load_features, b"1 1000000000000\na\t1.0 2.0\n", ":2: expected 1000000000000 values, got 2",
    ),
    "features-huge-count": (
        load_features, b"1000000000 2\na\t1.0 2.0\n", ": header count 1000000000 but 1 data lines",
    ),
    "embeddings-huge-dim": (
        load_embeddings, b"1 1000000000000\na\t1.0 2.0\n",
        ":2: expected token plus 1000000000000 values, got 2 fields",
    ),
    "embeddings-vocabulary-huge-dim": (
        lambda path: load_embeddings(path, {"a\t1.0"}),  # the row's token, so the row is kept
        b"1 1000000000000\na\t1.0 2.0\n",
        ":2: expected token plus 1000000000000 values, got 2 fields",
    ),
    "embeddings-huge-count": (
        load_embeddings, b"1000000000 2\na 1.0 2.0\n", ": header count 1000000000 but 1 data lines",
    ),
    "model-huge-dim": (
        load_model, b"2 1000000000000\na\tb\n1.0 2.0\n1.0 2.0\n",
        ":3: expected 1000000000001 values, got 2",
    ),
    "manifest-bad-row-then-bad-byte": (
        load_manifest, b"a\tcat\ttrain\nb\tcat\nc\tdog\ttest\xfe\n",
        ":2: expected 'image_id\\tlabel\\tsplit'",
    ),
    "manifest-duplicate-then-bad-split": (
        load_manifest, b"a\tcat\ttrain\na\tcat\ttrain\nb\tcat\tdev\n", ":2: duplicate image_id 'a'",
    ),
    "transcriptions-bad-json-then-bad-byte": (
        load_transcriptions,
        b'{"image_id": "a", "words": []}\n{"image_id": \n{"image_id": "\xff", "words": []}\n',
        ":2: bad JSON: Expecting value",
    ),
    "vqa-bad-record-then-bad-byte": (
        load_vqa,
        b'{"image_id": "a", "question": "q", "answer": ""}\n'
        b'{"image_id": "\xe2\x80", "question": "q", "answer": "x"}\n',
        ":1: bad VQA record: image_id, question and answer must all be non-empty",
    ),
}


class TestFaultOrder:
    @pytest.mark.parametrize("case", sorted(FAULT_ORDER))
    @pytest.mark.parametrize("chunk", [None, 1, 3])
    @pytest.mark.parametrize("parts", PARTS)
    def test_the_first_fault_of_the_whole_file_wins(self, tmp_path, case, chunk, parts):
        loader, data, message = FAULT_ORDER[case]
        path = tmp_path / "input"
        path.write_bytes(data)
        with mock.patch.object(_split, "CHUNK", chunk) if chunk else nullcontext(), \
                _split_into(parts):
            with pytest.raises(ValueError) as exc:
                loader(path)
        assert str(exc.value) == f"{path}{message}"


class TestHeaders:
    @pytest.mark.parametrize("loader", [load_features, load_embeddings])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "1: empty file, expected '<count> <dim>' header"),
            ("2\n", "1: header must be '<count> <dim>'"),
            ("1 2 3\na 1.0 2.0\n", "1: header must be '<count> <dim>'"),
            ("1 x\n", "1: header must hold two integers"),
            ("1.0 2\n", "1: header must hold two integers"),
            ("-1 2\n", "1: bad header values count=-1 dim=2"),
            ("0 0\n", "1: bad header values count=0 dim=0"),
        ],
    )
    def test_count_dim_header_messages(self, tmp_path, loader, text, message):
        path = tmp_path / "table.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}:{message}')}$"):
            loader(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "1: truncated model file"),
            ("2 1\n", "1: truncated model file"),
            ("2\na\tb\n1.0 0.0\n1.0 0.0\n", "1: header must be 'C D'"),
            ("2 1 1\na\tb\n1.0 0.0\n1.0 0.0\n", "1: header must be 'C D'"),
            ("2 one\na\tb\n1.0 0.0\n1.0 0.0\n", "1: header must hold two integers"),
            ("2 1\n\tb\n1.0 0.0\n1.0 0.0\n", "2: empty class name"),
            ("2 1\na\ta\n1.0 0.0\n1.0 0.0\n", "2: duplicate class name 'a'"),
            # line 1 is checked before line 2 is read
            ("x y\n\udcff\n1 2\n", "1: header must hold two integers"),
            ("x y\n", "1: header must hold two integers"),
            ("2\n", "1: header must be 'C D'"),
            ("1 1\n\udcff\n", "1: bad header values C=1 D=1, need C >= 2 and D >= 1"),
            ("2 1\n\udcff\n1.0 0.0\n1.0 0.0\n", "2: not UTF-8 (byte 0xff at column 1)"),
        ],
    )
    def test_model_header_messages(self, tmp_path, text, message):
        path = tmp_path / "model.txt"
        path.write_text(text, encoding="utf-8", errors="surrogateescape")  # "\udcff": byte 0xff
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}:{message}')}$"):
            load_model(path)


class TestEmbeddingsFormat:
    def test_fixture_loads(self, fixtures_dir):
        table = load_embeddings(fixtures_dir / "embeddings.txt")
        assert table.dim == 6
        assert len(table) == 29
        assert np.array_equal(table.get("just"), [0.9, 0.1, -0.1, 0.2, 0.0, 0.1])

    def test_round_trip_bytes(self, fixtures_dir, tmp_path):
        table = load_embeddings(fixtures_dir / "embeddings.txt")
        out = tmp_path / "emb.txt"
        write_embeddings(out, table)
        again = load_embeddings(out)
        assert list(again.index) == list(table.index)
        assert again.matrix.tobytes() == table.matrix.tobytes()
        twice = tmp_path / "emb2.txt"
        write_embeddings(twice, again)
        assert out.read_bytes() == twice.read_bytes()

    def test_wrong_arity_names_line(self, tmp_path):
        bad = tmp_path / "emb.txt"
        bad.write_text("2 3\nok 1.0 2.0 3.0\nshort 1.0 2.0\n")
        with pytest.raises(ValueError, match=r":3"):
            load_embeddings(bad)

    def test_header_count_mismatch(self, tmp_path):
        bad = tmp_path / "emb.txt"
        bad.write_text("3 2\na 1.0 2.0\n")
        with pytest.raises(ValueError, match="count"):
            load_embeddings(bad)

    def test_duplicate_token(self, tmp_path):
        bad = tmp_path / "emb.txt"
        bad.write_text("2 1\na 1.0\na 2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_embeddings(bad)

    def test_empty_token_names_line(self, tmp_path):
        bad = tmp_path / "emb.txt"
        bad.write_text("2 1\na 1.0\n 2.0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}:3: empty token$"):
            load_embeddings(bad)


class TestFeatureFormat:
    def test_fixture_loads(self, fixtures_dir):
        feats = load_features(fixtures_dir / "image_features.txt")
        assert len(feats) == 12
        assert all(v.shape == (5,) for v in feats.values())
        assert list(feats)[0] == "ad-0001"

    def test_round_trip_preserves_exact_floats(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = RowTable([f"id-{i}" for i in range(5)], rng.standard_normal((5, 4)))
        out = tmp_path / "f.txt"
        write_features(out, feats)
        again = load_features(out)
        assert list(again) == list(feats)
        for k in feats:
            assert feats[k].tobytes() == again[k].tobytes()

    def test_non_finite_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            write_features(tmp_path / "f.txt", RowTable(["a"], [[1.0, np.inf]]))

    def test_non_finite_rejected_on_load(self, tmp_path):
        bad = tmp_path / "f.txt"
        bad.write_text("1 2\na\t1.0 nan\n")
        with pytest.raises(ValueError, match=r":2"):
            load_features(bad)

    def test_wrong_value_count_names_line(self, tmp_path):
        bad = tmp_path / "f.txt"
        bad.write_text("1 3\na\t1.0 2.0\n")
        with pytest.raises(ValueError, match=r":2"):
            load_features(bad)

    def test_duplicate_id(self, tmp_path):
        bad = tmp_path / "f.txt"
        bad.write_text("2 1\na\t1.0\na\t2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_features(bad)

    def test_missing_tab(self, tmp_path):
        bad = tmp_path / "f.txt"
        bad.write_text("1 1\na 1.0\n")
        with pytest.raises(ValueError, match=r":2"):
            load_features(bad)

    def test_empty_image_id_names_line(self, tmp_path):
        bad = tmp_path / "f.txt"
        bad.write_text("2 1\na\t1.0\n\t2.0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}:3: empty image_id$"):
            load_features(bad)


class TestTranscriptionFormat:
    def test_fixture_loads(self, fixtures_dir):
        records = load_transcriptions(fixtures_dir / "transcriptions.jsonl")
        assert len(records) == 12
        assert records["ad-0005"].words == ()
        assert records["ad-0001"].words[0] == TranscribedWord("just", 0.95)

    def test_round_trip(self, fixtures_dir, tmp_path):
        records = load_transcriptions(fixtures_dir / "transcriptions.jsonl")
        out = tmp_path / "t.jsonl"
        write_transcriptions(out, records)
        assert load_transcriptions(out) == records

    def test_bad_json_names_line(self, tmp_path):
        bad = tmp_path / "t.jsonl"
        bad.write_text('{"image_id": "a", "words": []}\nnot json\n')
        with pytest.raises(ValueError, match=r":2"):
            load_transcriptions(bad)

    def test_missing_key_names_line(self, tmp_path):
        bad = tmp_path / "t.jsonl"
        bad.write_text('{"image_id": "a"}\n')
        with pytest.raises(ValueError, match=r":1"):
            load_transcriptions(bad)

    def test_duplicate_image_id(self, tmp_path):
        bad = tmp_path / "t.jsonl"
        bad.write_text('{"image_id": "a", "words": []}\n{"image_id": "a", "words": []}\n')
        with pytest.raises(ValueError, match="duplicate"):
            load_transcriptions(bad)

    def test_confidence_out_of_range_rejected(self, tmp_path):
        bad = tmp_path / "t.jsonl"
        bad.write_text('{"image_id": "a", "words": [{"token": "x", "conf": 1.5}]}\n')
        with pytest.raises(ValueError, match=r":1"):
            load_transcriptions(bad)


    @pytest.mark.parametrize("conf", ["true", "false", '"0.9"', "null"])
    def test_non_numeric_confidence_rejected(self, tmp_path, conf):
        bad = tmp_path / "t.jsonl"
        bad.write_text(
            '{"image_id": "a", "words": []}\n'
            f'{{"image_id": "b", "words": [{{"token": "x", "conf": {conf}}}]}}\n'
        )
        with pytest.raises(ValueError, match=r"t\.jsonl:2: .*conf must be a number"):
            load_transcriptions(bad)


    @given(field=st.sampled_from(["image_id", "token", "conf"]), value=JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_any_json_value_loads_or_names_its_line(self, tmp_path_factory, field, value):
        word = {"token": "x", "conf": 0.5}
        record = {"image_id": "b", "words": [word]}
        (record if field == "image_id" else word)[field] = value
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        loaded = _load_or_name_line(
            load_transcriptions, path, [{"image_id": "a", "words": []}, record]
        )
        if loaded is not None:
            (got,) = loaded[value if field == "image_id" else "b"].words
            assert isinstance(got.token, str) and isinstance(got.confidence, float)

    @pytest.mark.parametrize("token", ["5", "[\"sale\"]", "null", "true"])
    def test_non_string_token_rejected(self, tmp_path, token):
        bad = tmp_path / "t.jsonl"
        bad.write_text(
            '{"image_id": "a", "words": []}\n'
            f'{{"image_id": "b", "words": [{{"token": {token}, "conf": 0.9}}]}}\n'
        )
        with pytest.raises(ValueError, match=r"t\.jsonl:2: .*token must be a string"):
            load_transcriptions(bad)


def _zipf_transcriptions(path, records: int = 2500, words: int = 20, vocab: int = 3000) -> int:
    """A JSONL corpus of Zipf-drawn tokens with 3-decimal confidences; returns its word count."""
    rng = np.random.default_rng(7)
    p = 1.0 / np.arange(1, vocab + 1) ** 1.07
    ranks = rng.choice(vocab, (records, words), p=p / p.sum())
    confs = np.round(rng.uniform(0.3, 1.0, (records, words)), 3)
    path.write_text("".join(
        json.dumps({"image_id": f"img-{i:05d}",
                    "words": [{"token": f"w{r}", "conf": c} for r, c in zip(ranks[i].tolist(), confs[i].tolist())]})
        + "\n"
        for i in range(records)
    ), encoding="utf-8")
    return ranks.size


class TestLoadedWords:
    """What ``load_transcriptions`` builds: one small object per word, equal tokens shared."""

    def test_a_loaded_word_costs_at_most_120_bytes(self, tmp_path):
        # a word with a __dict__ and its own token str and float costs about 185 bytes
        path = tmp_path / "ocr.jsonl"
        words = _zipf_transcriptions(path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records = load_transcriptions(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(len(r.words) for r in records.values()) == words
        assert held / words <= 120, f"{held / words:.0f} B per word"

    def test_equal_tokens_and_confidences_are_one_object(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"image_id": "a", "words": [{"token": "sale", "conf": 0.9}, {"token": "sale", "conf": 0.4}]}\n'
            '{"image_id": "b", "words": [{"token": "shoe", "conf": 0.9}, {"token": "sale", "conf": 0.8}]}\n'
        )
        records = load_transcriptions(path)
        (first, again), (shoe, other) = records["a"].words, records["b"].words
        assert first.token is again.token is other.token == "sale"
        assert first.confidence is shoe.confidence == 0.9

    def test_zero_confidences_keep_their_sign(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"image_id": "a", "words": [{"token": "x", "conf": -0.0}, {"token": "y", "conf": 0.0}]}\n'
            '{"image_id": "b", "words": [{"token": "x", "conf": 0.0}, {"token": "y", "conf": -0.0}]}\n'
        )
        records = load_transcriptions(path)
        signs = [[math.copysign(1.0, w.confidence) for w in records[i].words] for i in "ab"]
        assert signs == [[-1.0, 1.0], [1.0, -1.0]]

    def test_equal_confidence_texts_load_as_equal_values(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"image_id": "a", "words": [{"token": "x", "conf": 0.5}, {"token": "y", "conf": 0.50}]}\n'
            '{"image_id": "b", "words": [{"token": "x", "conf": 5e-1}, {"token": "y", "conf": 1}]}\n'
        )
        records = load_transcriptions(path)
        assert [w.confidence for r in records.values() for w in r.words] == [0.5, 0.5, 0.5, 1.0]
        assert type(records["b"].words[1].confidence) is float

    def test_write_load_write_is_byte_stable(self, tmp_path):
        source = tmp_path / "ocr.jsonl"
        _zipf_transcriptions(source, records=300)
        records = load_transcriptions(source)
        records["img-00000"] = TranscriptionRecord(
            "img-00000", (TranscribedWord("w1", -0.0), TranscribedWord("w1", 0.0))
        )
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_transcriptions(first, records)
        write_transcriptions(second, load_transcriptions(first))
        assert second.read_bytes() == first.read_bytes()
        assert load_transcriptions(second) == records

    def test_records_hold_no_instance_dict(self):
        word = TranscribedWord("sun", 0.9)
        record = TranscriptionRecord("img-1", [word])
        row = ManifestRow("img-1", "beach", "train")
        for obj in (word, record, row):
            assert not hasattr(obj, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, dataclasses.fields(obj)[0].name, "x")
        assert record.words == (word,)
        assert word == TranscribedWord("sun", 0.9) != TranscribedWord("sun", 0.8)
        assert hash(word) == hash(("sun", 0.9))
        assert hash(record) == hash(("img-1", (word,)))
        assert hash(row) == hash(("img-1", "beach", "train"))
        assert repr(word) == "TranscribedWord(token='sun', confidence=0.9)"
        assert repr(record) == (
            "TranscriptionRecord(image_id='img-1', "
            "words=(TranscribedWord(token='sun', confidence=0.9),))"
        )
        assert repr(row) == "ManifestRow(image_id='img-1', label='beach', split='train')"
        assert dataclasses.asdict(record) == {
            "image_id": "img-1", "words": ({"token": "sun", "confidence": 0.9},)
        }
        assert dataclasses.asdict(row) == {"image_id": "img-1", "label": "beach", "split": "train"}

    @pytest.mark.parametrize("make, message", [
        (lambda: TranscribedWord("", 0.5), "token must be non-empty"),
        (lambda: TranscribedWord("x", 1.5), r"confidence 1\.5 outside \[0, 1\]"),
        (lambda: ManifestRow("", "cat", "train"), "image_id must be non-empty"),
        (lambda: ManifestRow("a", "", "train"), "label must be non-empty"),
        (lambda: ManifestRow("a", "cat", "dev"), r"split must be one of \('train', 'test'\), got 'dev'"),
    ])
    def test_validation_messages(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


class TestManifestFormat:
    @given(
        st.lists(
            st.sampled_from([b"a", b"cat", b"train", b"test", b"\t", b"\n", b"\r", b"\x1c",
                             "\u2028".encode(), "\u00e9".encode(), b"\xff", b"\xc3", b""])
            | st.binary(max_size=4),
            max_size=16,
        ).map(b"".join)
    )
    @settings(max_examples=400, deadline=None)
    def test_any_bytes_load_or_name_the_file(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.tsv"
        path.write_bytes(data)
        try:
            manifest = load_manifest(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)
            return
        text = data.decode("utf-8")
        assert [r.image_id + "\t" + r.label + "\t" + r.split for r in manifest.rows] == text.splitlines()

    def test_fixture_loads(self, fixtures_dir):
        manifest = load_manifest(fixtures_dir / "manifest.tsv")
        assert len(manifest.rows) == 12
        assert manifest.class_names() == ["drinks", "footwear", "vehicles"]
        assert len(manifest.split_rows("train")) == 8
        assert len(manifest.split_rows("test")) == 4

    def test_round_trip(self, fixtures_dir, tmp_path):
        manifest = load_manifest(fixtures_dir / "manifest.tsv")
        out = tmp_path / "m.tsv"
        write_manifest(out, manifest)
        assert load_manifest(out) == manifest
        assert out.read_bytes() == (fixtures_dir / "manifest.tsv").read_bytes()

    def test_equal_labels_and_splits_are_one_object(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\tcat\ttrain\nb\tcat\ttrain\nc\tdog\ttest\n")
        first, second, _ = load_manifest(path).rows
        assert first.label is second.label and first.split is second.split

    def test_bad_split_names_line(self, tmp_path):
        bad = tmp_path / "m.tsv"
        bad.write_text("a\tcat\ttrain\nb\tcat\tdev\n")
        with pytest.raises(ValueError, match=r":2"):
            load_manifest(bad)

    def test_wrong_column_count(self, tmp_path):
        bad = tmp_path / "m.tsv"
        bad.write_text("a\tcat\n")
        with pytest.raises(ValueError, match=r":1"):
            load_manifest(bad)

    def test_duplicate_id_names_line(self, tmp_path):
        bad = tmp_path / "m.tsv"
        bad.write_text("a\tcat\ttrain\na\tdog\ttest\n")
        with pytest.raises(ValueError, match=r":2"):
            load_manifest(bad)


class TestVqaFormat:
    def test_fixture_loads(self, fixtures_dir):
        records = load_vqa(fixtures_dir / "vqa.jsonl")
        assert len(records) == 11
        assert records[0] == VqaRecord("ad-0001", "what brand is shown", "nike")

    def test_round_trip(self, fixtures_dir, tmp_path):
        records = load_vqa(fixtures_dir / "vqa.jsonl")
        out = tmp_path / "v.jsonl"
        write_vqa(out, records)
        assert load_vqa(out) == records

    def test_empty_answer_rejected(self, tmp_path):
        bad = tmp_path / "v.jsonl"
        bad.write_text('{"image_id": "a", "question": "q", "answer": ""}\n')
        with pytest.raises(ValueError, match=r":1"):
            load_vqa(bad)


    @given(field=st.sampled_from(["image_id", "question", "answer"]), value=JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_any_json_value_loads_or_names_its_line(self, tmp_path_factory, field, value):
        record = {"image_id": "b", "question": "what is it", "answer": "nike"}
        record[field] = value
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        loaded = _load_or_name_line(load_vqa, path, [VqaRecord("a", "q", "x").__dict__, record])
        if loaded is not None:
            assert all(isinstance(getattr(loaded[1], f), str) for f in record)

    def test_bad_json_names_line(self, tmp_path):
        bad = tmp_path / "v.jsonl"
        bad.write_text('{"image_id": "a", "question": "q", "answer": "x"}\n{"image_id": \n')
        with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}:2: bad JSON: Expecting value$"):
            load_vqa(bad)

    def test_non_string_question_rejected(self, tmp_path):
        bad = tmp_path / "v.jsonl"
        bad.write_text('{"image_id": "a", "question": ["what"], "answer": "x"}\n')
        with pytest.raises(ValueError, match=r"v\.jsonl:1: .*question must be a string"):
            load_vqa(bad)


class TestModelFormat:
    def test_round_trip_bit_equal(self, tmp_path):
        model = init_model(7, ["alpha", "beta", "gamma"], seed=99)
        model.W[0, 0] = 1.0 / 3.0  # force a value with no short decimal form
        out = tmp_path / "model.txt"
        save_model(out, model)
        again = load_model(out)
        assert again.class_names == model.class_names
        assert again.W.tobytes() == model.W.tobytes()
        assert again.b.tobytes() == model.b.tobytes()
        twice = tmp_path / "model2.txt"
        save_model(twice, again)
        assert out.read_bytes() == twice.read_bytes()

    def test_values_are_written_as_their_shortest_round_trip_decimal(self, tmp_path):
        # as every float table is: repr, not 17 significant digits (0.10000000000000001)
        model = ClassifierModel(np.array([[0.1], [-0.0]]), np.array([0.0, 1.0 / 3.0]), ["a", "b"])
        out = tmp_path / "model.txt"
        save_model(out, model)
        assert out.read_text() == "2 1\na\tb\n0.1 0.0\n-0.0 0.3333333333333333\n"

    def test_a_file_at_17_significant_digits_still_loads_bit_equal(self, tmp_path):
        old = tmp_path / "model.txt"
        old.write_text("2 1\na\tb\n0.10000000000000001 0\n-0 3.3333333333333331e-01\n")
        model = load_model(old)
        assert model.W.tobytes() == np.array([[0.1], [-0.0]]).tobytes()
        assert model.b.tobytes() == np.array([0.0, 1.0 / 3.0]).tobytes()
        assert model.class_names == ("a", "b")

    def test_wrong_row_count(self, tmp_path):
        bad = tmp_path / "model.txt"
        bad.write_text("2 1\na\tb\n1.0 0.0\n")
        with pytest.raises(ValueError, match="rows"):
            load_model(bad)

    @pytest.mark.parametrize(
        "text",
        [
            "2 -3\na\tb\n1.0\n2.0\n",  # numpy's "negative dimensions", naming no file
            "2 0\na\tb\n1.0\n2.0\n",  # would load a zero-width model
            "1 2\na\n1.0 2.0 3.0\n",  # would load a one-class model
            "0 2\n\n",
        ],
    )
    def test_header_needs_two_classes_and_one_dim(self, tmp_path, text):
        bad = tmp_path / "model.txt"
        bad.write_text(text)
        with pytest.raises(ValueError, match=r"model\.txt:1: bad header values"):
            load_model(bad)

    def test_tab_in_class_name_rejected(self, tmp_path):
        model = init_model(2, ["ok", "bad\tname"], seed=0)
        with pytest.raises(ValueError, match="tab"):
            save_model(tmp_path / "model.txt", model)


class TestReportFormats:
    def test_cleaning_report_round_trip(self, tmp_path):
        report = CleaningReport(
            total_words=10, kept_words=7, removed_words=3, emptied_records=1,
            removed_per_image={"a": 2, "b": 1, "c": 0},
        )
        out = tmp_path / "clean.json"
        write_cleaning_report(out, report)
        assert load_cleaning_report(out) == report

    def test_run_manifest_round_trip(self, tmp_path):
        manifest = RunManifest(
            tool="scenefuse", version="0.1.0", command="fuse",
            params={"scheme": "mcb", "d": 1024, "seed_a": 1, "seed_b": 2},
            results={"rows": 12},
        )
        out = tmp_path / "run.json"
        write_run_manifest(out, manifest)
        assert load_run_manifest(out) == manifest
        twice = tmp_path / "run2.json"
        write_run_manifest(twice, load_run_manifest(out))
        assert out.read_bytes() == twice.read_bytes()

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_run_manifest_rejects_non_finite_floats(self, tmp_path, value):
        manifest = RunManifest(
            tool="scenefuse", version="0.1.0", command="train-eval",
            params={}, results={"final_train_loss": value},
        )
        with pytest.raises(ValueError):
            write_run_manifest(tmp_path / "run.json", manifest)

    @pytest.mark.parametrize("loader", [load_cleaning_report, load_run_manifest])
    def test_bad_json_names_its_line(self, tmp_path, loader):
        bad = tmp_path / "report.json"
        bad.write_text('{\n  "tool": "scenefuse",\n  "version" "0.1.0"\n}\n')
        message = f"{bad}:3: bad JSON: Expecting ':' delimiter"
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            loader(bad)

    @pytest.mark.parametrize("loader", [load_cleaning_report, load_run_manifest])
    @pytest.mark.parametrize("text", ["{}", "[]", "1", '"x"', "null", "{"])
    def test_reports_that_are_not_the_expected_object_name_the_file(self, tmp_path, loader, text):
        bad = tmp_path / "report.json"
        bad.write_text(text)
        with pytest.raises(ValueError, match=r"report\.json:"):
            loader(bad)

    @given(
        loader=st.sampled_from([load_cleaning_report, load_run_manifest]),
        field=st.sampled_from([None, *CLEANING_REPORT, *RUN_MANIFEST]),
        value=JSON_VALUES,
    )
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_loads_or_names_the_file(self, tmp_path_factory, loader, field, value):
        valid = CLEANING_REPORT if loader is load_cleaning_report else RUN_MANIFEST
        doc = value if field is None else {**valid, field: value}
        path = tmp_path_factory.getbasetemp() / "report.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            loaded = loader(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)
            return
        for key, expected in valid.items():
            got = getattr(loaded, key)
            assert type(got) is type(expected)
            if key == field:  # compared as JSON text: a NaN inside never equals itself
                assert json.dumps(got) == json.dumps(value)
        if loader is load_cleaning_report:
            assert all(type(n) is int for n in loaded.removed_per_image.values())


# every character at which str.splitlines breaks a line
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# per keyed writer: (write one key, load it back)
KEYED_WRITERS = {
    "features": (
        lambda path, key: write_features(path, RowTable([key, "z"], [[1.0], [2.0]])),
        lambda path: list(load_features(path)),
    ),
    "feature-rows": (
        lambda path, key: write_feature_tables(
            [(path, lambda start, stop: np.array([[1.0], [2.0]])[start:stop])], [key, "z"], 1
        ),
        lambda path: list(load_features(path)),
    ),
    "embeddings": (
        lambda path, key: write_embeddings(path, RowTable([key, "z"], [[1.0], [2.0]])),
        lambda path: list(load_embeddings(path)),
    ),
    "model": (
        lambda path, key: save_model(path, init_model(1, [key, "z"], seed=0)),
        lambda path: load_model(path).class_names,
    ),
    "manifest-id": (
        lambda path, key: write_manifest(path, Manifest((ManifestRow(key, "cat", "train"),))),
        lambda path: [load_manifest(path).rows[0].image_id],
    ),
    "manifest-label": (
        lambda path, key: write_manifest(path, Manifest((ManifestRow("a", key, "train"),))),
        lambda path: [load_manifest(path).rows[0].label],
    ),
}
SEPARATORS = {"features": "\t", "feature-rows": "\t", "embeddings": " ", "model": "\t",
              "manifest-id": "\t", "manifest-label": "\t"}


class TestKeys:
    @pytest.mark.parametrize(
        "kind, key",
        [
            (kind, key)
            for kind in sorted(KEYED_WRITERS)
            for key in [
                "", f"a{SEPARATORS[kind]}b", *(f"a{b}b" for b in LINE_BREAKS), "a\n", "\n",
                # lone surrogates, which no UTF-8 file can hold
                "a\ud800", "\udfff", "a\udcffb",
            ]
            if key or not kind.startswith("manifest")  # ManifestRow rejects an empty field itself
        ],
    )
    def test_a_key_its_loader_would_split_raises_and_leaves_no_file(self, tmp_path, kind, key):
        path = tmp_path / "out.txt"
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            KEYED_WRITERS[kind][0](path, key)
        assert not path.exists()

    # any characters, lone surrogates included
    @given(
        kind=st.sampled_from(sorted(KEYED_WRITERS)),
        key=st.text(st.characters(exclude_categories=()), min_size=1, max_size=4),
    )
    @settings(max_examples=400, deadline=None)
    def test_a_written_key_loads_back_unchanged(self, tmp_path_factory, kind, key):
        write, load = KEYED_WRITERS[kind]
        path = tmp_path_factory.getbasetemp() / f"keyed-{kind}.txt"
        path.unlink(missing_ok=True)
        try:
            write(path, key)
        except ValueError:
            assert not path.exists()
            return
        assert load(path)[0] == key


class TestThreads:
    def test_loads_in_threads_leave_the_warning_filters_alone(self, tmp_path):
        # a load that swapped the process-wide filter list (warnings.catch_warnings) could,
        # with threads loading at once, leave a filter of another thread in place
        path, rng = tmp_path / "features.txt", np.random.default_rng(0)
        write_features(path, RowTable([f"img-{i}" for i in range(4000)], rng.random((4000, 8))))
        serial, filters = load_features(path), list(warnings.filters)
        tables, start = [], threading.Barrier(4)

        def load():
            start.wait()
            for _ in range(5):
                tables.append(load_features(path))

        threads = [threading.Thread(target=load) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert warnings.filters == filters
        assert len(tables) == 20
        assert all(table == serial for table in tables)

    @pytest.mark.parametrize("kind", ["embeddings", "features"])  # a model row has 2+ values
    def test_a_block_of_empty_values_is_unparseable_and_warns_of_nothing(self, tmp_path, kind):
        # one value per row, every one empty: np.loadtxt would skip each row and warn
        path = tmp_path / "table.txt"
        loader, first, _ = FLOAT_TABLES[kind]
        path.write_text(_table_text(kind, [[""], [""]]), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"table\.txt:{first + 1}: unparseable float"):
                loader(path)
