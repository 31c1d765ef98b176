"""File formats: feature tables, lexicons, transcriptions, manifests, models, reports.

Writers emit floats as shortest round-trip decimals (model files use 17
significant digits), so every format reads back to an equal in-memory
structure and rewriting produces byte-identical files.
"""

from __future__ import annotations

import codecs
import dataclasses
import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import _split
from .classifier import ClassifierModel
from .data import CleaningReport, Manifest, ManifestRow, VqaRecord
from .text import RowTable, TranscribedWord, TranscriptionRecord


# every character at which str.splitlines breaks a line
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _not_utf8(path, exc: UnicodeDecodeError, before: str = "", lines_before: int = 0) -> ValueError:
    """``path:LINE: not UTF-8 (byte 0x.. at column C)`` for the bad byte of ``exc``.

    ``exc.object`` is the undecoded input, and ``before`` the decoded text that
    precedes it on line ``lines_before + 1``.  LINE counts as ``str.splitlines``
    does, as in every loader message; C counts characters from 1.
    """
    lines = (before + exc.object[: exc.start].decode("utf-8") + "?").splitlines()
    byte, col = exc.object[exc.start], len(lines[-1])
    message = f"not UTF-8 (byte 0x{byte:02x} at column {col})"
    return ValueError(f"{path}:{lines_before + len(lines)}: {message}")


def _read_text(path) -> str:
    """The UTF-8 text of ``path``, for the one-document JSON reports."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # read_text decodes the whole file in one call
        raise _not_utf8(path, exc) from None


def _lines(path, read=None) -> Iterator[str]:
    """The lines of ``path`` as ``str.splitlines`` gives them, decoded a chunk at a time.

    Each chunk's last line is carried into the next, so a line, a ``\\r\\n`` or a UTF-8
    sequence cut by a chunk boundary is joined again.  A bad byte raises the ``_not_utf8``
    message.  ``read(n)``, when given, supplies the bytes (``_split.CHUNK`` at a time) in
    place of ``path``, which then only names the file in messages.
    """
    if read is None:
        with open(path, "rb") as fh:
            yield from _lines(path, fh.read)
        return
    decoder = codecs.getincrementaldecoder("utf-8")()
    carry, done, final = "", 0, False
    while not final:
        data = read(_split.CHUNK)
        final = not data
        try:
            pieces = decoder.decode(data, final=final).splitlines(keepends=True)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc, carry, done) from None
        del data  # while the lines are read, only they are held
        if carry:  # joined to the first piece alone, where a "\r" + "\n" makes one break
            pieces[:1] = (carry + "".join(pieces[:1])).splitlines(keepends=True)
        carry = "" if final or not pieces else pieces.pop()
        done += len(pieces)
        # a piece is a line and the one break that ends it, and lines hold no break
        yield from (piece.rstrip(_LINE_BREAKS) for piece in pieces)
        del pieces  # before the next chunk is read


@contextmanager
def _reading(path, read=None) -> Iterator[Iterator[str]]:
    """The lines of ``path`` (``_lines(path, read)``), for a loader that stops at its first fault.

    A ``ValueError`` raised in the block waits until the rest of the file has
    been decoded, so a bad byte anywhere in the file outranks it, as when the
    whole file was decoded before any line was read.
    """
    lines = _lines(path, read)
    try:
        yield lines
    except ValueError:
        for _ in lines:
            pass
        raise
    finally:
        lines.close()


def _parse_floats(parts: Sequence[str], path, lineno: int) -> np.ndarray:
    try:
        arr = np.array([float(p) for p in parts], dtype=float)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: unparseable float") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}:{lineno}: non-finite value")
    return arr


def _block_values(path, first: int, blobs: list[str], width: int) -> np.ndarray:
    """The ``(len(blobs), width)`` values of the rows ``blobs``, the first on line ``first``.

    One ``np.loadtxt`` call parses them, with the correctly rounded routine ``float()``
    uses, unless a row is empty (it would skip the row) or holds a U+001F (it would strip
    it as whitespace).  Where it is not called, rejects the block or meets a non-finite
    value, ``_parse_floats`` reads the block row by row instead, so all of ``float()``'s
    syntax (``1_0``, non-ASCII digits) is taken and the first bad row raises.
    """
    # with no empty row, np.loadtxt has no "input contained no data" to warn of
    if all(blob and "\x1f" not in blob for blob in blobs):
        try:
            matrix = np.loadtxt(blobs, dtype=float, delimiter=" ", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if matrix.shape == (len(blobs), width) and np.isfinite(matrix).all():
                return matrix
    return np.array([_parse_floats(b.split(" "), path, n) for n, b in enumerate(blobs, first)])


class _Matrix:
    """The ``(rows, width)`` matrix that a load fills, allocated when rows first arrive.

    Only a parsed row shows the header's width to be real, so a huge header
    allocates nothing before one does.  It holds no more than ``bound`` rows and
    no more than a file of ``size`` bytes can: a row takes ``2 * width`` bytes or
    more.  A pipe states no size (``size`` None), so its matrix doubles as rows arrive.
    """

    def __init__(self, bound: int, width: int, size: int | None):
        self.bound = bound if size is None else min(bound, size // (2 * width))
        self.least = 0 if size is None else self.bound  # rows of the first allocation
        self.matrix, self.filled = np.empty((0, width)), 0

    def take(self, rows: int) -> np.ndarray:
        """The next ``rows`` rows, to be filled by the caller (fewer past ``bound``)."""
        if self.filled + rows > len(self.matrix) < self.bound:  # none yet, or a pipe's is full
            more = max(self.least, 2 * self.filled, self.filled + rows)
            grown = np.empty((min(more, self.bound), self.matrix.shape[1]))
            grown[: self.filled] = self.matrix[: self.filled]
            self.matrix = grown
        self.filled += rows
        return self.matrix[self.filled - rows : self.filled]

    def put(self, values: np.ndarray) -> None:
        self.take(len(values))[:] = values

    def result(self) -> np.ndarray:
        return self.matrix[: self.filled]


def _scan(path, lines: Iterable[str], first: int, width: int, check_row, keep, keys, put):
    """Check and parse ``lines``, the first on line ``first``, one ``_split`` block at a time.

    Each row goes through ``check_row``, which splits it into its key and values, as it
    is read, and each block's values through ``_block_values``; ``put`` takes the values
    of a block's rows kept by ``keep`` (all without it).  Stops at the first fault in line
    order and returns the rows read (the faulty one included) and that fault, or None.
    """
    read, fault = 0, None
    while fault is None:
        lineno, blobs, wanted = first + read, [], []
        for line in islice(lines, _split.block_rows(width)):
            read += 1
            try:
                key, blob = check_row(line, first + read - 1, width, keys)
            except ValueError as exc:
                fault = exc
                break
            if keep is None or key in keep:
                wanted.append(len(blobs))
            blobs.append(blob)
        if not blobs:
            break
        try:
            block = _block_values(path, lineno, blobs, width)
        except ValueError as exc:
            return read, exc  # its line comes before any fault that check_row found
        put(block[wanted])
    return read, fault


def _float_rows(
    path, head: int, read_head, check_row, keep: Collection[str] | None = None
) -> tuple[list, np.ndarray]:
    """The keys and the ``(rows, width)`` values of the rows after the ``head`` header lines.

    ``read_head(path, lines)`` checks the header lines (fewer in a shorter file) and returns
    ``(count, width, miscount)``, where ``miscount(n)`` is the message for a file of ``n``
    rows.  ``check_row(line, lineno, width, keys)`` raises ``ValueError`` on a row whose
    structure is wrong, records its key (if any) in ``keys`` and returns its key and values
    text; only the rows whose key is in ``keep`` are kept (all without it).  Lines count from 1.

    ``_ranges`` reads the file, opened once, split by ``_split.parts`` if it is regular; a
    split load in doubt (``_Doubt``) reads it again in one range from byte 0.  Faults win in
    this order: a bad byte anywhere, the header, the header's row count, then the first bad row.
    """
    with open(path, "rb") as fh:
        size = _split.regular_size(fh.fileno())
        args = path, fh, size, head, read_head, check_row, keep
        try:
            keys, matrix = _ranges(size is not None, *args)
        except _Doubt:
            keys, matrix = _ranges(False, *args)
    return [key for key in keys if keep is None or key in keep], matrix


class _Doubt(ValueError):
    """A split load whose ranges may not show the whole file's first fault."""


def _ranges(split: bool, path, fh, size, head, read_head, check_row, keep) -> tuple:
    """``_float_rows`` over ``fh``, of ``size`` bytes (None: a pipe), split only if ``split``.

    The parent reads the header through ``_reading``, by ``os.pread`` from byte 0
    (``fh.read`` for a pipe).  Then ``_split.parts`` of the header's values decides the
    ranges, cut at line ends past the bytes read.  The parent reads on to the end of the
    first range, holding its first bad row while the rest is counted; a forked child checks
    and parses each other range through ``_scan`` by ``os.pread`` and hands its kept rows,
    as float64 bytes in a temp file, then its rows read and keys, to the parent's matrix
    (``readinto``).  A fault in the parent's range, a failed child or a key seen in two
    ranges raises ``_Doubt``.  Returns every key read, in file order, and the kept rows.
    """
    fd = fh.fileno()
    first = _split.Span(fd, 0, size) if size is not None else fh
    with _reading(path, first.read) as lines, _split.Forks() as forks:
        count, width, miscount = read_head(path, list(islice(lines, head)))
        ends = []
        if split and (parts := _split.parts(count * width)) > 1:
            ends = _split.line_ends(fd, first.start, size, parts)
            first.end = ends[0]
        rows = _Matrix(count if keep is None else min(count, len(keep)), width, size)
        keys: dict[str, None] = {}

        def scan(out, start: int, end: int) -> None:
            part, seen = _lines(path, _split.Span(fd, start, end).read), {}
            read, fault = _scan(path, part, 1, width, check_row, keep, seen, out.write)
            if fault is not None:
                raise fault
            meta = json.dumps([read, list(seen)]).encode()
            out.write(meta + len(meta).to_bytes(8, "little"))

        started = [forks.start(scan, start, end) for start, end in zip(ends, ends[1:])]
        # a row past the header's count is only counted
        read, fault = _scan(
            path, islice(lines, count), head + 1, width, check_row, keep, keys, rows.put
        )
        read += sum(1 for _ in lines)
        for index in started:
            if fault is not None or (out := forks.result(index)) is None:
                raise _Doubt(f"{path}: a range was not read")
            meta_at = out.seek(-8, os.SEEK_END)
            length = int.from_bytes(out.read(8), "little")
            written = out.seek(meta_at - length)  # the bytes of the rows before the report
            part_read, part_keys = json.loads(out.read(length))
            out.seek(0)
            read += part_read
            known, target = len(keys), rows.take(written // (8 * width))
            keys.update(dict.fromkeys(part_keys))
            # past the header's count, take() may give fewer rows: the count check fails
            if len(keys) != known + len(part_keys) or out.readinto(target) != target.nbytes:
                raise _Doubt(f"{path}: the ranges disagree")
    if read != count:
        raise ValueError(miscount(read))
    if fault is not None:
        raise fault
    return keys, rows.result()


_SEPARATOR_NAMES = {"\t": "tab", " ": "space"}


def _check_keys(keys: Iterable[str], sep: str, what: str) -> None:
    """Reject a key that its loader would read differently: empty, holding ``sep``, or a line break.

    A line break is any character at which ``str.splitlines`` (and so every loader)
    splits a line.  A key must also encode as UTF-8: a lone surrogate does not.
    """
    for key in keys:
        if key.splitlines() != [key] or sep in key:
            raise ValueError(
                f"{what} {key!r} must be non-empty, with no {_SEPARATOR_NAMES[sep]} "
                "and no line break"
            )
        try:
            key.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{what} {key!r} is not valid UTF-8 text") from None


def _check_distinct(keys: Iterable[str], what: str) -> None:
    """Raise ``ValueError`` naming the first key of ``keys`` that comes a second time."""
    seen: set[str] = set()
    for key in keys:
        if key in seen:
            raise ValueError(f"{what} {key!r} repeats")
        seen.add(key)


def _write_rows(path, keys: Iterable[str], dim: int, rows, sep: str, kind: str, key_name: str):
    """Write a ``<count> <dim>`` header, then one ``key + sep + values`` line per row.

    ``rows(start, stop)`` is ``write_feature_rows``'s producer.  A bad or repeated key,
    then a non-finite row, raises before the file is opened.  Values are ``repr`` of
    Python floats, the shortest decimal that reads back to the same float64.

    ``_split.parts`` of the table's values gives its number of runs of rows.  The parent
    streams the header and the first run to the file; a forked child builds and writes
    each other run to a temp file, which the parent then copies in order.  A run whose
    child fails is written by the parent, so the bytes never depend on the split.
    """
    keys = list(keys)
    _check_keys(keys, sep, f"{kind} {key_name}")
    _check_distinct(keys, f"{kind} {key_name}")
    _check_finite(keys, dim, rows, kind)
    parts = _split.parts(len(keys) * dim)
    bounds = [len(keys) * part // parts for part in range(parts + 1)]

    def lines(start: int, end: int) -> Iterator[str]:
        for block in _split.blocks(start, end, dim):
            for key, row in zip(keys[block], rows(block.start, block.stop)):
                yield key + sep + " ".join(map(repr, row.tolist())) + "\n"
            del row  # a view that holds the block while the producer builds the next

    def write(out, start: int, end: int) -> None:
        with open(out.fileno(), "w", encoding="utf-8", closefd=False) as text:
            text.writelines(lines(start, end))

    runs = list(zip(bounds[1:], bounds[2:]))
    with open(path, "w", encoding="utf-8") as fh, _split.Forks() as forks:
        started = [forks.start(write, start, end) for start, end in runs]
        fh.write(f"{len(keys)} {dim}\n")
        fh.writelines(lines(0, bounds[1]))
        for index, (start, end) in zip(started, runs):
            out = forks.result(index)
            if out is None:
                fh.writelines(lines(start, end))
            else:
                fh.flush()  # before bytes go to the buffer under it
                shutil.copyfileobj(out, fh.buffer, _split.CHUNK)


def _check_finite(keys: Sequence[str], dim: int, rows, kind: str) -> None:
    """Raise ``ValueError`` naming the key of the first row of ``rows`` that is not all finite.

    ``rows(start, stop)`` is asked for one ``_split`` block at a time, and each block
    is let go before the next is asked for, so no more than a block of the table, nor
    a mask of the whole table, is held.  A block of another shape than
    ``(stop - start, dim)`` raises too.
    """
    for block in _split.blocks(0, len(keys), dim):
        values = rows(block.start, block.stop)
        if values.shape != (block.stop - block.start, dim):
            raise ValueError(f"rows {block.start} to {block.stop} came as {values.shape}, not "
                             f"{(block.stop - block.start, dim)}")
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            key = keys[block.start + int(np.argmin(finite))]
            raise ValueError(f"{kind} for {key!r} has non-finite values")
        del values  # before the producer builds the next


def _slices(matrix: np.ndarray):
    """The producer ``rows(start, stop)`` of ``matrix``: its rows ``start`` to ``stop``."""
    return lambda start, stop: matrix[start:stop]


def _write_lines(path, lines: Iterable[str]) -> None:
    """Open ``path`` once and stream ``lines`` to it, each followed by a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def _write_json(path, record) -> None:
    """Write the dataclass ``record`` as one sorted, indented JSON object; NaN and inf raise."""
    text = json.dumps(dataclasses.asdict(record), indent=2, sort_keys=True, allow_nan=False)
    _write_lines(path, [text])


def _json(path, text: str, line: int = 1):
    """The JSON value of ``text``, which starts on line ``line`` of ``path``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{line + exc.lineno - 1}: bad JSON: {exc.msg}") from None


def _header_ints(path, line: str, form: str) -> tuple[int, int]:
    """The two integers of the header ``line``, which must have the shape ``form``."""
    head = line.split()
    if len(head) != 2:
        raise ValueError(f"{path}:1: header must be {form}")
    try:
        return int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"{path}:1: header must hold two integers") from None


def _count_dim_header(path, lines: list[str]):
    """``_float_rows``'s ``read_head`` for a ``<count> <dim>`` header line."""
    if not lines:
        raise ValueError(f"{path}:1: empty file, expected '<count> <dim>' header")
    count, dim = _header_ints(path, lines[0], "'<count> <dim>'")
    if count < 0 or dim < 1:
        raise ValueError(f"{path}:1: bad header values count={count} dim={dim}")
    return count, dim, lambda rows: f"{path}: header count {count} but {rows} data lines"


# -- embedding table: "<count> <dim>" then "<token> <v1> ... <vdim>" ----------


def load_embeddings(path, vocabulary: Collection[str] | None = None) -> RowTable:
    """The lexicon at ``path``; given ``vocabulary``, only the rows of its tokens, in file order.

    Every row is read and checked either way, so a fault in a row that is not kept
    still raises, with the message the full load gives.  A lexicon of no rows is
    rejected at its header.
    """

    def check_row(line: str, lineno: int, dim: int, tokens: dict[str, None]) -> tuple:
        fields = line.count(" ") + 1
        if fields != dim + 1:
            raise ValueError(
                f"{path}:{lineno}: expected token plus {dim} values, got {fields} fields"
            )
        token, _, blob = line.partition(" ")
        if not token:
            raise ValueError(f"{path}:{lineno}: empty token")
        if token in tokens:
            raise ValueError(f"{path}:{lineno}: duplicate token {token!r}")
        tokens[token] = None
        return token, blob

    def read_head(path, lines: list[str]):
        count, dim, miscount = _count_dim_header(path, lines)
        if not count:
            raise ValueError(f"{path}:1: embedding table is empty")
        return count, dim, miscount

    tokens, matrix = _float_rows(path, 1, read_head, check_row, vocabulary)
    return RowTable(tokens, matrix)


def write_embeddings(path, table: RowTable) -> None:
    _write_rows(path, table, table.dim, _slices(table.matrix), " ", "embedding", "token")


# -- feature file: "<count> <dim>" then "<image_id>\t<v1> <v2> ..." -----------


def _in_order(keys: list, matrix: np.ndarray, position: Mapping[str, int]) -> list:
    """``keys`` sorted by ``position``; the rows of ``matrix`` move in place to match.

    Row ``i`` of the result is row ``source[i]`` of the input.  Each cycle of that
    permutation is followed with one row held aside, so no second matrix is made.
    """
    source = sorted(range(len(keys)), key=lambda row: position[keys[row]])
    done = [False] * len(keys)
    for start, first in enumerate(source):
        if done[start] or first == start:
            continue
        held, at = matrix[start].copy(), start
        while source[at] != start:
            matrix[at] = matrix[source[at]]
            done[at], at = True, source[at]
        matrix[at] = held
        done[at] = True
    return [keys[row] for row in source]


def load_features(path, order: Sequence[str] | None = None) -> RowTable:
    """The feature file at ``path``; given distinct ids ``order``, only their rows, in that order.

    Every row is read and checked either way, so a fault in a row that is not kept
    still raises, with the message the full load gives.  An id of ``order`` that the
    file lacks is left out.  The kept rows are placed as they are read, in file order,
    then moved in place into the order of ``order``.
    """
    position = None
    if order is not None:
        _check_distinct(order, "order id")
        position = {image_id: at for at, image_id in enumerate(order)}

    def check_row(line: str, lineno: int, dim: int, ids: dict[str, None]) -> tuple:
        if line.count("\t") != 1:
            raise ValueError(f"{path}:{lineno}: expected '<image_id>\\t<values>'")
        image_id, _, blob = line.partition("\t")
        if not image_id:
            raise ValueError(f"{path}:{lineno}: empty image_id")
        if image_id in ids:
            raise ValueError(f"{path}:{lineno}: duplicate image_id {image_id!r}")
        fields = blob.count(" ") + 1
        if fields != dim:
            raise ValueError(f"{path}:{lineno}: expected {dim} values, got {fields}")
        ids[image_id] = None
        return image_id, blob

    ids, matrix = _float_rows(path, 1, _count_dim_header, check_row, position)
    if position is not None:
        ids = _in_order(ids, matrix, position)
    return RowTable(ids, matrix)


def write_features(path, features: RowTable) -> None:
    _write_rows(path, features, features.dim, _slices(features.matrix), "\t", "feature", "id")


def write_feature_rows(path, keys: Iterable[str], dim: int, rows) -> None:
    """Write the feature file of ``keys``, whose ``dim`` values ``rows`` produces on demand.

    ``rows(start, stop)`` returns the ``(stop - start, dim)`` values of the rows of
    ``keys[start:stop]``.  It is asked for at most ``_split.block_rows(dim)`` rows at a
    time, every row twice (once to check before the file is opened, once to write it),
    and must give the same values each time; a forked child may make the second call.
    So no process holds more than one block of the table.  The bytes, messages and fault
    order are those of ``write_features`` on the same rows.
    """
    _write_rows(path, keys, dim, rows, "\t", "feature", "id")


# -- transcriptions: JSON lines {"image_id":…, "words":[{"token":…, "conf":…}]}


def _confidence(value) -> float:
    # JSON true/false and numeric strings would otherwise pass float()
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"conf must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ValueError(f"conf {value} is out of range") from None


def _string(value, field: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string, got {value!r}")
    return value


def load_transcriptions(path) -> dict[str, TranscriptionRecord]:
    records: dict[str, TranscriptionRecord] = {}
    # all words share one str per distinct token and one float per distinct non-zero confidence
    share = {}.setdefault

    def word(w) -> TranscribedWord:
        token, conf = _string(w["token"], "token"), _confidence(w["conf"])
        # a zero is kept as read: -0.0 == 0.0 would hand back the other sign
        return TranscribedWord(share(token, token), share(conf, conf) if conf else conf)

    with _reading(path) as lines:
        for lineno, line in enumerate(lines, start=1):
            obj = _json(path, line, lineno)
            try:
                image_id = obj["image_id"]
                words = tuple(map(word, obj["words"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad transcription record: {exc}") from None
            if not isinstance(image_id, str) or not image_id:
                raise ValueError(f"{path}:{lineno}: image_id must be a non-empty string")
            if image_id in records:
                raise ValueError(f"{path}:{lineno}: duplicate image_id {image_id!r}")
            records[image_id] = TranscriptionRecord(image_id=image_id, words=words)
    return records


def write_transcriptions(path, records: Mapping[str, TranscriptionRecord]) -> None:
    _write_lines(path, (
        json.dumps({"image_id": r.image_id,
                    "words": [{"token": w.token, "conf": w.confidence} for w in r.words]})
        for r in records.values()
    ))


# -- manifest: TSV "image_id\tlabel\tsplit" -----------------------------------


def load_manifest(path) -> Manifest:
    rows = []
    seen: set[str] = set()
    share = {}.setdefault  # one str per distinct label or split for all the rows
    with _reading(path) as lines:
        for lineno, line in enumerate(lines, start=1):
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'image_id\\tlabel\\tsplit'")
            image_id, label, split = fields
            if image_id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate image_id {image_id!r}")
            seen.add(image_id)
            try:
                rows.append(ManifestRow(image_id, share(label, label), share(split, split)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return Manifest(rows=tuple(rows))


def write_manifest(path, manifest: Manifest) -> None:
    fields = [(row.image_id, row.label, row.split) for row in manifest.rows]
    _check_keys(chain.from_iterable(fields), "\t", "manifest field")
    _write_lines(path, map("\t".join, fields))


# -- VQA: JSON lines {"image_id":…, "question":…, "answer":…} -----------------


def load_vqa(path) -> list[VqaRecord]:
    records = []
    with _reading(path) as lines:
        for lineno, line in enumerate(lines, start=1):
            obj = _json(path, line, lineno)
            try:
                record = VqaRecord(
                    *(_string(obj[f], f) for f in ("image_id", "question", "answer"))
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad VQA record: {exc}") from None
            records.append(record)
    return records


def write_vqa(path, records: Sequence[VqaRecord]) -> None:
    _write_lines(path, (
        json.dumps({"image_id": r.image_id, "question": r.question, "answer": r.answer})
        for r in records
    ))


# -- classifier model: "C D" / names / C rows of D+1 floats at 17 digits ------


def save_model(path, model: ClassifierModel) -> None:
    _check_keys(model.class_names, "\t", "class name")
    matrix = np.column_stack([model.W, model.b])
    _check_finite(model.class_names, matrix.shape[1], _slices(matrix), "model row")
    rows = (" ".join(f"{v:.17g}" for v in (*row, bias)) for row, bias in zip(model.W, model.b))
    _write_lines(path, [f"{model.n_classes} {model.dim}", "\t".join(model.class_names), *rows])


def load_model(path) -> ClassifierModel:
    names: list[str] = []

    def read_head(path, lines: list[str]):
        if len(lines) < 2:
            raise ValueError(f"{path}:1: truncated model file")
        n_classes, dim = _header_ints(path, lines[0], "'C D'")
        if n_classes < 2 or dim < 1:
            raise ValueError(
                f"{path}:1: bad header values C={n_classes} D={dim}, need C >= 2 and D >= 1"
            )
        names[:] = lines[1].split("\t")
        if len(names) != n_classes:
            raise ValueError(f"{path}:2: expected {n_classes} class names, got {len(names)}")
        seen: set[str] = set()
        for name in names:
            if not name or name in seen:
                what = f"duplicate class name {name!r}" if name else "empty class name"
                raise ValueError(f"{path}:2: {what}")
            seen.add(name)
        return n_classes, dim + 1, lambda rows: (
            f"{path}: expected {n_classes} weight rows, got {rows}"
        )

    def check_row(line: str, lineno: int, width: int, _) -> tuple:
        fields = line.count(" ") + 1
        if fields != width:
            raise ValueError(f"{path}:{lineno}: expected {width} values, got {fields}")
        return None, line  # a weight row has no key: its values are the whole line

    _, values = _float_rows(path, 2, read_head, check_row)
    dim = values.shape[1] - 1
    return ClassifierModel(W=values[:, :dim].copy(), b=values[:, dim].copy(), class_names=names)


# -- cleaning report (JSON) ---------------------------------------------------


def write_cleaning_report(path, report: CleaningReport) -> None:
    _write_json(path, report)


def _load_json_object(path, fields: Mapping[str, type]) -> dict:
    """The top-level JSON object of ``path``, holding at least ``fields`` with their types."""
    obj = _json(path, _read_text(path))
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    for key, kind in fields.items():
        if key not in obj:
            raise ValueError(f"{path}: missing key {key!r}")
        _check_type(path, key, obj[key], kind)
    return obj


def _check_type(path, name: str, value, kind: type) -> None:
    # JSON true/false would otherwise pass as the integers 1/0
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{path}: {name} must be {kind.__name__}, got {value!r}")


_CLEANING_FIELDS = {
    "total_words": int,
    "kept_words": int,
    "removed_words": int,
    "emptied_records": int,
    "removed_per_image": dict,
}


def load_cleaning_report(path) -> CleaningReport:
    obj = _load_json_object(path, _CLEANING_FIELDS)
    for image_id, removed in obj["removed_per_image"].items():
        _check_type(path, f"removed_per_image[{image_id!r}]", removed, int)
    return CleaningReport(**{key: obj[key] for key in _CLEANING_FIELDS})


# -- run manifest (JSON): config echo + results + tool version ----------------


@dataclass(frozen=True)
class RunManifest:
    tool: str
    version: str
    command: str
    params: dict
    results: dict


def write_run_manifest(path, manifest: RunManifest) -> None:
    _write_json(path, manifest)


_RUN_FIELDS = {"tool": str, "version": str, "command": str, "params": dict, "results": dict}


def load_run_manifest(path) -> RunManifest:
    obj = _load_json_object(path, _RUN_FIELDS)
    return RunManifest(**{key: obj[key] for key in _RUN_FIELDS})
