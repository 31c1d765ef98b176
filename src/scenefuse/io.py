"""File formats: feature tables, lexicons, transcriptions, manifests, models, reports.

Writers emit floats as shortest round-trip decimals (model files use 17
significant digits), so every format reads back to an equal in-memory
structure and rewriting produces byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .classifier import ClassifierModel
from .data import CleaningReport, Manifest, ManifestRow, VqaRecord
from .text import RowTable, TranscribedWord, TranscriptionRecord


def _parse_floats(parts: Sequence[str], path, lineno: int) -> np.ndarray:
    try:
        arr = np.array([float(p) for p in parts], dtype=float)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: unparseable float") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}:{lineno}: non-finite value")
    return arr


def _parse_values(path, lines: list[str], start: int, stop: int, dim: int, sep) -> np.ndarray:
    """The ``(stop - start, dim)`` values of ``lines[start:stop]``, their fields already counted.

    A row's values follow its first ``sep`` (the whole row when ``sep`` is None).
    One ``np.loadtxt`` call parses every row with the same correctly rounded
    routine ``float()`` uses, fed by a generator so that no copy of the values is
    kept.  Whatever it rejects, or reads differently (a blank row it skips, a
    U+001F it strips as whitespace), goes line by line through ``float()``
    instead, which takes ``float()``'s full syntax (``1_0``, non-ASCII digits)
    and names the first bad line.
    """

    def blobs():
        rows = islice(lines, start, stop)
        return rows if sep is None else (line.partition(sep)[2] for line in rows)

    count = stop - start
    matrix = None
    if count and not any("\x1f" in line for line in islice(lines, start, stop)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # "input line contained no data"
                matrix = np.loadtxt(
                    blobs(), dtype=float, delimiter=" ", comments=None, ndmin=2, max_rows=count
                )
        except (ValueError, UserWarning):
            pass  # read line by line below
    if matrix is None or matrix.shape != (count, dim):
        matrix = np.empty((count, dim))
        for row, blob in enumerate(blobs()):
            matrix[row] = _parse_floats(blob.split(" "), path, start + row + 1)
        return matrix
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}:{start + bad[0] + 1}: non-finite value")
    return matrix


def _parse_rows(path, lines: list[str], first: int, dim: int, sep, check_row) -> np.ndarray:
    """The ``(len(lines) - first, dim)`` values of ``lines[first:]``; line numbers start at 1.

    ``check_row(line, lineno)`` raises ``ValueError`` on a row whose structure is
    wrong, and may record the row's key.  Errors come out in line order, as a
    line-by-line reader gives them: a structural fault raises only after the
    values of every earlier row have parsed.
    """
    for row in range(first, len(lines)):
        try:
            check_row(lines[row], row + 1)
        except ValueError:
            _parse_values(path, lines, first, row, dim, sep)
            raise
    return _parse_values(path, lines, first, len(lines), dim, sep)


_SEPARATOR_NAMES = {"\t": "tab", " ": "space"}


def _check_keys(keys: Iterable[str], sep: str, what: str) -> None:
    """Reject a key that its loader would read differently: empty, holding ``sep``, or a line break.

    A line break is any character at which ``str.splitlines`` (and so every loader)
    splits a line.
    """
    for key in keys:
        if key.splitlines() != [key] or sep in key:
            raise ValueError(
                f"{what} {key!r} must be non-empty, with no {_SEPARATOR_NAMES[sep]} "
                "and no line break"
            )


def _write_table(path, table: RowTable, sep: str, kind: str, key_name: str) -> None:
    """Write a ``<count> <dim>`` header, then one ``key + sep + values`` line per row.

    A bad key or a non-finite row raises before the file is opened.  Values are ``repr``
    of Python floats, the shortest decimal that reads back to the same float64.
    """
    _check_keys(table, sep, f"{kind} {key_name}")
    finite = np.isfinite(table.matrix).all(axis=1)
    if not finite.all():
        key = next(islice(table, int(np.argmin(finite)), None))
        raise ValueError(f"{kind} for {key!r} has non-finite values")
    rows = (key + sep + " ".join(map(repr, row.tolist())) for key, row in zip(table, table.matrix))
    _write_lines(path, chain([f"{len(table)} {table.dim}"], rows))


def _read_text(path) -> str:
    """UTF-8 text of ``path``; a bad byte raises ``path:LINE: not UTF-8 (byte 0x.. at column C)``.

    LINE counts as ``str.splitlines`` does, as in every loader message; C counts characters
    from 1.  Both come from the bytes the failed decode holds: ``read_text`` decodes the
    whole file in one call, so ``exc.start`` is the bad byte's offset in the file.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        lines = (exc.object[: exc.start].decode("utf-8") + "?").splitlines()
        byte, col = exc.object[exc.start], len(lines[-1])
        message = f"not UTF-8 (byte 0x{byte:02x} at column {col})"
        raise ValueError(f"{path}:{len(lines)}: {message}") from None


def _read_lines(path) -> list[str]:
    return _read_text(path).splitlines()


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


def _parse_count_dim_header(lines: list[str], path) -> tuple[int, int]:
    if not lines:
        raise ValueError(f"{path}:1: empty file, expected '<count> <dim>' header")
    count, dim = _header_ints(path, lines[0], "'<count> <dim>'")
    if count < 0 or dim < 1:
        raise ValueError(f"{path}:1: bad header values count={count} dim={dim}")
    if len(lines) - 1 != count:
        raise ValueError(f"{path}: header count {count} but {len(lines) - 1} data lines")
    return count, dim


# -- embedding table: "<count> <dim>" then "<token> <v1> ... <vdim>" ----------


def load_embeddings(path) -> RowTable:
    lines = _read_lines(path)
    _, dim = _parse_count_dim_header(lines, path)
    index: dict[str, int] = {}

    def check_row(line: str, lineno: int) -> None:
        fields = line.count(" ") + 1
        if fields != dim + 1:
            raise ValueError(
                f"{path}:{lineno}: expected token plus {dim} values, got {fields} fields"
            )
        token = line.partition(" ")[0]
        if not token:
            raise ValueError(f"{path}:{lineno}: empty token")
        if token in index:
            raise ValueError(f"{path}:{lineno}: duplicate token {token!r}")
        index[token] = len(index)

    matrix = _parse_rows(path, lines, 1, dim, " ", check_row)
    return RowTable(index, matrix)


def write_embeddings(path, table: RowTable) -> None:
    _write_table(path, table, " ", "embedding", "token")


# -- feature file: "<count> <dim>" then "<image_id>\t<v1> <v2> ..." -----------


def load_features(path) -> RowTable:
    lines = _read_lines(path)
    _, dim = _parse_count_dim_header(lines, path)
    ids: dict[str, None] = {}

    def check_row(line: str, lineno: int) -> None:
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

    matrix = _parse_rows(path, lines, 1, dim, "\t", check_row)
    return RowTable(ids, matrix)


def write_features(path, features: RowTable) -> None:
    _write_table(path, features, "\t", "feature", "id")


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
    for lineno, line in enumerate(_read_lines(path), start=1):
        obj = _json(path, line, lineno)
        try:
            image_id = obj["image_id"]
            words = tuple(
                TranscribedWord(_string(w["token"], "token"), _confidence(w["conf"]))
                for w in obj["words"]
            )
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
    for lineno, line in enumerate(_read_lines(path), start=1):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'image_id\\tlabel\\tsplit'")
        image_id, label, split = fields
        if image_id in seen:
            raise ValueError(f"{path}:{lineno}: duplicate image_id {image_id!r}")
        seen.add(image_id)
        try:
            rows.append(ManifestRow(image_id=image_id, label=label, split=split))
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
    for lineno, line in enumerate(_read_lines(path), start=1):
        obj = _json(path, line, lineno)
        try:
            record = VqaRecord(*(_string(obj[f], f) for f in ("image_id", "question", "answer")))
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
    rows = (" ".join(f"{v:.17g}" for v in (*row, bias)) for row, bias in zip(model.W, model.b))
    _write_lines(path, [f"{model.n_classes} {model.dim}", "\t".join(model.class_names), *rows])


def load_model(path) -> ClassifierModel:
    lines = _read_lines(path)
    if len(lines) < 2:
        raise ValueError(f"{path}:1: truncated model file")
    n_classes, dim = _header_ints(path, lines[0], "'C D'")
    if n_classes < 2 or dim < 1:
        raise ValueError(
            f"{path}:1: bad header values C={n_classes} D={dim}, need C >= 2 and D >= 1"
        )
    names = lines[1].split("\t")
    if len(names) != n_classes:
        raise ValueError(f"{path}:2: expected {n_classes} class names, got {len(names)}")
    if len(lines) != 2 + n_classes:
        raise ValueError(f"{path}: expected {n_classes} weight rows, got {len(lines) - 2}")

    def check_row(line: str, lineno: int) -> None:
        fields = line.count(" ") + 1
        if fields != dim + 1:
            raise ValueError(f"{path}:{lineno}: expected {dim + 1} values, got {fields}")

    values = _parse_rows(path, lines, 2, dim + 1, None, check_row)
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
