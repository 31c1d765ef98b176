"""File formats: feature tables, lexicons, transcriptions, manifests, models, reports.

Writers emit floats as shortest round-trip decimals (model files use 17
significant digits), so every format reads back to an equal in-memory
structure and rewriting produces byte-identical files.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .classifier import ClassifierModel
from .data import CleaningReport, Manifest, ManifestRow, VqaRecord
from .text import EmbeddingTable, TranscribedWord, TranscriptionRecord


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


def _write_table(path, header: str, keyed_rows, sep: str) -> None:
    """Write ``header`` then one ``key + sep + values`` line per row, rows streamed.

    Values are ``repr`` of Python floats: the shortest decimal that reads back
    to the same float64.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(
            key + sep + " ".join(map(repr, row.tolist())) + "\n" for key, row in keyed_rows
        )


def _read_lines(path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def _parse_count_dim_header(lines: list[str], path) -> tuple[int, int]:
    if not lines:
        raise ValueError(f"{path}:1: empty file, expected '<count> <dim>' header")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"{path}:1: header must be '<count> <dim>'")
    try:
        count, dim = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"{path}:1: header must hold two integers") from None
    if count < 0 or dim < 1:
        raise ValueError(f"{path}:1: bad header values count={count} dim={dim}")
    if len(lines) - 1 != count:
        raise ValueError(f"{path}: header count {count} but {len(lines) - 1} data lines")
    return count, dim


# -- embedding table: "<count> <dim>" then "<token> <v1> ... <vdim>" ----------


def load_embeddings(path) -> EmbeddingTable:
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
    return EmbeddingTable(index, matrix)


def write_embeddings(path, table: EmbeddingTable) -> None:
    finite = np.isfinite(table.matrix).all(axis=1)
    if not finite.all():
        token = list(table.index)[int(np.argmin(finite))]
        raise ValueError(f"embedding for {token!r} has non-finite values")
    _write_table(path, f"{len(table)} {table.dim}", zip(table.index, table.matrix), " ")


# -- feature file: "<count> <dim>" then "<image_id>\t<v1> <v2> ..." -----------


def load_features(path) -> dict[str, np.ndarray]:
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
    return dict(zip(ids, matrix))


def write_features(path, features: Mapping[str, np.ndarray], dim: int | None = None) -> None:
    vectors = {k: np.asarray(v, dtype=float) for k, v in features.items()}
    if dim is None:
        if not vectors:
            raise ValueError("cannot infer dim for an empty feature map")
        dim = next(iter(vectors.values())).size
    for image_id, vec in vectors.items():
        if vec.shape != (dim,):
            raise ValueError(f"feature for {image_id!r} has dim {vec.size}, expected {dim}")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"feature for {image_id!r} has non-finite values")
    _write_table(path, f"{len(vectors)} {dim}", vectors.items(), "\t")


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
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: bad JSON: {exc.msg}") from None
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
    lines = []
    for record in records.values():
        lines.append(
            json.dumps(
                {
                    "image_id": record.image_id,
                    "words": [{"token": w.token, "conf": w.confidence} for w in record.words],
                }
            )
        )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


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
    lines = [f"{row.image_id}\t{row.label}\t{row.split}" for row in manifest.rows]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


# -- VQA: JSON lines {"image_id":…, "question":…, "answer":…} -----------------


def load_vqa(path) -> list[VqaRecord]:
    records = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: bad JSON: {exc.msg}") from None
        try:
            record = VqaRecord(*(_string(obj[f], f) for f in ("image_id", "question", "answer")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad VQA record: {exc}") from None
        records.append(record)
    return records


def write_vqa(path, records: Sequence[VqaRecord]) -> None:
    lines = [
        json.dumps({"image_id": r.image_id, "question": r.question, "answer": r.answer})
        for r in records
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


# -- classifier model: "C D" / names / C rows of D+1 floats at 17 digits ------


def save_model(path, model: ClassifierModel) -> None:
    for name in model.class_names:
        if "\t" in name or "\n" in name:
            raise ValueError(f"class name {name!r} may not contain tabs or newlines")
    lines = [f"{model.n_classes} {model.dim}", "\t".join(model.class_names)]
    for row, bias in zip(model.W, model.b):
        lines.append(" ".join(f"{v:.17g}" for v in (*row, bias)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path) -> ClassifierModel:
    lines = _read_lines(path)
    if len(lines) < 2:
        raise ValueError(f"{path}:1: truncated model file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"{path}:1: header must be 'C D'")
    try:
        n_classes, dim = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"{path}:1: header must hold two integers") from None
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
    payload = {
        "total_words": report.total_words,
        "kept_words": report.kept_words,
        "removed_words": report.removed_words,
        "emptied_records": report.emptied_records,
        "removed_per_image": report.removed_per_image,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_json_object(path, fields: Mapping[str, type]) -> dict:
    """The top-level JSON object of ``path``, holding at least ``fields`` with their types."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: bad JSON: {exc.msg}") from None
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
    payload = {
        "tool": manifest.tool,
        "version": manifest.version,
        "command": manifest.command,
        "params": manifest.params,
        "results": manifest.results,
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


_RUN_FIELDS = {"tool": str, "version": str, "command": str, "params": dict, "results": dict}


def load_run_manifest(path) -> RunManifest:
    obj = _load_json_object(path, _RUN_FIELDS)
    return RunManifest(**{key: obj[key] for key in _RUN_FIELDS})
