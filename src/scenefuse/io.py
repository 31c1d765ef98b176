"""File formats: feature tables, lexicons, transcriptions, manifests, models, reports.

Writers emit floats as shortest round-trip decimals (model files use 17
significant digits), so every format reads back to an equal in-memory
structure and rewriting produces byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .classifier import ClassifierModel
from .data import CleaningReport, Manifest, ManifestRow, VqaRecord
from .text import EmbeddingTable, TranscribedWord, TranscriptionRecord


def _fmt(value: float) -> str:
    return repr(float(value))


def _parse_floats(parts: Sequence[str], path, lineno: int) -> np.ndarray:
    try:
        arr = np.array([float(p) for p in parts], dtype=float)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: unparseable float") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}:{lineno}: non-finite value")
    return arr


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
    count, dim = _parse_count_dim_header(lines, path)
    index: dict[str, int] = {}
    matrix = np.empty((count, dim))
    for row, line in enumerate(lines[1:]):
        lineno = row + 2
        parts = line.split(" ")
        if len(parts) != dim + 1:
            raise ValueError(
                f"{path}:{lineno}: expected token plus {dim} values, got {len(parts)} fields"
            )
        token = parts[0]
        if not token:
            raise ValueError(f"{path}:{lineno}: empty token")
        if token in index:
            raise ValueError(f"{path}:{lineno}: duplicate token {token!r}")
        index[token] = row
        matrix[row] = _parse_floats(parts[1:], path, lineno)
    return EmbeddingTable(index, matrix)


def write_embeddings(path, table: EmbeddingTable) -> None:
    lines = [f"{len(table)} {table.dim}"]
    for token, vec in zip(table.index, table.matrix):
        lines.append(token + " " + " ".join(_fmt(v) for v in vec))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- feature file: "<count> <dim>" then "<image_id>\t<v1> <v2> ..." -----------


def load_features(path) -> dict[str, np.ndarray]:
    lines = _read_lines(path)
    _, dim = _parse_count_dim_header(lines, path)
    features: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected '<image_id>\\t<values>'")
        image_id, blob = fields
        if not image_id:
            raise ValueError(f"{path}:{lineno}: empty image_id")
        if image_id in features:
            raise ValueError(f"{path}:{lineno}: duplicate image_id {image_id!r}")
        parts = blob.split(" ")
        if len(parts) != dim:
            raise ValueError(f"{path}:{lineno}: expected {dim} values, got {len(parts)}")
        features[image_id] = _parse_floats(parts, path, lineno)
    return features


def write_features(path, features: Mapping[str, np.ndarray], dim: int | None = None) -> None:
    vectors = {k: np.asarray(v, dtype=float) for k, v in features.items()}
    if dim is None:
        if not vectors:
            raise ValueError("cannot infer dim for an empty feature map")
        dim = next(iter(vectors.values())).size
    lines = [f"{len(vectors)} {dim}"]
    for image_id, vec in vectors.items():
        if vec.shape != (dim,):
            raise ValueError(f"feature for {image_id!r} has dim {vec.size}, expected {dim}")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"feature for {image_id!r} has non-finite values")
        lines.append(image_id + "\t" + " ".join(_fmt(v) for v in vec))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    names = lines[1].split("\t")
    if len(names) != n_classes:
        raise ValueError(f"{path}:2: expected {n_classes} class names, got {len(names)}")
    if len(lines) != 2 + n_classes:
        raise ValueError(f"{path}: expected {n_classes} weight rows, got {len(lines) - 2}")
    W = np.empty((n_classes, dim))
    b = np.empty(n_classes)
    for i, line in enumerate(lines[2:], start=0):
        parts = line.split(" ")
        if len(parts) != dim + 1:
            raise ValueError(f"{path}:{i + 3}: expected {dim + 1} values, got {len(parts)}")
        values = _parse_floats(parts, path, i + 3)
        W[i] = values[:dim]
        b[i] = values[dim]
    return ClassifierModel(W=W, b=b, class_names=names)


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


def load_cleaning_report(path) -> CleaningReport:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    return CleaningReport(
        total_words=obj["total_words"],
        kept_words=obj["kept_words"],
        removed_words=obj["removed_words"],
        emptied_records=obj["emptied_records"],
        removed_per_image=dict(obj["removed_per_image"]),
    )


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


def load_run_manifest(path) -> RunManifest:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    return RunManifest(
        tool=obj["tool"],
        version=obj["version"],
        command=obj["command"],
        params=obj["params"],
        results=obj["results"],
    )
