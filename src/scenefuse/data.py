"""Dataset assembly: manifests, corpus cleaning, joins, and synthetic benchmarks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .classifier import LabeledSet
from .text import RowTable, TranscriptionRecord, filter_by_confidence

SPLITS = ("train", "test")
INTERACTIONS = ("additive", "multiplicative")


@dataclass(frozen=True, slots=True)
class ManifestRow:
    image_id: str
    label: str
    split: str

    def __post_init__(self):
        if not self.image_id:
            raise ValueError("image_id must be non-empty")
        if not self.label:
            raise ValueError("label must be non-empty")
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")


@dataclass(frozen=True)
class Manifest:
    rows: tuple[ManifestRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        seen: set[str] = set()
        for row in self.rows:
            if row.image_id in seen:
                raise ValueError(f"duplicate image_id {row.image_id!r} in manifest")
            seen.add(row.image_id)

    def ids(self) -> list[str]:
        return [row.image_id for row in self.rows]

    def split_rows(self, split: str) -> list[ManifestRow]:
        return [row for row in self.rows if row.split == split]

    def class_names(self) -> list[str]:
        return sorted({row.label for row in self.rows})


@dataclass(frozen=True)
class VqaRecord:
    image_id: str
    question: str
    answer: str

    def __post_init__(self):
        if not self.image_id or not self.question or not self.answer:
            raise ValueError("image_id, question and answer must all be non-empty")


@dataclass(frozen=True)
class CleaningReport:
    total_words: int
    kept_words: int
    removed_words: int
    emptied_records: int
    removed_per_image: dict[str, int] = field(default_factory=dict)


def clean_corpus(
    transcriptions: Mapping[str, TranscriptionRecord], threshold: float
) -> tuple[dict[str, TranscriptionRecord], CleaningReport]:
    """Confidence-filter every record; records that empty out are kept and counted."""
    cleaned: dict[str, TranscriptionRecord] = {}
    removed_per_image: dict[str, int] = {}
    total = kept = emptied = 0
    for image_id, record in transcriptions.items():
        out = filter_by_confidence(record, threshold)
        cleaned[image_id] = out
        total += len(record.words)
        kept += len(out.words)
        removed_per_image[image_id] = len(record.words) - len(out.words)
        if record.words and not out.words:
            emptied += 1
    report = CleaningReport(
        total_words=total,
        kept_words=kept,
        removed_words=total - kept,
        emptied_records=emptied,
        removed_per_image=removed_per_image,
    )
    return cleaned, report


def join_labeled(
    manifest: Manifest,
    features: RowTable,
    split: str,
    class_names: Sequence[str] | None = None,
) -> LabeledSet:
    """One split's feature rows, in manifest order, with their class indices.

    A split whose rows are one ascending run of the table (as both splits are when
    the table was loaded in train-then-test order) is a view of those rows; any
    other split is a copy of them.  Every manifest row of the split must have a
    feature row; missing ids are reported together.
    """
    rows = manifest.split_rows(split)
    if not rows:
        raise ValueError(f"manifest has no rows in split {split!r}")
    missing = [row.image_id for row in rows if row.image_id not in features]
    if missing:
        raise ValueError(f"manifest ids missing from features: {', '.join(missing)}")
    names = list(class_names) if class_names is not None else manifest.class_names()
    index = {name: i for i, name in enumerate(names)}
    unknown = sorted({row.label for row in rows} - set(index))
    if unknown:
        raise ValueError(f"labels missing from class set: {', '.join(unknown)}")
    labels = np.array([index[row.label] for row in rows])
    picks = np.array([features.index[row.image_id] for row in rows])
    start = int(picks[0])
    if np.array_equal(picks, np.arange(start, start + len(picks))):
        return LabeledSet(X=features.matrix[start : start + len(picks)], y=labels)
    return LabeledSet(X=features.matrix[picks], y=labels)


@dataclass(frozen=True)
class SynthConfig:
    n_train: int
    n_test: int
    dim_a: int
    dim_b: int
    n_classes: int
    interaction: str = "multiplicative"
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be >= 1")
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("dim_a and dim_b must be >= 1")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.interaction not in INTERACTIONS:
            raise ValueError(f"interaction must be one of {INTERACTIONS}")
        if not math.isfinite(self.noise_sigma):  # NaN passes any comparison
            raise ValueError(f"noise_sigma must be finite, got {self.noise_sigma}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


SynthSplit = tuple[np.ndarray, np.ndarray, np.ndarray]


def make_synthetic(cfg: SynthConfig) -> tuple[SynthSplit, SynthSplit]:
    """Two-modality benchmark around per-class Gaussian prototypes.

    Returns ``(A, B, y)`` for the train split and then the test split: modality
    rows A (n, dim_a) and B (n, dim_b) with their class indices y (n,).

    additive: both modalities carry the label, so either alone suffices.
    multiplicative: prototype indices i, j are drawn independently and the
    label is (i + j) mod n_classes, so each modality alone is uninformative
    and only their pairing decodes the class.
    """
    rng = np.random.default_rng(cfg.seed)
    protos_a = rng.standard_normal((cfg.n_classes, cfg.dim_a))
    protos_b = rng.standard_normal((cfg.n_classes, cfg.dim_b))

    def draw(count: int) -> SynthSplit:
        if cfg.interaction == "additive":
            labels = rng.integers(0, cfg.n_classes, size=count)
            ia, ib = labels, labels
        else:
            ia = rng.integers(0, cfg.n_classes, size=count)
            ib = rng.integers(0, cfg.n_classes, size=count)
            labels = (ia + ib) % cfg.n_classes
        a = protos_a[ia] + cfg.noise_sigma * rng.standard_normal((count, cfg.dim_a))
        b = protos_b[ib] + cfg.noise_sigma * rng.standard_normal((count, cfg.dim_b))
        return a, b, labels

    return draw(cfg.n_train), draw(cfg.n_test)
