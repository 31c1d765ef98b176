"""Scene-text features: tf-idf word selection and embedding-sum aggregation.

Transcriptions arrive as (token, confidence) lists per image.  The pipeline
filters by recognizer confidence, picks each image's most discriminative
tokens by tf-idf against the corpus, and sums their embedding vectors into a
single fixed-dimension text feature.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

_TOKEN_RUN = re.compile(r"[^\W_]+", re.UNICODE)  # alphanumeric runs; underscore splits


def tokenize(raw: str) -> list[str]:
    """Lowercase, split on any non-alphanumeric character, drop empty pieces."""
    return _TOKEN_RUN.findall(raw.lower())


@dataclass(frozen=True, slots=True)
class TranscribedWord:
    token: str
    confidence: float

    def __post_init__(self):
        if not self.token:
            raise ValueError("token must be non-empty")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True, slots=True)
class TranscriptionRecord:
    """Recognizer output for one image; the word list may be empty."""

    image_id: str
    words: tuple[TranscribedWord, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))

    def tokens(self) -> list[str]:
        return [w.token for w in self.words]


class RowTable(Mapping[str, np.ndarray]):
    """Named rows (lexicon tokens, image ids): a key -> row index over one read-only matrix.

    ``keys`` and the rows of ``rows`` line up; keys must be distinct.  The table
    keeps a read-only view of ``rows`` rather than a copy.  Tables are equal when
    their keys come in the same order and their matrices are equal.
    """

    def __init__(self, keys: Iterable[str], rows):
        matrix = np.asarray(rows, dtype=float).view()
        keys = list(keys)
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise ValueError(f"rows must be a (count, dim >= 1) matrix, not {matrix.shape}")
        if matrix.shape[0] != len(keys):
            raise ValueError(f"{len(keys)} keys but {matrix.shape[0]} rows")
        index = {key: row for row, key in enumerate(keys)}
        if len(index) != len(keys):
            duplicates = sorted(k for k, n in Counter(keys).items() if n > 1)
            raise ValueError(f"duplicate keys: {', '.join(map(repr, duplicates))}")
        matrix.flags.writeable = False
        self.index = index
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __getitem__(self, key: str) -> np.ndarray:
        return self.matrix[self.index[key]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)

    def __eq__(self, other):
        if not isinstance(other, RowTable):
            return NotImplemented
        return list(self.index) == list(other.index) and np.array_equal(self.matrix, other.matrix)

    def rows(self, keys: Iterable[str]) -> np.ndarray:
        """The rows of ``keys``, in that order, as a new (len(keys), dim) array."""
        return self.matrix[[self.index[key] for key in keys]]


@dataclass(frozen=True)
class TfIdfModel:
    """Document frequencies over a corpus of doc_count transcription records."""

    doc_count: int
    doc_freq: dict[str, int]

    def __post_init__(self):
        if self.doc_count < 1:
            raise ValueError("doc_count must be positive")
        for token, df in self.doc_freq.items():
            if not 1 <= df <= self.doc_count:
                raise ValueError(f"doc_freq[{token!r}] = {df} outside [1, {self.doc_count}]")

    def idf(self, token: str) -> float:
        # unsmoothed ln(N/df); tokens unseen at fit time fall back to df=1
        return math.log(self.doc_count / self.doc_freq.get(token, 1))


def fit_tfidf(corpus: Iterable[TranscriptionRecord]) -> TfIdfModel:
    """Count, per token, how many records contain it (presence, not multiplicity)."""
    records = list(corpus)
    if not records:
        raise ValueError("empty corpus")
    doc_freq: Counter[str] = Counter()
    for record in records:
        doc_freq.update(set(record.tokens()))
    return TfIdfModel(doc_count=len(records), doc_freq=dict(doc_freq))


def select_top_k(record: TranscriptionRecord, model: TfIdfModel, k: int) -> list[str]:
    """Up to k distinct tokens by descending tf * ln(N/df); ties break lexicographically."""
    if k < 1:
        raise ValueError("k must be >= 1")
    counts = Counter(record.tokens())
    ranked = sorted(counts.items(), key=lambda item: (-item[1] * model.idf(item[0]), item[0]))
    return [token for token, _ in ranked[:k]]


@dataclass(frozen=True, eq=False)
class TextFeature:
    vector: np.ndarray
    selected: tuple[str, ...]
    miss_count: int


def aggregate(tokens: Sequence[str], table: RowTable) -> TextFeature:
    """Sum the embeddings of the given tokens; out-of-lexicon tokens are skipped.

    Summation runs in ascending lexicographic token order so any permutation
    of the same tokens produces a bitwise-identical vector.  In an empty table,
    such as a lexicon filtered to a vocabulary it shares no token with, every
    token misses.
    """
    tokens = list(tokens)
    rows = [table.index[t] for t in sorted(tokens) if t in table.index]
    vector = np.zeros(table.dim)
    # row by row: matrix[rows].sum(axis=0) sums pairwise, in another order, when dim is 1
    for row in rows:
        vector += table.matrix[row]
    return TextFeature(vector=vector, selected=tuple(tokens), miss_count=len(tokens) - len(rows))


def filter_by_confidence(record: TranscriptionRecord, threshold: float) -> TranscriptionRecord:
    """Keep only words with confidence >= threshold, preserving order."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")
    kept = tuple(w for w in record.words if w.confidence >= threshold)
    return TranscriptionRecord(image_id=record.image_id, words=kept)


def text_feature(
    record: TranscriptionRecord, model: TfIdfModel, table: RowTable, k: int
) -> TextFeature:
    """Select-then-embed: tf-idf top-k tokens, summed through the lexicon."""
    return aggregate(select_top_k(record, model, k), table)
