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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

_TOKEN_RUN = re.compile(r"[^\W_]+", re.UNICODE)  # alphanumeric runs; underscore splits


def tokenize(raw: str) -> list[str]:
    """Lowercase, split on any non-alphanumeric character, drop empty pieces."""
    return _TOKEN_RUN.findall(raw.lower())


@dataclass(frozen=True)
class TranscribedWord:
    token: str
    confidence: float

    def __post_init__(self):
        if not self.token:
            raise ValueError("token must be non-empty")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True)
class TranscriptionRecord:
    """Recognizer output for one image; the word list may be empty."""

    image_id: str
    words: tuple[TranscribedWord, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))

    def tokens(self) -> list[str]:
        return [w.token for w in self.words]


class EmbeddingTable:
    """Token -> dense vector lexicon: a token -> row index over one read-only (count, dim) matrix.

    ``tokens`` and the rows of ``vectors`` line up; tokens must be distinct.
    The table keeps a read-only view of ``vectors`` rather than a copy.
    """

    def __init__(self, tokens: Sequence[str], vectors):
        matrix = np.asarray(vectors, dtype=float).view()
        tokens = list(tokens)
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise ValueError(f"vectors must be a (count, dim >= 1) matrix, not {matrix.shape}")
        if matrix.shape[0] != len(tokens):
            raise ValueError(f"{len(tokens)} tokens but {matrix.shape[0]} vectors")
        index = {token: row for row, token in enumerate(tokens)}
        if len(index) != len(tokens):
            duplicates = sorted(t for t, n in Counter(tokens).items() if n > 1)
            raise ValueError(f"duplicate tokens: {', '.join(map(repr, duplicates))}")
        matrix.flags.writeable = False
        self.index = index
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __len__(self) -> int:
        return len(self.index)

    def get(self, token: str) -> np.ndarray | None:
        row = self.index.get(token)
        return None if row is None else self.matrix[row]


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


@dataclass(frozen=True)
class TextFeature:
    vector: np.ndarray
    selected: tuple[str, ...]
    miss_count: int


def aggregate(tokens: Sequence[str], table: EmbeddingTable) -> TextFeature:
    """Sum the embeddings of the given tokens; out-of-lexicon tokens are skipped.

    Summation runs in ascending lexicographic token order so any permutation
    of the same tokens produces a bitwise-identical vector.
    """
    if len(table) == 0:
        raise ValueError("embedding table is empty")
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
    record: TranscriptionRecord, model: TfIdfModel, table: EmbeddingTable, k: int
) -> TextFeature:
    """Select-then-embed: tf-idf top-k tokens, summed through the lexicon."""
    return aggregate(select_top_k(record, model, k), table)
