"""Multimodal fusion toolkit.

Turns per-image scene-text transcriptions into tf-idf-selected embedding-sum
features, fuses them with precomputed image features (compact bilinear
pooling via count sketch and circular convolution, or concat/average
baselines), and trains a linear softmax classifier for topic and VQA-style
answer classification.  All operations are pure functions over immutable
inputs and deterministic under fixed seeds.
"""

__version__ = "0.1.0"

from .classifier import (
    ClassifierModel,
    LabeledSet,
    TrainConfig,
    evaluate,
    init_model,
    loss_and_grad,
    train,
)
from .data import (
    CleaningReport,
    Manifest,
    ManifestRow,
    SynthConfig,
    VqaRecord,
    clean_corpus,
    join_labeled,
    make_synthetic,
)
from .sketch import (
    FusionSpec,
    circular_convolve,
    circular_convolve_naive,
    count_sketch,
    fuse_rows,
    make_sketch_params,
    mcb_fuse_batch,
    outer_sketch_oracle,
    splitmix64,
)
from .text import (
    RowTable,
    TranscribedWord,
    TranscriptionRecord,
    aggregate,
    filter_by_confidence,
    fit_tfidf,
    select_top_k,
    text_feature,
    tokenize,
)

__all__ = [
    "ClassifierModel",
    "CleaningReport",
    "FusionSpec",
    "LabeledSet",
    "Manifest",
    "ManifestRow",
    "RowTable",
    "SynthConfig",
    "TrainConfig",
    "TranscribedWord",
    "TranscriptionRecord",
    "VqaRecord",
    "aggregate",
    "circular_convolve",
    "circular_convolve_naive",
    "clean_corpus",
    "count_sketch",
    "evaluate",
    "filter_by_confidence",
    "fit_tfidf",
    "fuse_rows",
    "init_model",
    "join_labeled",
    "loss_and_grad",
    "make_sketch_params",
    "make_synthetic",
    "mcb_fuse_batch",
    "outer_sketch_oracle",
    "select_top_k",
    "splitmix64",
    "text_feature",
    "tokenize",
    "train",
]
