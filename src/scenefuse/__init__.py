"""Multimodal fusion toolkit.

Turns per-image scene-text transcriptions into tf-idf-selected embedding-sum
features, fuses them with precomputed image features (compact bilinear
pooling via count sketch and circular convolution, or concat/average
baselines), and trains a linear softmax classifier for topic and VQA-style
answer classification.  All operations are pure functions over immutable
inputs and deterministic under fixed seeds.
"""

__version__ = "0.1.0"

from .classifier import TrainConfig, evaluate, init_model, loss_and_grad, train
from .data import join_labeled
from .sketch import (
    FusionSpec,
    circular_convolve_naive,
    fuse_rows,
    make_sketch_params,
    mcb_fuse_batch,
    outer_sketch_oracle,
)
from .text import RowTable, fit_tfidf, text_feature

__all__ = [
    "FusionSpec",
    "RowTable",
    "TrainConfig",
    "circular_convolve_naive",
    "evaluate",
    "fit_tfidf",
    "fuse_rows",
    "init_model",
    "join_labeled",
    "loss_and_grad",
    "make_sketch_params",
    "mcb_fuse_batch",
    "outer_sketch_oracle",
    "text_feature",
    "train",
]
