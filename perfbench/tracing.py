"""In-process span tracing of scenefuse's layers, applied from outside the program.

``Tracer.install`` wraps every public function defined in the layer modules and
puts each wrapper into every ``scenefuse`` module namespace that holds the same
function object, so calls made through ``cli``'s imports and calls between
modules are both recorded.  A span is ``[name, start, end, parent, counts]``;
spans stay in memory until ``per_layer`` reduces them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "scenefuse"
LAYERS = ("io", "text", "sketch", "classifier", "data")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(key):
    def count(args, kwargs, result):
        return {key: os.path.getsize(_arg(args, kwargs, 0, "path"))}

    return count


def _loaded_features(args, kwargs, result):
    dim = next(iter(result.values())).size if result else 0
    return {"bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path")), "floats": len(result) * dim}


def _written_features(args, kwargs, result):
    features = _arg(args, kwargs, 1, "features")
    dim = next(iter(features.values())).size if features else 0
    return {"bytes_written": os.path.getsize(_arg(args, kwargs, 0, "path")),
            "floats": len(features) * dim}


def _loaded_embeddings(args, kwargs, result):
    return {"bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path")),
            "floats": len(result) * result.dim}


def _fused(args, kwargs, result):
    return {f"rows.d{_arg(args, kwargs, 2, 'px').sketch_dim}": result.shape[0]}


def _aggregated(args, kwargs, result):
    return {"tokens": len(result.selected), "misses": result.miss_count}


def _trained(args, kwargs, result):
    return {"samples": len(_arg(args, kwargs, 1, "data")) * _arg(args, kwargs, 2, "cfg").epochs}


def _cleaned(args, kwargs, result):
    report = result[1]
    return {"kept_words": report.kept_words, "total_words": report.total_words}


# counts recorded at a function's boundary, after its span has ended
COUNTERS = {
    "io.load_features": _loaded_features,
    "io.load_embeddings": _loaded_embeddings,
    "io.write_features": _written_features,
    "sketch.mcb_fuse_batch": _fused,
    "text.aggregate": _aggregated,
    "classifier.train": _trained,
    "data.clean_corpus": _cleaned,
}
for _name in ("load_transcriptions", "load_manifest", "load_vqa", "load_model",
              "load_cleaning_report", "load_run_manifest"):
    COUNTERS[f"io.{_name}"] = _file_bytes("bytes_read")
for _name in ("write_embeddings", "write_transcriptions", "write_manifest", "write_vqa",
              "save_model", "write_cleaning_report", "write_run_manifest"):
    COUNTERS[f"io.{_name}"] = _file_bytes("bytes_written")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.wrapped: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        self.wrapped = []
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn)
                self.wrapped.append(name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, key, fn))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def per_layer(spans: list[list], wall: float) -> tuple[dict[str, float], dict[str, int]]:
    """Reduce one traced pass: per-function inclusive time, layer self time, counts.

    ``wall`` is the summed wall time of the traced commands; ``cli.self_s`` is
    what the layer spans leave of it, so the self times add up to ``wall``.
    Returns the metrics and the number of spans per function and per layer.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent, recorded) in enumerate(spans):
        layer = name.split(".", 1)[0]
        calls[name] += 1
        calls[layer] += 1
        inclusive[name] += end - start
        self_time[layer] += end - start - child_time[i]
        for key, value in (recorded or {}).items():
            counts[f"{name}:{key}"] += value
    root_time = sum(end - start for _, start, end, parent, _ in spans if parent < 0)

    def total(key: str) -> float:
        return sum(v for k, v in counts.items() if k.endswith(":" + key))

    metrics = {f"{name}.s": t for name, t in inclusive.items()}
    metrics.update({f"{layer}.self_s": self_time[layer] for layer in LAYERS})
    metrics["cli.self_s"] = wall - root_time
    metrics["trace.wall_s"] = wall
    metrics["trace.spans"] = float(len(spans))
    io_float_time = sum(inclusive[n] for n in ("io.load_features", "io.write_features", "io.load_embeddings"))
    metrics["io.floats_per_s"] = total("floats") / io_float_time if io_float_time else 0.0
    metrics["io.bytes_written"] = total("bytes_written")
    metrics["io.bytes_read"] = total("bytes_read")
    for d in (1000, 1024):
        rows = counts.get(f"sketch.mcb_fuse_batch:rows.d{d}", 0.0)
        fuse_time = sum(end - start for name, start, end, _, rec in spans
                        if name == "sketch.mcb_fuse_batch" and rec and f"rows.d{d}" in rec)
        metrics[f"sketch.rows_per_s.d{d}"] = rows / fuse_time if fuse_time else 0.0
    tokens = counts.get("text.aggregate:tokens", 0.0)
    metrics["text.lexicon_hit_ratio"] = 1.0 - counts["text.aggregate:misses"] / tokens if tokens else 0.0
    train_time = inclusive.get("classifier.train", 0.0)
    metrics["classifier.samples_per_s"] = counts["classifier.train:samples"] / train_time if train_time else 0.0
    words = counts.get("data.clean_corpus:total_words", 0.0)
    metrics["data.kept_word_ratio"] = counts["data.clean_corpus:kept_words"] / words if words else 0.0
    return metrics, dict(calls)


def write_spans(path, spans: list[list]) -> None:
    """One JSON object per span: name, start, end, parent index and counts."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, counts in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "counts": counts}) + "\n")
