"""Command-line harness wiring the pipeline: featurize, fuse, train/eval, VQA, synth.

Every command records a run manifest (parameter echo, results, tool version)
so a run can be reproduced exactly from its manifest alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__, _split
from .classifier import LabeledSet, TrainConfig, evaluate, init_model, train
from .data import (
    INTERACTIONS,
    Manifest,
    ManifestRow,
    SynthConfig,
    VqaRecord,
    clean_corpus,
    join_labeled,
    make_synthetic,
)
from .io import (
    RunManifest,
    load_cleaning_report,
    load_embeddings,
    load_features,
    load_manifest,
    load_model,
    load_run_manifest,
    load_transcriptions,
    load_vqa,
    save_model,
    write_cleaning_report,
    write_embeddings,
    write_feature_rows,
    write_features,
    write_manifest,
    write_run_manifest,
    write_transcriptions,
    write_vqa,
)
from .sketch import FUSION_SCHEMES, FusionSpec, fuse_rows, support_mask
from .text import (
    RowTable,
    TranscribedWord,
    TranscriptionRecord,
    aggregate,
    fit_tfidf,
    select_top_k,
    tokenize,
)

# per vqa mode, the feature blocks concatenated after the question, in order
VQA_MODES = {"question": (), "question-image": ("image",), "question-image-text": ("image", "text")}


def _run_manifest(command: str, params: dict, results: dict) -> RunManifest:
    return RunManifest(
        tool="scenefuse", version=__version__, command=command, params=params, results=results
    )


def _pct(accuracy: float) -> str:
    return f"{accuracy * 100.0:.2f}"


def _check_distinct(values, what: str) -> None:
    repeated = [str(value) for value, count in Counter(values).items() if count > 1]
    if repeated:
        raise ValueError(f"{what} must be distinct, but these repeat: {', '.join(repeated)}")


# -- featurize-text ------------------------------------------------------------


def _summed(ranked: list[list[str]], k: int, table: RowTable):
    """``write_feature_rows``'s producer: per image, the sum of the first ``k`` of its tokens."""
    return lambda start, stop: np.array(
        [aggregate(tokens[:k], table).vector for tokens in ranked[start:stop]]
    )


def _cmd_featurize_text(args) -> int:
    ks = args.k or [5]
    if len(ks) > 1 and "{k}" not in str(args.out):
        raise ValueError("multiple --k values require a '{k}' placeholder in --out")
    if min(ks) < 1:
        raise ValueError(f"--k must be >= 1, got {min(ks)}")
    _check_distinct(ks, "--k values")
    if not 0.0 <= args.threshold <= 1.0:
        raise ValueError(f"threshold {args.threshold} outside [0, 1]")
    cleaned, report = clean_corpus(load_transcriptions(args.transcriptions), args.threshold)
    # only the words that survive cleaning can be summed
    table = load_embeddings(args.embeddings, {w.token for r in cleaned.values() for w in r.words})
    if args.manifest:
        # cover exactly the manifest ids; images without a transcription get an
        # empty record and hence a zero text feature
        ids = load_manifest(args.manifest).ids()
        cleaned = {i: cleaned.get(i, TranscriptionRecord(image_id=i)) for i in ids}
    if args.drop_empty:
        corpus = {i: r for i, r in cleaned.items() if r.words}
    else:
        corpus = cleaned
    model = fit_tfidf(corpus.values())
    # each k's tokens are the first k of one ranking, at the largest k
    ranked = [select_top_k(record, model, max(ks)) for record in corpus.values()]
    for k in ks:
        misses = sum(token not in table.index for tokens in ranked for token in tokens[:k])
        out = Path(str(args.out).replace("{k}", str(k)))
        write_feature_rows(out, corpus, table.dim, _summed(ranked, k, table))
        manifest = _run_manifest(
            "featurize-text",
            params={
                "transcriptions": str(args.transcriptions),
                "embeddings": str(args.embeddings),
                "manifest": str(args.manifest) if args.manifest else None,
                "out": str(out),
                "k": k,
                "threshold": args.threshold,
                "drop_empty": bool(args.drop_empty),
            },
            results={
                "images": len(corpus),
                "dim": table.dim,
                "lexicon_misses": misses,
                "cleaning": {
                    "total_words": report.total_words,
                    "kept_words": report.kept_words,
                    "removed_words": report.removed_words,
                    "emptied_records": report.emptied_records,
                },
            },
        )
        write_run_manifest(str(out) + ".run.json", manifest)
        print(f"wrote {out}: {len(corpus)} x {table.dim}, lexicon misses {misses}")
    if args.cleaning_report:  # last, so that a run that fails leaves no report
        write_cleaning_report(args.cleaning_report, report)
    return 0


# -- fuse ----------------------------------------------------------------------


def _fuse_aligned(feats_a: RowTable, feats_b: RowTable, spec: FusionSpec) -> np.ndarray:
    """``fuse_rows`` of each id's rows of a and b, in a's order, one ``_split`` block at a time.

    Beside the output, only one block's rows of b and its ``fuse_rows`` temporaries
    are held: no reordered copy of b, and no temporary as large as the output (mcb's
    are d wide, whatever the widths of a and b).
    """
    b_rows = np.array([feats_b.index[key] for key in feats_a])
    fused = np.empty((len(feats_a), spec.out_dim(feats_a.dim, feats_b.dim)))
    for block in _split.blocks(0, len(fused), fused.shape[1]):
        fused[block] = fuse_rows(feats_a.matrix[block], feats_b.matrix[b_rows[block]], spec)
    return fused


def _fusion_spec(args) -> FusionSpec:
    return FusionSpec(scheme=args.scheme, sketch_dim=args.d, seeds=(args.seed + 1, args.seed + 2),
                      normalize=not args.no_normalize)


def _cmd_fuse(args) -> int:
    spec = _fusion_spec(args)
    feats_a = load_features(args.a)
    feats_b = load_features(args.b)
    only_a = sorted(feats_a.keys() - feats_b.keys())
    only_b = sorted(feats_b.keys() - feats_a.keys())
    if only_a or only_b:
        raise ValueError(
            f"feature ids do not align; only in {args.a}: {only_a or '[]'}; "
            f"only in {args.b}: {only_b or '[]'}"
        )
    if not feats_a:
        raise ValueError("no feature rows to fuse")
    if spec.scheme == "average" and feats_a.dim != feats_b.dim:
        raise ValueError(
            f"average requires equal dims, but {args.a} has {feats_a.dim} and "
            f"{args.b} has {feats_b.dim}"
        )
    fused = RowTable(feats_a, _fuse_aligned(feats_a, feats_b, spec))
    write_features(args.out, fused)
    results = {
        "rows": len(fused), "dim_a": feats_a.dim, "dim_b": feats_b.dim, "dim_out": fused.dim,
    }
    if spec.scheme == "mcb":
        px, py = spec.sketch_params(feats_a.dim, feats_b.dim)
        results["sketch_occupancy"] = float(support_mask(px, py).mean())
    manifest = _run_manifest(
        "fuse",
        params={
            "a": str(args.a),
            "b": str(args.b),
            "out": str(args.out),
            "scheme": spec.scheme,
            "d": spec.sketch_dim,
            "seed_a": spec.seeds[0],
            "seed_b": spec.seeds[1],
            "normalize": spec.normalize,
            "seed": args.seed,
        },
        results=results,
    )
    write_run_manifest(str(args.out) + ".run.json", manifest)
    print(f"wrote {args.out}: {len(fused)} x {fused.dim} ({spec.scheme})")
    return 0


# -- train-eval ------------------------------------------------------------------


def _train_config(args) -> TrainConfig:
    return TrainConfig(learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch,
                       seed=args.seed, l2=args.l2)


def _report(args, command: str, params: dict, results: dict) -> None:
    """Echo the training flags into ``params``, then write ``--report-json`` or print the results."""
    params = {**params, "lr": args.lr, "epochs": args.epochs, "batch": args.batch,
              "l2": args.l2, "seed": args.seed}
    if args.report_json:
        write_run_manifest(args.report_json, _run_manifest(command, params, results))
    else:
        print(json.dumps({"results": results}, sort_keys=True, allow_nan=False))


def _train_eval_cell(manifest: Manifest, features_path, cfg: TrainConfig, class_names, model_path):
    """Accuracy, confusion and epoch losses of one cell; the model goes to ``model_path`` if set.

    The table holds the manifest's train rows, then its test rows, and no other: each
    split is one run of rows, so the test split is scored in place.  The model must not
    outlive the cell: alive while the next cell's file is read, it can split the heap
    that file would reuse (+11 MB peak RSS on synth_mcb).
    """
    ids = [row.image_id for split in ("train", "test") for row in manifest.split_rows(split)]
    features = load_features(features_path, ids)
    train_set = join_labeled(manifest, features, "train", class_names)
    test_set = join_labeled(manifest, features, "test", class_names)
    model = init_model(features.dim, class_names, cfg.seed)
    trained, history = train(model, train_set, cfg)
    accuracy, confusion = evaluate(trained, test_set)
    if model_path:
        save_model(model_path, trained)
    return accuracy, confusion.tolist(), history


def _placed(paths: list, workers: int) -> list[list[int]]:
    """The indices of the cells each of ``workers`` runs, in cell order; the parent's first.

    Only a regular file may go to a worker other than the parent.  Those are placed
    largest first onto the least-loaded worker, so the parent takes the largest; every
    other cell runs in the parent.
    """
    sizes = {i: size for i, path in enumerate(paths) if (size := _split.regular_size(path)) is not None}
    plan = [[i for i in range(len(paths)) if i not in sizes]] + [[] for _ in range(workers - 1)]
    loads = [0] * workers
    for index in sorted(sizes, key=lambda i: -sizes[i]):
        worker = loads.index(min(loads))
        plan[worker].append(index)
        loads[worker] += sizes[index]
    return [sorted(cells) for cells in plan]


def _worker_cells(out, manifest, paths, cfg, class_names) -> None:
    """``_train_eval_cell`` of each of ``paths`` in turn, written to ``out`` as one JSON list."""
    results = [_train_eval_cell(manifest, path, cfg, class_names, None) for path in paths]
    out.write(json.dumps(results).encode())


def _train_eval_cells(manifest: Manifest, paths: list, cfg: TrainConfig, class_names, model_path):
    """``_train_eval_cell`` of every path, in cell order, across the CPUs the process may use.

    The parent forks a worker (``_split.Forks``) for each other share of ``_placed``,
    then runs its own cells, holding its first fault; until the workers are reaped,
    ``_split.cpus()`` is one, so no load in any of them is split.  Then it walks the
    cells in order: a worker's result is taken (``repr`` round-trips every float
    through JSON), a cell whose worker failed is run again in the parent, and the held
    fault is raised at its turn, so results and the first fault are the serial ones.
    """
    workers = _split.cpus() if len(paths) > 1 else 1
    own, *shares = _placed(paths, workers)
    results: list = [None] * len(paths)
    held = None
    with _split.Forks() as forks:
        started = [(forks.start(_worker_cells, manifest, [paths[i] for i in share], cfg,
                                class_names), share) for share in shares if share]
        for index in own:
            try:
                results[index] = _train_eval_cell(manifest, paths[index], cfg, class_names,
                                                  model_path)
            except Exception as exc:  # raised at its turn, after the cells before it
                held = index, exc
                break
        for job, share in started:
            if (out := forks.result(job)) is not None:
                for index, result in zip(share, json.load(out)):
                    results[index] = result
    for index, path in enumerate(paths):
        if held is not None and held[0] == index:
            raise held[1]
        if results[index] is None:
            results[index] = _train_eval_cell(manifest, path, cfg, class_names, model_path)
    return results


def _format_grid(cell_results: list[dict]) -> str:
    row_labels = list(dict.fromkeys(cell["row"] for cell in cell_results))
    col_labels = list(dict.fromkeys(cell["col"] for cell in cell_results))
    values = {(cell["row"], cell["col"]): _pct(cell["accuracy"]) for cell in cell_results}
    width = max([len(r) for r in row_labels] + [6])
    col_width = max([len(c) for c in col_labels] + [7])
    header = " " * width + "".join(f"  {c:>{col_width}}" for c in col_labels)
    lines = [header]
    for r in row_labels:
        cells = "".join(f"  {values.get((r, c), ''):>{col_width}}" for c in col_labels)
        lines.append(f"{r:<{width}}{cells}")
    return "\n".join(lines)


def _cmd_train_eval(args) -> int:
    cells: list[tuple[str, str, str]] = []
    if args.features:
        cells.append(("features", "-", args.features))
    for raw in args.cell or []:
        parts = raw.split(":", 2)
        if len(parts) != 3 or not parts[0] or not parts[1]:
            raise ValueError(f"--cell must be ROW:COL:PATH, ROW and COL non-empty, not {raw!r}")
        cells.append((parts[0], parts[1], parts[2]))
    if not cells:
        raise ValueError("provide --features or at least one --cell")
    _check_distinct((f"{row}:{col}" for row, col, _ in cells), "ROW:COL pairs")
    if args.save_model and len(cells) > 1:
        raise ValueError(f"--save-model keeps one model, but {len(cells)} cells were given")
    cfg = _train_config(args)
    manifest = load_manifest(args.manifest)
    for split in ("train", "test"):
        if not manifest.split_rows(split):
            raise ValueError(f"manifest split {split!r} is empty")
    class_names = manifest.class_names()
    cell_results = []
    trained = _train_eval_cells(manifest, [path for *_, path in cells], cfg, class_names,
                                args.save_model)
    for (row_label, col_label, path), (accuracy, confusion, history) in zip(cells, trained):
        cell_results.append(
            {
                "row": row_label,
                "col": col_label,
                "features": str(path),
                "accuracy": accuracy,
                "accuracy_percent": float(_pct(accuracy)),
                "confusion": confusion,
                "final_train_loss": history[-1],
                "loss_history": history,
            }
        )
    if len(cells) == 1:
        accuracy = cell_results[0]["accuracy"]
        confusion = cell_results[0]["confusion"]
        print(f"test accuracy: {_pct(accuracy)}%")
        print(f"confusion (rows true, cols predicted; classes: {', '.join(class_names)}):")
        for row in confusion:
            print("  " + " ".join(f"{v:5d}" for v in row))
    else:
        print(_format_grid(cell_results))
    params = {
        "manifest": str(args.manifest),
        "cells": [{"row": r, "col": c, "features": str(p)} for r, c, p in cells],
    }
    if args.save_model:  # only when given, so reports of runs without a model stay as they were
        params["save_model"] = str(args.save_model)
    _report(args, "train-eval", params, {"class_names": class_names, "cells": cell_results})
    return 0


# -- vqa -------------------------------------------------------------------------


def _cmd_vqa(args) -> int:
    if args.answer_vocab < 2:
        raise ValueError(f"--answer-vocab must be at least 2, got {args.answer_vocab}")
    paths = {name: getattr(args, f"{name}_features") for name in VQA_MODES[args.mode]}
    for name, path in paths.items():
        if not path:
            raise ValueError(f"--{name}-features is required for mode {args.mode!r}")
    cfg = _train_config(args)

    records = load_vqa(args.vqa)
    manifest = load_manifest(args.manifest)
    share = {}.setdefault  # one token list per distinct question, one str per distinct token
    words = {q: [share(t, t) for t in tokenize(q)] for q in {r.question for r in records}}
    table = load_embeddings(args.embeddings, {t for tokens in words.values() for t in tokens})
    split_of = {row.image_id: row.split for row in manifest.rows}
    missing = sorted({r.image_id for r in records} - set(split_of))
    if missing:
        raise ValueError(f"vqa image ids missing from manifest: {', '.join(missing)}")

    blocks = {name: load_features(path) for name, path in paths.items()}
    needed_ids = {r.image_id for r in records}
    for name, feats in blocks.items():
        absent = sorted(needed_ids.difference(feats))
        if absent:
            raise ValueError(f"vqa image ids missing from {name} features: {', '.join(absent)}")

    train_records = [r for r in records if split_of[r.image_id] == "train"]
    test_records = [r for r in records if split_of[r.image_id] == "test"]
    if not train_records:
        raise ValueError("no vqa records fall in the train split")
    if not test_records:
        raise ValueError("no vqa records fall in the test split")

    counts = Counter(r.answer for r in train_records)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    vocab = [answer for answer, _ in ranked[: args.answer_vocab]]
    if len(vocab) < 2:
        raise ValueError("answer vocabulary needs at least two distinct training answers")
    answer_index = {answer: i for i, answer in enumerate(vocab)}

    def labeled(rows) -> LabeledSet:
        """The question sums, then each block's image rows, filled into one matrix."""
        X = np.empty((len(rows), table.dim + sum(feats.dim for feats in blocks.values())))
        for at, r in enumerate(rows):
            X[at, : table.dim] = aggregate(words[r.question], table).vector
        left = table.dim
        for feats in blocks.values():
            picks = np.array([feats.index[r.image_id] for r in rows], dtype=np.intp)
            for block in _split.blocks(0, len(rows), feats.dim):
                X[block, left : left + feats.dim] = feats.matrix[picks[block]]
            left += feats.dim
        return LabeledSet(X=X, y=np.array([answer_index[r.answer] for r in rows]))

    train_set = labeled([r for r in train_records if r.answer in answer_index])
    dropped_train = len(train_records) - len(train_set)
    model = init_model(train_set.X.shape[1], vocab, args.seed)
    trained, history = train(model, train_set, cfg)

    # out-of-vocabulary test answers stay in the denominator and count as wrong
    test_in_vocab = [r for r in test_records if r.answer in answer_index]
    correct = int(np.trace(evaluate(trained, labeled(test_in_vocab))[1])) if test_in_vocab else 0
    oov_test = len(test_records) - len(test_in_vocab)
    accuracy = correct / len(test_records)

    print(f"mode: {args.mode}")
    print(
        f"test accuracy: {_pct(accuracy)}% ({correct}/{len(test_records)}; "
        f"{oov_test} out-of-vocabulary answers counted wrong)"
    )
    print(f"train: {len(train_set)} used, {dropped_train} dropped (answer outside top-{len(vocab)})")

    params = {
        "vqa": str(args.vqa),
        "manifest": str(args.manifest),
        "embeddings": str(args.embeddings),
        "image_features": str(paths["image"]) if "image" in paths else None,
        "text_features": str(paths["text"]) if "text" in paths else None,
        "mode": args.mode,
        "answer_vocab": args.answer_vocab,
    }
    results = {
        "accuracy": accuracy,
        "accuracy_percent": float(_pct(accuracy)),
        "n_test": len(test_records),
        "n_test_oov": oov_test,
        "n_train_used": len(train_set),
        "n_train_dropped": dropped_train,
        "vocab_size": len(vocab),
        "loss_history": history,
    }
    _report(args, "vqa", params, results)
    return 0


# -- synth -----------------------------------------------------------------------


def _cmd_synth(args) -> int:
    cfg = SynthConfig(
        n_train=args.n_train,
        n_test=args.n_test,
        dim_a=args.dim_a,
        dim_b=args.dim_b,
        n_classes=args.classes,
        interaction=args.interaction,
        noise_sigma=args.sigma,
        seed=args.seed,
    )
    (a_train, b_train, y_train), (a_test, b_test, y_test) = make_synthetic(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = np.concatenate([y_train, y_test]).tolist()
    splits = ["train"] * len(y_train) + ["test"] * len(y_test)
    ids = [f"synth-{index:06d}" for index in range(len(labels))]
    rows = [
        ManifestRow(image_id=image_id, label=f"class{label:03d}", split=split)
        for image_id, label, split in zip(ids, labels, splits)
    ]
    write_features(out_dir / "features_a.txt", RowTable(ids, np.concatenate([a_train, a_test])))
    write_features(out_dir / "features_b.txt", RowTable(ids, np.concatenate([b_train, b_test])))
    write_manifest(out_dir / "manifest.tsv", Manifest(rows=tuple(rows)))
    manifest = _run_manifest(
        "synth",
        params={
            "out": str(out_dir),
            "n_train": cfg.n_train,
            "n_test": cfg.n_test,
            "dim_a": cfg.dim_a,
            "dim_b": cfg.dim_b,
            "classes": cfg.n_classes,
            "interaction": cfg.interaction,
            "sigma": cfg.noise_sigma,
            "seed": cfg.seed,
        },
        results={"rows": len(rows)},
    )
    write_run_manifest(out_dir / "run.json", manifest)
    print(f"wrote {out_dir}: {cfg.n_train} train + {cfg.n_test} test, dims {cfg.dim_a}/{cfg.dim_b}")
    return 0


# -- formats-check -----------------------------------------------------------------


def _demo_structures():
    table = RowTable(["sun", "sea"], [[0.1, -0.2, 0.3], [0.4, 0.5, -0.6]])
    transcriptions = {
        "img-1": TranscriptionRecord(
            "img-1", (TranscribedWord("sun", 0.9), TranscribedWord("sea", 0.4))
        ),
        "img-2": TranscriptionRecord("img-2", ()),
    }
    features = RowTable(["img-1", "img-2"], [[1.5, -2.25], [0.0, 3.125]])
    manifest = Manifest(
        rows=(
            ManifestRow("img-1", "beach", "train"),
            ManifestRow("img-2", "beach", "test"),
        )
    )
    vqa = [VqaRecord("img-1", "what is shown", "sun")]
    model = init_model(2, ["beach", "city"], seed=7)
    cleaned, report = clean_corpus(transcriptions, 0.7)
    run = _run_manifest("formats-check", params={"demo": True}, results={"ok": True})
    return table, transcriptions, features, manifest, vqa, model, report, run


def _cmd_formats_check(args) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(args.out) if args.out else Path(tmp)
        out.mkdir(parents=True, exist_ok=True)
        if args.fixtures:
            fixtures = Path(args.fixtures)
            table = load_embeddings(fixtures / "embeddings.txt")
            transcriptions = load_transcriptions(fixtures / "transcriptions.jsonl")
            features = load_features(fixtures / "image_features.txt")
            manifest = load_manifest(fixtures / "manifest.tsv")
            vqa = load_vqa(fixtures / "vqa.jsonl")
            model = init_model(3, manifest.class_names(), seed=11)
            _, report = clean_corpus(transcriptions, 0.7)
            run = _run_manifest("formats-check", params={"fixtures": str(fixtures)}, results={})
        else:
            table, transcriptions, features, manifest, vqa, model, report, run = _demo_structures()

        formats = [
            ("embeddings", "embeddings.txt", write_embeddings, load_embeddings, table),
            ("transcriptions", "transcriptions.jsonl", write_transcriptions, load_transcriptions,
             transcriptions),
            ("features", "features.txt", write_features, load_features, features),
            ("manifest", "manifest.tsv", write_manifest, load_manifest, manifest),
            ("vqa", "vqa.jsonl", write_vqa, load_vqa, vqa),
            ("model", "model.txt", save_model, load_model, model),
            ("cleaning-report", "cleaning.json", write_cleaning_report, load_cleaning_report,
             report),
            ("run-manifest", "run.json", write_run_manifest, load_run_manifest, run),
        ]
        checks = []
        for name, file, write, load, value in formats:
            write(out / file, value)
            checks.append((name, load(out / file) == value))

    for name, ok in checks:
        print(f"{name}: {'OK' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in checks) else 1


# -- parser ------------------------------------------------------------------------


def _add_seed(parser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")


def _add_train_flags(parser) -> None:
    parser.add_argument("--lr", type=float, default=TrainConfig.learning_rate,
                        help="learning rate (default %(default)s)")
    parser.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                        help="training epochs (default %(default)s)")
    parser.add_argument("--batch", type=int, default=TrainConfig.batch_size,
                        help="mini-batch size (default %(default)s)")
    parser.add_argument("--l2", type=float, default=TrainConfig.l2,
                        help="L2 penalty (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenefuse",
        description="Fuse scene-text and image features and run classification benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"scenefuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize-text", help="tf-idf top-k embedding-sum text features")
    p.add_argument("--transcriptions", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument(
        "--manifest",
        help="emit one row per manifest image; ids without transcriptions get zero vectors",
    )
    p.add_argument("--out", required=True, help="output feature file; use '{k}' with multiple --k")
    p.add_argument("--k", type=int, action="append", help="words kept per image (default 5; repeatable)")
    p.add_argument("--threshold", type=float, default=0.70, help="confidence cutoff (default 0.70)")
    p.add_argument("--drop-empty", action="store_true", help="drop images with no surviving words")
    p.add_argument("--cleaning-report", help="optional cleaning report JSON path")
    p.set_defaults(func=_cmd_featurize_text)

    p = sub.add_parser("fuse", help="fuse two aligned feature files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scheme", choices=FUSION_SCHEMES, default=FusionSpec.scheme,
                   help="fusion scheme (default %(default)s)")
    p.add_argument("--d", type=int, default=FusionSpec.sketch_dim,
                   help="sketch dimension for mcb (default %(default)s)")
    p.add_argument("--no-normalize", action="store_true", help="skip signed sqrt + L2 after mcb")
    _add_seed(p)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("train-eval", help="train on the train split, report test accuracy")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", help="feature file (single-cell run)")
    p.add_argument(
        "--cell",
        action="append",
        help="ROW:COL:PATH; repeat to build a fusion-by-k accuracy grid",
    )
    p.add_argument("--save-model", help="optional path to write the trained model")
    p.add_argument("--report-json", help="write the run report JSON here")
    _add_train_flags(p)
    _add_seed(p)
    p.set_defaults(func=_cmd_train_eval)

    p = sub.add_parser("vqa", help="closed-set answer classification over fused features")
    p.add_argument("--vqa", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--image-features")
    p.add_argument("--text-features")
    p.add_argument("--mode", choices=VQA_MODES, default="question-image-text")
    p.add_argument(
        "--answer-vocab", type=int, default=1000, help="answer vocabulary size (default 1000)"
    )
    p.add_argument("--report-json", help="write the run report JSON here")
    _add_train_flags(p)
    _add_seed(p)
    p.set_defaults(func=_cmd_vqa)

    p = sub.add_parser("synth", help="write a synthetic two-modality benchmark")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-train", type=int, default=1000)
    p.add_argument("--n-test", type=int, default=200)
    p.add_argument("--dim-a", type=int, default=32)
    p.add_argument("--dim-b", type=int, default=32)
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--interaction", choices=INTERACTIONS,
                   default=SynthConfig.interaction, help="label structure (default %(default)s)")
    p.add_argument("--sigma", type=float, default=SynthConfig.noise_sigma,
                   help="noise standard deviation (default %(default)s)")
    _add_seed(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("formats-check", help="write/read every file format and compare")
    p.add_argument("--out", help="directory for round-trip files (default: temp dir)")
    p.add_argument("--fixtures", help="round-trip an existing fixture corpus directory")
    p.set_defaults(func=_cmd_formats_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
