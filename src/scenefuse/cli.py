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

from . import __version__
from .classifier import LabeledSet, TrainConfig, evaluate, init_model, train
from .data import (
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
    write_features,
    write_manifest,
    write_run_manifest,
    write_transcriptions,
    write_vqa,
)
from .sketch import FUSION_SCHEMES, FusionSpec, fuse_rows, support_mask
from .text import (
    EmbeddingTable,
    TranscribedWord,
    TranscriptionRecord,
    aggregate,
    fit_tfidf,
    text_feature,
    tokenize,
)

VQA_MODES = ("question", "question-image", "question-image-text")


def _run_manifest(command: str, params: dict, results: dict) -> RunManifest:
    return RunManifest(
        tool="scenefuse", version=__version__, command=command, params=params, results=results
    )


def _pct(accuracy: float) -> str:
    return f"{accuracy * 100.0:.2f}"


# -- featurize-text ------------------------------------------------------------


def _cmd_featurize_text(args) -> int:
    transcriptions = load_transcriptions(args.transcriptions)
    table = load_embeddings(args.embeddings)
    cleaned, report = clean_corpus(transcriptions, args.threshold)
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
    ks = args.k or [5]
    if len(ks) > 1 and "{k}" not in str(args.out):
        raise ValueError("multiple --k values require a '{k}' placeholder in --out")
    if args.cleaning_report:
        write_cleaning_report(args.cleaning_report, report)
    for k in ks:
        features: dict[str, np.ndarray] = {}
        misses = 0
        for image_id, record in corpus.items():
            feat = text_feature(record, model, table, k)
            features[image_id] = feat.vector
            misses += feat.miss_count
        out = Path(str(args.out).replace("{k}", str(k)))
        write_features(out, features, dim=table.dim)
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
                "images": len(features),
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
        print(f"wrote {out}: {len(features)} x {table.dim}, lexicon misses {misses}")
    return 0


# -- fuse ----------------------------------------------------------------------


def _cmd_fuse(args) -> int:
    feats_a = load_features(args.a)
    feats_b = load_features(args.b)
    only_a = sorted(set(feats_a) - set(feats_b))
    only_b = sorted(set(feats_b) - set(feats_a))
    if only_a or only_b:
        raise ValueError(
            f"feature ids do not align; only in {args.a}: {only_a or '[]'}; "
            f"only in {args.b}: {only_b or '[]'}"
        )
    ids = list(feats_a)
    if not ids:
        raise ValueError("no feature rows to fuse")
    seed_a = args.seed_a if args.seed_a is not None else args.seed + 1
    seed_b = args.seed_b if args.seed_b is not None else args.seed + 2
    spec = FusionSpec(
        scheme=args.scheme,
        sketch_dim=args.d,
        seeds=(seed_a, seed_b),
        normalize=not args.no_normalize,
    )
    a_rows = np.stack([feats_a[i] for i in ids])
    b_rows = np.stack([feats_b[i] for i in ids])
    fused = fuse_rows(a_rows, b_rows, spec)
    write_features(args.out, dict(zip(ids, fused)), dim=fused.shape[1])
    results = {
        "rows": len(ids), "dim_a": a_rows.shape[1], "dim_b": b_rows.shape[1], "dim_out": fused.shape[1],
    }
    if spec.scheme == "mcb":
        px, py = spec.sketch_params(a_rows.shape[1], b_rows.shape[1])
        results["sketch_occupancy"] = float(support_mask(px, py).mean())
    manifest = _run_manifest(
        "fuse",
        params={
            "a": str(args.a),
            "b": str(args.b),
            "out": str(args.out),
            "scheme": spec.scheme,
            "d": spec.sketch_dim,
            "seed_a": seed_a,
            "seed_b": seed_b,
            "normalize": spec.normalize,
            "seed": args.seed,
        },
        results=results,
    )
    write_run_manifest(str(args.out) + ".run.json", manifest)
    print(f"wrote {args.out}: {len(ids)} x {fused.shape[1]} ({spec.scheme})")
    return 0


# -- train-eval ------------------------------------------------------------------


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch,
        seed=args.seed,
        l2=args.l2,
    )


def _train_eval_cell(manifest: Manifest, features_path, cfg: TrainConfig, class_names):
    features = load_features(features_path)
    train_set = join_labeled(manifest, features, "train", class_names)
    test_set = join_labeled(manifest, features, "test", class_names)
    model = init_model(train_set.X.shape[1], class_names, cfg.seed)
    trained, history = train(model, train_set, cfg)
    accuracy, confusion = evaluate(trained, test_set)
    return trained, accuracy, confusion, history


def _format_grid(row_labels, col_labels, values: dict) -> str:
    width = max([len(r) for r in row_labels] + [6])
    col_width = max([len(c) for c in col_labels] + [7])
    header = " " * width + "".join(f"  {c:>{col_width}}" for c in col_labels)
    lines = [header]
    for r in row_labels:
        cells = "".join(f"  {values.get((r, c), ''):>{col_width}}" for c in col_labels)
        lines.append(f"{r:<{width}}{cells}")
    return "\n".join(lines)


def _cmd_train_eval(args) -> int:
    manifest = load_manifest(args.manifest)
    for split in ("train", "test"):
        if not manifest.split_rows(split):
            raise ValueError(f"manifest split {split!r} is empty")
    cells: list[tuple[str, str, str]] = []
    if args.features:
        cells.append(("features", "-", args.features))
    for raw in args.cell or []:
        parts = raw.split(":", 2)
        if len(parts) != 3:
            raise ValueError("--cell must look like ROW:COL:PATH")
        cells.append((parts[0], parts[1], parts[2]))
    if not cells:
        raise ValueError("provide --features or at least one --cell")
    if args.save_model and len(cells) > 1:
        raise ValueError(f"--save-model keeps one model, but {len(cells)} cells were given")
    cfg = _train_config(args)
    class_names = manifest.class_names()
    cell_results = []
    values: dict[tuple[str, str], str] = {}
    for row_label, col_label, path in cells:
        trained, accuracy, confusion, history = _train_eval_cell(manifest, path, cfg, class_names)
        if args.save_model:
            save_model(args.save_model, trained)
        values[(row_label, col_label)] = _pct(accuracy)
        cell_results.append(
            {
                "row": row_label,
                "col": col_label,
                "features": str(path),
                "accuracy": accuracy,
                "accuracy_percent": float(_pct(accuracy)),
                "confusion": confusion.tolist(),
                "final_train_loss": history[-1],
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
        row_labels = list(dict.fromkeys(r for r, _, _ in cells))
        col_labels = list(dict.fromkeys(c for _, c, _ in cells))
        print(_format_grid(row_labels, col_labels, values))
    params = {
        "manifest": str(args.manifest),
        "cells": [{"row": r, "col": c, "features": str(p)} for r, c, p in cells],
        "lr": args.lr,
        "epochs": args.epochs,
        "batch": args.batch,
        "l2": args.l2,
        "seed": args.seed,
    }
    if args.save_model:  # only when given, so reports of runs without a model stay as they were
        params["save_model"] = str(args.save_model)
    report = _run_manifest(
        "train-eval", params=params, results={"class_names": class_names, "cells": cell_results}
    )
    if args.report_json:
        write_run_manifest(args.report_json, report)
    else:
        print(json.dumps({"results": report.results}, sort_keys=True, allow_nan=False))
    return 0


# -- vqa -------------------------------------------------------------------------


def _cmd_vqa(args) -> int:
    if args.mode not in VQA_MODES:
        raise ValueError(f"mode must be one of {VQA_MODES}")
    if args.answer_vocab < 2:
        raise ValueError(f"--answer-vocab must be at least 2, got {args.answer_vocab}")
    needs_image = args.mode in ("question-image", "question-image-text")
    needs_text = args.mode == "question-image-text"
    if needs_image and not args.image_features:
        raise ValueError(f"--image-features is required for mode {args.mode!r}")
    if needs_text and not args.text_features:
        raise ValueError(f"--text-features is required for mode {args.mode!r}")

    records = load_vqa(args.vqa)
    manifest = load_manifest(args.manifest)
    table = load_embeddings(args.embeddings)
    split_of = {row.image_id: row.split for row in manifest.rows}
    missing = sorted({r.image_id for r in records} - set(split_of))
    if missing:
        raise ValueError(f"vqa image ids missing from manifest: {', '.join(missing)}")

    image_feats = load_features(args.image_features) if needs_image else None
    text_feats = load_features(args.text_features) if needs_text else None
    needed_ids = {r.image_id for r in records}
    for name, feats in (("image", image_feats), ("text", text_feats)):
        if feats is None:
            continue
        absent = sorted(needed_ids - set(feats))
        if absent:
            raise ValueError(f"vqa image ids missing from {name} features: {', '.join(absent)}")

    def feature_for(record) -> np.ndarray:
        parts = [aggregate(tokenize(record.question), table).vector]
        if needs_image:
            parts.append(image_feats[record.image_id])
        if needs_text:
            parts.append(text_feats[record.image_id])
        return np.concatenate(parts)

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
        return LabeledSet(
            X=np.stack([feature_for(r) for r in rows]),
            y=np.array([answer_index[r.answer] for r in rows]),
        )

    train_set = labeled([r for r in train_records if r.answer in answer_index])
    dropped_train = len(train_records) - len(train_set)
    model = init_model(train_set.X.shape[1], vocab, args.seed)
    trained, _ = train(model, train_set, _train_config(args))

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

    report = _run_manifest(
        "vqa",
        params={
            "vqa": str(args.vqa),
            "manifest": str(args.manifest),
            "embeddings": str(args.embeddings),
            "image_features": str(args.image_features) if needs_image else None,
            "text_features": str(args.text_features) if needs_text else None,
            "mode": args.mode,
            "answer_vocab": args.answer_vocab,
            "lr": args.lr,
            "epochs": args.epochs,
            "batch": args.batch,
            "l2": args.l2,
            "seed": args.seed,
        },
        results={
            "accuracy": accuracy,
            "accuracy_percent": float(_pct(accuracy)),
            "n_test": len(test_records),
            "n_test_oov": oov_test,
            "n_train_used": len(train_set),
            "n_train_dropped": dropped_train,
            "vocab_size": len(vocab),
        },
    )
    if args.report_json:
        write_run_manifest(args.report_json, report)
    else:
        print(json.dumps({"results": report.results}, sort_keys=True, allow_nan=False))
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
    features_a = dict(zip(ids, np.concatenate([a_train, a_test])))
    features_b = dict(zip(ids, np.concatenate([b_train, b_test])))
    write_features(out_dir / "features_a.txt", features_a, dim=cfg.dim_a)
    write_features(out_dir / "features_b.txt", features_b, dim=cfg.dim_b)
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


def _features_equal(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(np.array_equal(a[k], b[k]) for k in a)


def _embeddings_equal(a: EmbeddingTable, b: EmbeddingTable) -> bool:
    return list(a.index) == list(b.index) and np.array_equal(a.matrix, b.matrix)


def _model_equal(a, b) -> bool:
    return (
        a.class_names == b.class_names
        and a.W.tobytes() == b.W.tobytes()
        and a.b.tobytes() == b.b.tobytes()
    )


def _demo_structures():
    table = EmbeddingTable(["sun", "sea"], [[0.1, -0.2, 0.3], [0.4, 0.5, -0.6]])
    transcriptions = {
        "img-1": TranscriptionRecord(
            "img-1", (TranscribedWord("sun", 0.9), TranscribedWord("sea", 0.4))
        ),
        "img-2": TranscriptionRecord("img-2", ()),
    }
    features = {"img-1": np.array([1.5, -2.25]), "img-2": np.array([0.0, 3.125])}
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
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool) -> None:
        checks.append((name, ok))

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

        write_embeddings(out / "embeddings.txt", table)
        check("embeddings", _embeddings_equal(table, load_embeddings(out / "embeddings.txt")))

        write_transcriptions(out / "transcriptions.jsonl", transcriptions)
        check(
            "transcriptions",
            load_transcriptions(out / "transcriptions.jsonl") == transcriptions,
        )

        write_features(out / "features.txt", features)
        check("features", _features_equal(features, load_features(out / "features.txt")))

        write_manifest(out / "manifest.tsv", manifest)
        check("manifest", load_manifest(out / "manifest.tsv") == manifest)

        write_vqa(out / "vqa.jsonl", vqa)
        check("vqa", load_vqa(out / "vqa.jsonl") == vqa)

        save_model(out / "model.txt", model)
        check("model", _model_equal(model, load_model(out / "model.txt")))

        write_cleaning_report(out / "cleaning.json", report)
        check("cleaning-report", load_cleaning_report(out / "cleaning.json") == report)

        write_run_manifest(out / "run.json", run)
        check("run-manifest", load_run_manifest(out / "run.json") == run)

    failed = False
    for name, ok in checks:
        print(f"{name}: {'OK' if ok else 'FAIL'}")
        failed = failed or not ok
    return 1 if failed else 0


# -- parser ------------------------------------------------------------------------


def _add_seed(parser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")


def _add_train_flags(parser) -> None:
    parser.add_argument("--lr", type=float, default=0.1, help="learning rate (default 0.1)")
    parser.add_argument("--epochs", type=int, default=50, help="training epochs (default 50)")
    parser.add_argument("--batch", type=int, default=64, help="mini-batch size (default 64)")
    parser.add_argument("--l2", type=float, default=0.0, help="L2 penalty (default 0)")


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
    p.add_argument("--scheme", choices=FUSION_SCHEMES, default="mcb")
    p.add_argument("--d", type=int, default=1024, help="sketch dimension for mcb (default 1024)")
    p.add_argument("--seed-a", type=int, default=None, help="sketch seed for --a (default seed+1)")
    p.add_argument("--seed-b", type=int, default=None, help="sketch seed for --b (default seed+2)")
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
    p.add_argument("--interaction", choices=("additive", "multiplicative"), default="multiplicative")
    p.add_argument("--sigma", type=float, default=0.1)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
