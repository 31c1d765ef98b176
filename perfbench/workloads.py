"""Seeded workloads for the scenefuse benchmark.

Each builder writes its inputs under a work directory, using numpy and the
standard library only, and returns a ``Workload``: the CLI commands one pass
runs, the functions a traced pass must see, and the correctness checks to run
on the outputs the pass leaves behind.  The program under test receives only
the generated files; nothing here is shared with it except the sketch oracle
(``make_sketch_params``/``outer_sketch_oracle``), which the mcb check uses as
the reference.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# synth_mcb: the README walkthrough.  d=1000 takes the direct circulant path,
# d=1024 the radix-2 FFT path.
SYNTH_TRAIN, SYNTH_TEST, SYNTH_DIM, SYNTH_CLASSES = 600, 150, 32, 8
MCB_DIMS = (1000, 1024)
# 600 rows give a third of the SGD steps the README's 4000-row run takes;
# lr 0.5 for 100 epochs trains mcb to >= 98 % on seeds 0-19 (defaults: 90 %).
SYNTH_LR, SYNTH_EPOCHS = "0.5", "100"
ORACLE_ROWS = 40
# The seed's power-of-two path leaves ~2e-9 after signed sqrt where the oracle
# has exact zeros; this tolerance admits it and must not be tightened.
ORACLE_ATOL = 1e-6

# text_topic: Zipf OCR corpus with topic words and a lexicon that misses ~10 %
# of the vocabulary (every tenth word by frequency rank).
TOPIC_IMAGES, TOPIC_WORDS_PER_IMAGE, TOPIC_COUNT = 2500, 20, 10
TOPIC_VOCAB, TOPIC_WORDS_PER_TOPIC, TOPIC_WORD_SHARE = 11_111, 100, 0.35
LEXICON_DIM, IMAGE_DIM = 300, 64
TEXT_THRESHOLD, TEXT_KS = 0.7, (1, 5)
TEXT_SAMPLE_ROWS = 200
TEXT_ATOL = 1e-9

# vqa_answers: answers are the image's object (64-d image features) or the
# scene text's label (300-d text features), chosen by the question type.
VQA_IMAGES, VQA_QUESTIONS, VQA_LEXICON, VQA_ANSWERS = 2500, 10_000, 2000, 200
VQA_WORDS_PER_QUESTION, VQA_TYPE_WORDS, VQA_OBJECT_SHARE, VQA_EPOCHS = 8, 3, 0.6, 20

TEST_SHARE = 0.2


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Workload:
    name: str
    rows: int  # input rows (images or questions) one pass processes
    commands: list[tuple[str, list[str]]]  # (command kind, argv after "scenefuse")
    expected: tuple[str, ...]  # "<layer>.<function>" a traced pass must record
    sizes: dict
    # run after a pass: (checks, headline accuracy in %, sketch diagnostics)
    verify: Callable[[], tuple[list[Check], float, dict[str, float]]]


# -- shared writers and readers ------------------------------------------------


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


# Generated values are multiples of 1e-4 in [-VALUE_LIMIT, VALUE_LIMIT], written
# from a string table; k / 1e4 is the double that parsing the string gives.
VALUE_LIMIT = 4.0
_TABLE_SIZE = int(VALUE_LIMIT * 10_000)
_STRINGS = np.array([f"{k / 10_000:.4f}" for k in range(-_TABLE_SIZE, _TABLE_SIZE + 1)], dtype=object)


def _quantize(X: np.ndarray) -> np.ndarray:
    """Round to the grid the writers can print: integer multiples of 1e-4."""
    return np.rint(np.clip(X, -VALUE_LIMIT, VALUE_LIMIT) * 10_000).astype(np.int64)


def _write_table(path: Path, keys: list[str], Q: np.ndarray, sep: str) -> None:
    """A feature file (sep "\\t") or a lexicon (sep " "): count/dim header, then rows."""
    strings = _STRINGS[Q + _TABLE_SIZE]
    lines = [f"{len(keys)} {Q.shape[1]}"] + [k + sep + " ".join(row) for k, row in zip(keys, strings)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_manifest(path: Path, ids: list[str], labels: list[str], test: np.ndarray) -> None:
    lines = [f"{i}\t{lab}\t{'test' if t else 'train'}" for i, lab, t in zip(ids, labels, test)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_feature_rows(path: Path, wanted: set[str]) -> dict[str, np.ndarray]:
    """Parse the rows of a feature file whose id is in ``wanted``."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            image_id, blob = line.rstrip("\n").split("\t")
            if image_id in wanted:
                rows[image_id] = np.array(list(map(float, blob.split(" "))))
    return rows


def _exact_zero_ratio(path: Path) -> float:
    zeros = total = 0
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            values = line.rstrip("\n").split("\t")[1].split(" ")
            zeros += values.count("0.0") + values.count("-0.0")
            total += len(values)
    return zeros / total


def _pseudo_words(rng: np.random.Generator, count: int) -> list[str]:
    """``count`` distinct lowercase words of 3 to 9 letters."""
    letters = rng.integers(ord("a"), ord("z") + 1, (2 * count, 9), dtype=np.uint8)
    lengths = rng.integers(3, 10, 2 * count)
    words = dict.fromkeys(row[:n].tobytes().decode() for row, n in zip(letters, lengths))
    return list(words)[:count]


def _zipf(n: int, exponent: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** exponent
    return p / p.sum()


def _test_mask(rng: np.random.Generator, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, int(n * TEST_SHARE), replace=False)] = True
    return mask


def _cells(report_path: Path) -> dict[str, float]:
    report = json.loads(report_path.read_text(encoding="utf-8"))
    return {cell["row"]: cell["accuracy"] for cell in report["results"]["cells"]}


# -- synth_mcb -----------------------------------------------------------------


def _signed_sqrt_l2(v: np.ndarray) -> np.ndarray:
    v = np.sign(v) * np.sqrt(np.abs(v))
    norm = np.linalg.norm(v)
    return v / norm if norm else v


def synth_mcb(work: Path, seed: int) -> Workload:
    from scenefuse.sketch import make_sketch_params, outer_sketch_oracle

    out = work / "synth"
    a, b, manifest = out / "features_a.txt", out / "features_b.txt", out / "manifest.tsv"
    fused = {d: work / f"fused_mcb{d}.txt" for d in MCB_DIMS}
    concat = work / "fused_concat.txt"
    report = work / "report.json"
    sketch_seed = 1000 + seed
    commands = [
        ("synth", ["synth", "--out", str(out), "--n-train", str(SYNTH_TRAIN),
                   "--n-test", str(SYNTH_TEST), "--dim-a", str(SYNTH_DIM),
                   "--dim-b", str(SYNTH_DIM), "--classes", str(SYNTH_CLASSES),
                   "--interaction", "multiplicative", "--sigma", "0.1", "--seed", str(seed)]),
    ]
    for d in MCB_DIMS:
        commands.append(("fuse", ["fuse", "--a", str(a), "--b", str(b), "--out", str(fused[d]),
                                  "--scheme", "mcb", "--d", str(d), "--seed", str(sketch_seed)]))
    commands.append(("fuse", ["fuse", "--a", str(a), "--b", str(b), "--out", str(concat),
                              "--scheme", "concat"]))
    cells = [("single-a", a), ("concat", concat)] + [(f"mcb-{d}", fused[d]) for d in MCB_DIMS]
    train_eval = ["train-eval", "--manifest", str(manifest), "--report-json", str(report),
                  "--lr", SYNTH_LR, "--epochs", SYNTH_EPOCHS, "--seed", str(seed)]
    for row, path in cells:
        train_eval += ["--cell", f"{row}:acc:{path}"]
    commands.append(("train-eval", train_eval))

    def verify():
        checks: list[Check] = []
        diag: dict[str, float] = {}
        n = SYNTH_TRAIN + SYNTH_TEST
        pick = _rng(seed, 9).choice(n, ORACLE_ROWS, replace=False)
        ids = {f"synth-{i:06d}" for i in pick}
        rows_a, rows_b = read_feature_rows(a, ids), read_feature_rows(b, ids)
        for d in MCB_DIMS:
            params = json.loads(Path(str(fused[d]) + ".run.json").read_text())["params"]
            px = make_sketch_params(SYNTH_DIM, d, params["seed_a"])
            py = make_sketch_params(SYNTH_DIM, d, params["seed_b"])
            got = read_feature_rows(fused[d], ids)
            err = max(
                float(np.abs(got[i] - _signed_sqrt_l2(outer_sketch_oracle(rows_a[i], rows_b[i], px, py))).max())
                for i in ids
            )
            checks.append(Check(f"mcb d={d} equals signed-sqrt-L2 oracle", err <= ORACLE_ATOL,
                                f"max abs err {err:.3g} over {len(ids)} rows, tol {ORACLE_ATOL:g}"))
            reach = np.bincount(((px.h[:, None] + py.h[None, :]) % d).ravel(), minlength=d)
            diag[f"sketch.structural_zero_ratio.d{d}"] = float(np.mean(reach == 0))
            diag[f"sketch.exact_zero_ratio.d{d}"] = _exact_zero_ratio(fused[d])
            diag[f"sketch.oracle_max_abs_err.d{d}"] = err
        got = read_feature_rows(concat, ids)
        same = all(np.array_equal(got[i], np.concatenate([rows_a[i], rows_b[i]])) for i in ids)
        checks.append(Check("concat rows equal [a|b]", same, f"{len(ids)} rows"))
        acc = _cells(report)
        for d in MCB_DIMS:
            mcb = acc[f"mcb-{d}"]
            checks.append(Check(f"mcb-{d} accuracy >= 95%", mcb >= 0.95, f"{mcb:.4f}"))
            checks.append(Check(f"mcb-{d} beats concat", mcb > acc["concat"],
                                f"{mcb:.4f} vs {acc['concat']:.4f}"))
        return checks, 100.0 * min(acc[f"mcb-{d}"] for d in MCB_DIMS), diag

    return Workload(
        name="synth_mcb",
        rows=SYNTH_TRAIN + SYNTH_TEST,
        commands=commands,
        expected=("data.make_synthetic", "io.write_features", "io.load_features",
                  "sketch.fuse_rows", "sketch.make_sketch_params", "sketch.mcb_fuse_batch",
                  "data.join_labeled", "classifier.train", "classifier.evaluate"),
        sizes={"n_train": SYNTH_TRAIN, "n_test": SYNTH_TEST, "dim_a": SYNTH_DIM,
               "dim_b": SYNTH_DIM, "classes": SYNTH_CLASSES, "d": list(MCB_DIMS),
               "sketch_seed": sketch_seed},
        verify=verify,
    )


# -- text_topic ----------------------------------------------------------------


def _topic_corpus(seed: int):
    """Words, lexicon rows, per-image (tokens, confidences), topics and image features."""
    rng = _rng(seed, 1)
    words = _pseudo_words(rng, TOPIC_VOCAB)
    n_topic_words = TOPIC_COUNT * TOPIC_WORDS_PER_TOPIC
    # rank order: topic words interleave the background, so the lexicon's
    # missing words (rank % 10 == 9) hit both kinds
    topic_rank = rng.choice(TOPIC_VOCAB, n_topic_words, replace=False)
    background_rank = np.setdiff1d(np.arange(TOPIC_VOCAB), topic_rank)
    background_p = _zipf(background_rank.size, 1.07)
    topic_p = _zipf(TOPIC_WORDS_PER_TOPIC, 0.8)

    topics = rng.integers(0, TOPIC_COUNT, TOPIC_IMAGES)
    n = TOPIC_WORDS_PER_IMAGE
    is_topic = rng.random((TOPIC_IMAGES, n)) < TOPIC_WORD_SHARE
    bg = background_rank[rng.choice(background_rank.size, (TOPIC_IMAGES, n), p=background_p)]
    tw = rng.choice(TOPIC_WORDS_PER_TOPIC, (TOPIC_IMAGES, n), p=topic_p)
    tw = topic_rank[topics[:, None] * TOPIC_WORDS_PER_TOPIC + tw]
    ranks = np.where(is_topic, tw, bg)
    confs = np.round(rng.uniform(0.3, 1.0, (TOPIC_IMAGES, n)), 3)

    centroids = rng.standard_normal((TOPIC_COUNT, LEXICON_DIM)) * 0.4
    embed = rng.standard_normal((TOPIC_VOCAB, LEXICON_DIM)) * 0.4
    word_topic = np.full(TOPIC_VOCAB, -1)
    word_topic[topic_rank] = np.repeat(np.arange(TOPIC_COUNT), TOPIC_WORDS_PER_TOPIC)
    has_topic = word_topic >= 0
    embed[has_topic] = 0.6 * centroids[word_topic[has_topic]] + 0.8 * embed[has_topic]
    embed = _quantize(embed)
    in_lexicon = np.arange(TOPIC_VOCAB) % 10 != 9

    protos = rng.standard_normal((TOPIC_COUNT, IMAGE_DIM))
    image = _quantize(0.35 * protos[topics] + rng.standard_normal((TOPIC_IMAGES, IMAGE_DIM)))
    test = _test_mask(rng, TOPIC_IMAGES)
    return words, embed, in_lexicon, ranks, confs, topics, image, test


def _expected_text_features(docs, ids, lexicon, dim, k):
    """Independent recomputation: filter, brute-force tf-idf, then a sorted sum."""
    kept = {i: [t for t, c in docs[i] if c >= TEXT_THRESHOLD] for i in ids}
    df = Counter(t for i in ids for t in set(kept[i]))
    n_docs = len(ids)
    features, misses = {}, 0
    for i in ids:
        tf = Counter(kept[i])
        scores = {t: c * math.log(n_docs / df[t]) for t, c in tf.items()}
        chosen = sorted(scores, key=lambda t: (-scores[t], t))[:k]
        total = np.zeros(dim)
        for t in sorted(chosen):
            if t in lexicon:
                total += lexicon[t]
            else:
                misses += 1
        features[i] = total
    return features, misses


def text_topic(work: Path, seed: int) -> Workload:
    words, embed, in_lexicon, ranks, confs, topics, image, test = _topic_corpus(seed)
    ids = [f"img-{i:05d}" for i in range(TOPIC_IMAGES)]
    ocr, lexicon_path = work / "ocr.jsonl", work / "lexicon.txt"
    image_path, manifest = work / "image.txt", work / "manifest.tsv"
    docs = {}
    lines = []
    for i, image_id in enumerate(ids):
        docs[image_id] = [(words[r], c) for r, c in zip(ranks[i].tolist(), confs[i].tolist())]
        record = {"image_id": image_id,
                  "words": [{"token": t, "conf": c} for t, c in docs[image_id]]}
        lines.append(json.dumps(record))
    ocr.write_text("\n".join(lines) + "\n", encoding="utf-8")
    lex_rows = np.flatnonzero(in_lexicon)
    _write_table(lexicon_path, [words[r] for r in lex_rows], embed[lex_rows], " ")
    _write_table(image_path, ids, image, "\t")
    _write_manifest(manifest, ids, [f"topic{t:02d}" for t in topics], test)

    text_out = {k: work / f"text_k{k}.txt" for k in TEXT_KS}
    concat = work / "fused_concat_k5.txt"
    report = work / "report.json"
    featurize = ["featurize-text", "--transcriptions", str(ocr), "--embeddings", str(lexicon_path),
                 "--manifest", str(manifest), "--out", str(work / "text_k{k}.txt"),
                 "--threshold", str(TEXT_THRESHOLD)]
    for k in TEXT_KS:
        featurize += ["--k", str(k)]
    commands = [
        ("featurize-text", featurize),
        ("fuse", ["fuse", "--a", str(image_path), "--b", str(text_out[5]), "--out", str(concat),
                  "--scheme", "concat"]),
        ("train-eval", ["train-eval", "--manifest", str(manifest),
                        "--cell", f"image:acc:{image_path}", "--cell", f"text-k5:acc:{text_out[5]}",
                        "--cell", f"concat-k5:acc:{concat}", "--report-json", str(report),
                        "--seed", str(seed)]),
    ]
    occurrences = ranks.size
    missing_share = float(np.mean(~in_lexicon[ranks]))

    def verify():
        checks: list[Check] = []
        lexicon = {words[r]: embed[r] / 10_000 for r in lex_rows}
        sample = set(_rng(seed, 9).choice(ids, TEXT_SAMPLE_ROWS, replace=False).tolist())
        for k in TEXT_KS:
            expected, misses = _expected_text_features(docs, ids, lexicon, LEXICON_DIM, k)
            got = read_feature_rows(text_out[k], sample)
            err = max(float(np.abs(got[i] - expected[i]).max()) for i in sample)
            checks.append(Check(f"text k={k} rows equal filter/tf-idf/sorted-sum recomputation",
                                err <= TEXT_ATOL, f"max abs err {err:.3g} over {len(sample)} rows"))
            run = json.loads(Path(str(text_out[k]) + ".run.json").read_text())
            reported = run["results"]["lexicon_misses"]
            checks.append(Check(f"text k={k} lexicon_misses equals recount", reported == misses,
                                f"{reported} vs {misses}"))
        return checks, 100.0 * _cells(report)["concat-k5"], {}

    return Workload(
        name="text_topic",
        rows=TOPIC_IMAGES,
        commands=commands,
        expected=("io.load_transcriptions", "io.load_embeddings", "io.load_features",
                  "io.write_features", "data.clean_corpus", "text.filter_by_confidence",
                  "text.fit_tfidf", "text.select_top_k", "text.aggregate", "sketch.fuse_rows",
                  "data.join_labeled", "classifier.train", "classifier.evaluate"),
        sizes={"images": TOPIC_IMAGES, "words_per_image": TOPIC_WORDS_PER_IMAGE,
               "vocab": TOPIC_VOCAB, "lexicon": int(lex_rows.size), "lexicon_dim": LEXICON_DIM,
               "image_dim": IMAGE_DIM, "topics": TOPIC_COUNT, "k": list(TEXT_KS),
               "threshold": TEXT_THRESHOLD, "word_occurrences": occurrences,
               "missing_occurrence_share": round(missing_share, 4)},
        verify=verify,
    )


# -- vqa_answers ---------------------------------------------------------------


def vqa_answers(work: Path, seed: int) -> Workload:
    rng = _rng(seed, 2)
    words = _pseudo_words(rng, VQA_LEXICON)
    qlex = _quantize(rng.standard_normal((VQA_LEXICON, LEXICON_DIM)) * 0.4)
    object_words = np.arange(0, 12)
    text_words = np.arange(12, 24)
    fillers = np.arange(24, VQA_LEXICON)

    objects = rng.choice(VQA_ANSWERS, VQA_IMAGES, p=_zipf(VQA_ANSWERS, 0.5))
    labels = rng.choice(VQA_ANSWERS, VQA_IMAGES, p=_zipf(VQA_ANSWERS, 0.5))
    image = _quantize(rng.standard_normal((VQA_ANSWERS, IMAGE_DIM))[objects]
                      + 0.7 * rng.standard_normal((VQA_IMAGES, IMAGE_DIM)))
    text = _quantize(0.3 * rng.standard_normal((VQA_ANSWERS, LEXICON_DIM))[labels]
                     + 0.4 * rng.standard_normal((VQA_IMAGES, LEXICON_DIM)))
    test = _test_mask(rng, VQA_IMAGES)
    ids = [f"img-{i:05d}" for i in range(VQA_IMAGES)]

    per_image = VQA_QUESTIONS // VQA_IMAGES
    q_image = np.repeat(np.arange(VQA_IMAGES), per_image)
    asks_object = rng.random(q_image.size) < VQA_OBJECT_SHARE
    answers = np.where(asks_object, objects[q_image], labels[q_image])
    lines = []
    for q, img in enumerate(q_image.tolist()):
        pool = object_words if asks_object[q] else text_words
        picked = np.concatenate([rng.choice(pool, VQA_TYPE_WORDS, replace=False),
                                 rng.choice(fillers, VQA_WORDS_PER_QUESTION - VQA_TYPE_WORDS)])
        question = " ".join(words[w] for w in rng.permutation(picked)) + "?"
        lines.append(json.dumps({"image_id": ids[img], "question": question,
                                 "answer": f"ans{answers[q]:03d}"}))

    vqa, qlex_path, manifest = work / "vqa.jsonl", work / "question_lexicon.txt", work / "manifest.tsv"
    image_path, text_path, report = work / "image.txt", work / "text.txt", work / "vqa_report.json"
    vqa.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_table(qlex_path, words, qlex, " ")
    _write_table(image_path, ids, image, "\t")
    _write_table(text_path, ids, text, "\t")
    _write_manifest(manifest, ids, [f"obj{o:03d}" for o in objects], test)
    commands = [
        ("vqa", ["vqa", "--vqa", str(vqa), "--manifest", str(manifest), "--embeddings", str(qlex_path),
                 "--image-features", str(image_path), "--text-features", str(text_path),
                 "--mode", "question-image-text", "--answer-vocab", str(VQA_ANSWERS),
                 "--epochs", str(VQA_EPOCHS), "--report-json", str(report), "--seed", str(seed)]),
    ]
    q_test = test[q_image]
    majority_answer = Counter(answers[~q_test].tolist()).most_common(1)[0][0]
    baseline = float(np.mean(answers[q_test] == majority_answer))

    def verify():
        results = json.loads(report.read_text(encoding="utf-8"))["results"]
        acc = results["accuracy"]
        checks = [
            Check("vqa accuracy beats the majority-answer baseline", acc > baseline,
                  f"{acc:.4f} vs {baseline:.4f}"),
            Check("vqa test count equals generated test questions",
                  results["n_test"] == int(q_test.sum()), f"{results['n_test']}"),
        ]
        return checks, 100.0 * acc, {}

    return Workload(
        name="vqa_answers",
        rows=VQA_QUESTIONS,
        commands=commands,
        expected=("io.load_vqa", "io.load_embeddings", "io.load_features", "text.tokenize",
                  "text.aggregate", "classifier.train"),
        sizes={"images": VQA_IMAGES, "questions": VQA_QUESTIONS, "lexicon": VQA_LEXICON,
               "lexicon_dim": LEXICON_DIM, "image_dim": IMAGE_DIM, "answers": VQA_ANSWERS,
               "words_per_question": VQA_WORDS_PER_QUESTION, "epochs": VQA_EPOCHS,
               "majority_baseline": round(baseline, 4)},
        verify=verify,
    )


WORKLOADS = {"synth_mcb": synth_mcb, "text_topic": text_topic, "vqa_answers": vqa_answers}
