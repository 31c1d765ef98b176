"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np

from scenefuse.classifier import (
    ClassifierModel,
    LabeledSet,
    TrainConfig,
    evaluate,
    init_model,
    loss_and_grad,
    train,
)
from scenefuse.cli import main as cli_main
from scenefuse.data import SynthConfig, clean_corpus, make_synthetic
from scenefuse.io import (
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
from scenefuse.sketch import (
    FusionSpec,
    circular_convolve,
    circular_convolve_naive,
    count_sketch,
    fuse_rows,
    make_sketch_params,
    mcb_fuse_batch,
    outer_sketch_oracle,
)
from scenefuse.text import RowTable


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_tensor_sketch_identity():
    rng = np.random.default_rng(20_24)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        n1 = int(rng.integers(1, 33))
        n2 = int(rng.integers(1, 33))
        d = int(rng.choice([7, 8, 12, 16, 33, 64]))
        seed = int(rng.integers(0, 2**62))
        px = make_sketch_params(n1, d, seed=seed)
        py = make_sketch_params(n2, d, seed=seed + 1)
        x = rng.standard_normal(n1)
        y = rng.standard_normal(n2)
        fused = mcb_fuse_batch(x, y, px, py, normalize=False)
        oracle = outer_sketch_oracle(x, y, px, py)
        worst = max(worst, float(np.abs(fused - oracle).max()))
    elapsed = time.perf_counter() - started
    _report(
        "tensor-sketch identity: 200 random cases, unnormalized fusion equals the "
        "materialized outer-product sketch within 1e-9",
        worst < 1e-9 and elapsed < 5.0,
        f"max abs diff {worst:.3e}, {elapsed:.2f}s",
    )


def test_fft_convolution_matches_naive_oracle():
    rng = np.random.default_rng(31_337)
    worst = 0.0
    for trial in range(100):
        d = int(rng.choice([2, 4, 7, 8, 12, 16, 32, 33, 64]))  # any length takes the FFT path
        a = rng.standard_normal(d)
        b = rng.standard_normal(d)
        diff = np.abs(circular_convolve(a, b) - circular_convolve_naive(a, b)).max()
        worst = max(worst, float(diff))
    _report(
        "FFT correctness: 100 random pairs (d <= 64), FFT path matches the naive "
        "O(d^2) oracle within 1e-9",
        worst < 1e-9,
        f"max abs diff {worst:.3e}",
    )


def test_sketch_inner_product_unbiased():
    rng = np.random.default_rng(55)
    x = rng.standard_normal(16)
    y = rng.standard_normal(16)
    truth = float(x @ y)
    assert abs(truth) > 0.1
    started = time.perf_counter()
    m_seeds = 10_000
    estimates = np.empty(m_seeds)
    for m in range(m_seeds):
        p = make_sketch_params(16, 16, seed=700_000 + m)
        estimates[m] = count_sketch(x, p) @ count_sketch(y, p)
    elapsed = time.perf_counter() - started
    stderr = estimates.std(ddof=1) / math.sqrt(m_seeds)
    gap = abs(estimates.mean() - truth)
    _report(
        "sketch unbiasedness: over 10000 seeds the mean sketched inner product is "
        "within 3 standard errors of the true inner product",
        gap < 3 * stderr and elapsed < 10.0,
        f"|mean-truth| {gap:.4f} vs 3*SE {3 * stderr:.4f}, {elapsed:.2f}s",
    )


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(404)
    step = 1e-5
    worst = 0.0
    for trial in range(24):
        dims = int(rng.integers(2, 9))
        classes = int(rng.integers(2, 7))
        model = ClassifierModel(
            W=rng.standard_normal((classes, dims)) * 0.5,
            b=rng.standard_normal(classes) * 0.2,
            class_names=[f"c{i}" for i in range(classes)],
        )
        rows, labels = [], []
        for _ in range(int(rng.integers(1, 7))):
            rows.append(rng.standard_normal(dims))
            labels.append(int(rng.integers(0, classes)))
        batch = LabeledSet(X=np.stack(rows), y=np.array(labels))
        l2 = float(rng.choice([0.0, 0.05, 0.3]))
        _, grad_w, grad_b = loss_and_grad(model, batch, l2)

        def loss_at(W, b):
            probe = ClassifierModel(W=W, b=b, class_names=model.class_names)
            return loss_and_grad(probe, batch, l2)[0]

        for idx in np.ndindex(model.W.shape):
            up, down = model.W.copy(), model.W.copy()
            up[idx] += step
            down[idx] -= step
            numeric = (loss_at(up, model.b) - loss_at(down, model.b)) / (2 * step)
            denom = max(abs(numeric), abs(grad_w[idx]), 1e-8)
            worst = max(worst, abs(numeric - grad_w[idx]) / denom)
        for i in range(classes):
            up, down = model.b.copy(), model.b.copy()
            up[i] += step
            down[i] -= step
            numeric = (loss_at(model.W, up) - loss_at(model.W, down)) / (2 * step)
            denom = max(abs(numeric), abs(grad_b[i]), 1e-8)
            worst = max(worst, abs(numeric - grad_b[i]) / denom)
    _report(
        "gradient check: 24 random classifier instances, analytic gradients match "
        "central finite differences (h=1e-5) with max relative error < 1e-5",
        worst < 1e-5,
        f"max rel err {worst:.3e}",
    )


def _brute_force_top_k(record, corpus, k):
    # independent scorer: explicit df scan, dict arithmetic, selection by repeated max
    n_docs = 0
    df = {}
    for rec in corpus:
        n_docs += 1
        seen = []
        for word in rec.words:
            if word.token not in seen:
                seen.append(word.token)
        for token in seen:
            df[token] = df.get(token, 0) + 1
    tf = {}
    for word in record.words:
        tf[word.token] = tf.get(word.token, 0) + 1
    scores = {}
    for token, count in tf.items():
        scores[token] = count * math.log(n_docs / df.get(token, 1))
    chosen = []
    while scores and len(chosen) < k:
        best = None
        for token, score in scores.items():
            if (
                best is None
                or score > scores[best]
                or (score == scores[best] and token < best)
            ):
                best = token
        chosen.append(best)
        del scores[best]
    return chosen


def test_tfidf_selection_matches_brute_force(fixtures_dir):
    from scenefuse.text import fit_tfidf, select_top_k

    corpus = list(load_transcriptions(fixtures_dir / "transcriptions.jsonl").values())
    model = fit_tfidf(corpus)
    mismatches = []
    for record in corpus:
        for k in (1, 3, 5):
            fast = select_top_k(record, model, k)
            slow = _brute_force_top_k(record, corpus, k)
            if fast != slow:
                mismatches.append((record.image_id, k, fast, slow))
    _report(
        "tf-idf oracle: top-k selection on the fixture corpus equals an independent "
        "brute-force scorer for k in {1,3,5}, exact list equality",
        not mismatches,
        f"{len(corpus)} records checked" + (f", first mismatch {mismatches[0]}" if mismatches else ""),
    )


def _fit_and_score(x_train, y_train, x_test, y_test, n_classes, seed=7):
    names = [f"class{i:03d}" for i in range(n_classes)]
    train_set = LabeledSet(X=x_train, y=y_train)
    test_set = LabeledSet(X=x_test, y=y_test)
    cfg = TrainConfig(learning_rate=0.1, epochs=50, batch_size=64, seed=seed)
    trained, _ = train(init_model(x_train.shape[1], names, seed=seed), train_set, cfg)
    accuracy, _ = evaluate(trained, test_set)
    return accuracy


def test_fusion_ordering_on_multiplicative_synthetic():
    started = time.perf_counter()
    cfg = SynthConfig(
        n_train=4000, n_test=1000, dim_a=32, dim_b=32, n_classes=8,
        interaction="multiplicative", noise_sigma=0.1, seed=2024,
    )
    (a_train, b_train, y_train), (a_test, b_test, y_test) = make_synthetic(cfg)

    acc_a = _fit_and_score(a_train, y_train, a_test, y_test, cfg.n_classes)
    acc_b = _fit_and_score(b_train, y_train, b_test, y_test, cfg.n_classes)
    acc_concat = _fit_and_score(
        np.hstack([a_train, b_train]), y_train, np.hstack([a_test, b_test]), y_test, cfg.n_classes
    )
    spec = FusionSpec(scheme="mcb", sketch_dim=256, seeds=(101, 102), normalize=True)
    acc_mcb = _fit_and_score(
        fuse_rows(a_train, b_train, spec), y_train,
        fuse_rows(a_test, b_test, spec), y_test, cfg.n_classes,
    )
    elapsed = time.perf_counter() - started

    chance = 1.0 / cfg.n_classes
    best_single = max(acc_a, acc_b)
    ok = (
        acc_mcb > acc_concat > best_single
        and abs(acc_a - chance) <= 0.10
        and abs(acc_b - chance) <= 0.10
        and acc_mcb >= 0.60
        and elapsed < 60.0
    )
    _report(
        "fusion ordering on multiplicative synthetic data: mcb > concat > best "
        "single modality, singles at chance (0.125 +/- 0.10), mcb >= 0.60, under 60s",
        ok,
        f"a={acc_a:.3f} b={acc_b:.3f} concat={acc_concat:.3f} mcb={acc_mcb:.3f}, {elapsed:.1f}s",
    )


TOPIC_SEED = 7  # fixed before the first run, at the workload's own size


def test_scene_text_adds_to_image_features_on_the_topic_corpus(tmp_path, perfbench):
    # the paper's claim, on the text_topic workload's corpus through the CLI chain:
    # featurize-text, fuse --scheme concat, train-eval with image, text and fused cells
    started = time.perf_counter()
    workload = perfbench("workloads").text_topic(tmp_path, TOPIC_SEED)
    commands = dict(workload.commands)
    assert list(commands) == ["featurize-text", "fuse", "train-eval"]
    assert cli_main(commands["featurize-text"]) == 0
    assert cli_main(commands["fuse"]) == 0
    # negative control: the same text rows, each under another image's id
    text = load_features(tmp_path / "text_k5.txt")
    order = np.random.default_rng(TOPIC_SEED).permutation(len(text))
    write_features(tmp_path / "permuted_k5.txt", RowTable(list(text), text.matrix[order]))
    assert cli_main([
        "fuse", "--a", str(tmp_path / "image.txt"), "--b", str(tmp_path / "permuted_k5.txt"),
        "--out", str(tmp_path / "permuted_concat_k5.txt"), "--scheme", "concat",
    ]) == 0
    cell = f"permuted-concat-k5:acc:{tmp_path / 'permuted_concat_k5.txt'}"
    assert cli_main(commands["train-eval"] + ["--cell", cell]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    acc = {cell["row"]: cell["accuracy"] for cell in report["results"]["cells"]}
    elapsed = time.perf_counter() - started

    gain, permuted_gain = acc["concat-k5"] - acc["image"], acc["permuted-concat-k5"] - acc["image"]
    # measured at seed 7: a gain of 18.0 points over image, and -5.8 points once permuted
    ok = acc["concat-k5"] > max(acc["image"], acc["text-k5"]) and permuted_gain < gain / 4
    _report(
        "scene text adds to image features: concat-k5 beats image and text-k5, and text rows "
        "permuted across ids keep less than a quarter of concat's gain over image",
        ok,
        ", ".join(f"{name}={value:.4f}" for name, value in sorted(acc.items()))
        + f", {elapsed:.1f}s",
    )


def test_reruns_are_byte_identical(fixtures_dir, tmp_path):
    def snapshot(paths):
        return {p.name: p.read_bytes() for p in paths}

    synth_dir = tmp_path / "synth"
    synth_args = [
        "synth", "--out", str(synth_dir), "--n-train", "60", "--n-test", "20",
        "--dim-a", "6", "--dim-b", "5", "--classes", "3", "--seed", "12",
    ]
    assert cli_main(synth_args) == 0
    synth_files = [synth_dir / n for n in ("features_a.txt", "features_b.txt", "manifest.tsv", "run.json")]
    first_synth = snapshot(synth_files)

    text_out = tmp_path / "text.txt"
    feat_args = [
        "featurize-text",
        "--transcriptions", str(fixtures_dir / "transcriptions.jsonl"),
        "--embeddings", str(fixtures_dir / "embeddings.txt"),
        "--out", str(text_out), "--k", "3",
    ]
    assert cli_main(feat_args) == 0
    first_text = text_out.read_bytes()

    fused_out = tmp_path / "fused.txt"
    fuse_args = [
        "fuse", "--a", str(fixtures_dir / "image_features.txt"), "--b", str(text_out),
        "--out", str(fused_out), "--scheme", "mcb", "--d", "16", "--seed", "5",
    ]
    assert cli_main(fuse_args) == 0
    first_fused = fused_out.read_bytes()

    report_out = tmp_path / "report.json"
    eval_args = [
        "train-eval", "--manifest", str(fixtures_dir / "manifest.tsv"),
        "--features", str(fused_out), "--report-json", str(report_out), "--seed", "5",
    ]
    assert cli_main(eval_args) == 0
    first_report = report_out.read_bytes()

    assert cli_main(synth_args) == 0
    assert cli_main(feat_args) == 0
    assert cli_main(fuse_args) == 0
    assert cli_main(eval_args) == 0

    ok = (
        snapshot(synth_files) == first_synth
        and text_out.read_bytes() == first_text
        and fused_out.read_bytes() == first_fused
        and report_out.read_bytes() == first_report
    )
    _report(
        "determinism: rerunning synth, featurize-text, fuse and train-eval with the "
        "same run manifest reproduces byte-identical files and metrics",
        ok,
    )


def test_every_format_round_trips_on_fixture_corpus(fixtures_dir, tmp_path):
    failures = []

    table = load_embeddings(fixtures_dir / "embeddings.txt")
    write_embeddings(tmp_path / "emb.txt", table)
    if load_embeddings(tmp_path / "emb.txt") != table:
        failures.append("embeddings")

    transcriptions = load_transcriptions(fixtures_dir / "transcriptions.jsonl")
    write_transcriptions(tmp_path / "t.jsonl", transcriptions)
    if load_transcriptions(tmp_path / "t.jsonl") != transcriptions:
        failures.append("transcriptions")

    features = load_features(fixtures_dir / "image_features.txt")
    write_features(tmp_path / "f.txt", features)
    if load_features(tmp_path / "f.txt") != features:
        failures.append("features")

    manifest = load_manifest(fixtures_dir / "manifest.tsv")
    write_manifest(tmp_path / "m.tsv", manifest)
    if load_manifest(tmp_path / "m.tsv") != manifest:
        failures.append("manifest")

    vqa = load_vqa(fixtures_dir / "vqa.jsonl")
    write_vqa(tmp_path / "v.jsonl", vqa)
    if load_vqa(tmp_path / "v.jsonl") != vqa:
        failures.append("vqa")

    model = init_model(table.dim, manifest.class_names(), seed=17)
    save_model(tmp_path / "model.txt", model)
    loaded = load_model(tmp_path / "model.txt")
    if not (
        loaded.class_names == model.class_names
        and loaded.W.tobytes() == model.W.tobytes()
        and loaded.b.tobytes() == model.b.tobytes()
    ):
        failures.append("model")

    _, report = clean_corpus(transcriptions, 0.7)
    write_cleaning_report(tmp_path / "clean.json", report)
    if load_cleaning_report(tmp_path / "clean.json") != report:
        failures.append("cleaning-report")

    run = RunManifest(
        tool="scenefuse", version="0.1.0", command="formats-check",
        params={"fixtures": str(fixtures_dir)}, results={"files": 5},
    )
    write_run_manifest(tmp_path / "run.json", run)
    if load_run_manifest(tmp_path / "run.json") != run:
        failures.append("run-manifest")

    _report(
        "format round-trip: every file format writes then reads to an equal "
        "in-memory structure on the fixture corpus",
        not failures,
        "failed: " + ", ".join(failures) if failures else "8 formats",
    )
