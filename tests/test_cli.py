import json
import subprocess
import sys

import numpy as np
import pytest

from scenefuse.classifier import evaluate
from scenefuse.cli import main
from scenefuse.data import clean_corpus, join_labeled
from scenefuse.io import (
    load_embeddings,
    load_features,
    load_manifest,
    load_model,
    load_run_manifest,
    load_transcriptions,
)
from scenefuse.sketch import make_sketch_params
from scenefuse.text import fit_tfidf, select_top_k


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestFeaturizeText:
    def test_k1_features_are_single_embeddings(self, fixtures_dir, tmp_path):
        out = tmp_path / "text_k1.txt"
        assert run_cli(
            "featurize-text",
            "--transcriptions", fixtures_dir / "transcriptions.jsonl",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--out", out, "--k", 1,
        ) == 0
        features = load_features(out)
        assert len(features) == 12  # keep mode: one row per input image
        table = load_embeddings(fixtures_dir / "embeddings.txt")
        cleaned, _ = clean_corpus(load_transcriptions(fixtures_dir / "transcriptions.jsonl"), 0.7)
        for image_id, record in cleaned.items():
            if record.words:
                assert any(
                    np.array_equal(features[image_id], table.get(tok))
                    for tok in set(record.tokens())
                    if tok in table
                ), image_id
            else:
                assert np.array_equal(features[image_id], np.zeros(6))

    def test_selected_token_is_tfidf_top1(self, fixtures_dir, tmp_path):
        out = tmp_path / "text_k1.txt"
        run_cli(
            "featurize-text",
            "--transcriptions", fixtures_dir / "transcriptions.jsonl",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--out", out, "--k", 1,
        )
        features = load_features(out)
        table = load_embeddings(fixtures_dir / "embeddings.txt")
        cleaned, _ = clean_corpus(load_transcriptions(fixtures_dir / "transcriptions.jsonl"), 0.7)
        model = fit_tfidf(cleaned.values())
        for image_id, record in cleaned.items():
            if not record.words:
                continue
            top = select_top_k(record, model, 1)[0]
            assert np.array_equal(features[image_id], table.get(top)), (image_id, top)

    def test_drop_empty_removes_wordless_images(self, fixtures_dir, tmp_path):
        out = tmp_path / "text.txt"
        run_cli(
            "featurize-text",
            "--transcriptions", fixtures_dir / "transcriptions.jsonl",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--out", out, "--k", 3, "--drop-empty",
        )
        features = load_features(out)
        assert len(features) == 10
        assert "ad-0005" not in features and "ad-0006" not in features

    def test_lower_threshold_brings_lexicon_misses(self, fixtures_dir, tmp_path):
        out = tmp_path / "text_k{k}.txt"
        run_cli(
            "featurize-text",
            "--transcriptions", fixtures_dir / "transcriptions.jsonl",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--out", out, "--k", 1, "--k", 2, "--threshold", 0.5,
        )
        # k=1: "zing" survives cleaning, wins ad-0002's only slot, misses the lexicon;
        # ad-0010's tie resolves to "soda" which is embedded
        k1 = load_run_manifest(tmp_path / "text_k1.txt.run.json")
        assert k1.results["lexicon_misses"] == 1
        features_k1 = load_features(tmp_path / "text_k1.txt")
        assert np.array_equal(features_k1["ad-0002"], np.zeros(6))
        table = load_embeddings(fixtures_dir / "embeddings.txt")
        assert np.array_equal(features_k1["ad-0010"], table.get("soda"))
        # k=2: ad-0010's second slot goes to "zorblax", adding a second miss
        k2 = load_run_manifest(tmp_path / "text_k2.txt.run.json")
        assert k2.results["lexicon_misses"] == 2
        features_k2 = load_features(tmp_path / "text_k2.txt")
        assert np.array_equal(features_k2["ad-0010"], table.get("soda"))

    def test_multiple_k_values_write_one_file_each(self, fixtures_dir, tmp_path):
        out = tmp_path / "text_k{k}.txt"
        assert run_cli(
            "featurize-text",
            "--transcriptions", fixtures_dir / "transcriptions.jsonl",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--out", out, "--k", 5, "--k", 35, "--k", 100,
        ) == 0
        for k in (5, 35, 100):
            assert (tmp_path / f"text_k{k}.txt").exists()

    def test_multiple_k_without_placeholder_fails(self, fixtures_dir, tmp_path, capsys):
        rc = run_cli(
            "featurize-text",
            "--transcriptions", fixtures_dir / "transcriptions.jsonl",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--out", tmp_path / "text.txt", "--k", 5, "--k", 10,
        )
        assert rc == 2
        assert "{k}" in capsys.readouterr().err

    def test_manifest_ids_without_transcription_get_zero_vectors(self, fixtures_dir, tmp_path):
        from scenefuse.data import Manifest, ManifestRow
        from scenefuse.io import load_manifest, write_manifest

        base = load_manifest(fixtures_dir / "manifest.tsv")
        extended = tmp_path / "manifest.tsv"
        write_manifest(
            extended,
            Manifest(rows=base.rows + (ManifestRow("ad-9999", "drinks", "test"),)),
        )
        out = tmp_path / "text.txt"
        assert run_cli(
            "featurize-text",
            "--transcriptions", fixtures_dir / "transcriptions.jsonl",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--manifest", extended,
            "--out", out, "--k", 3,
        ) == 0
        features = load_features(out)
        assert len(features) == 13
        assert np.array_equal(features["ad-9999"], np.zeros(6))

    def test_seed_option_is_gone(self, fixtures_dir, tmp_path):
        out = tmp_path / "text.txt"
        args = (
            "featurize-text",
            "--transcriptions", fixtures_dir / "transcriptions.jsonl",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--out", out,
        )
        with pytest.raises(SystemExit) as exc:
            run_cli(*args, "--seed", 3)
        assert exc.value.code == 2
        assert run_cli(*args) == 0
        assert "seed" not in load_run_manifest(str(out) + ".run.json").params

    def test_cleaning_report_written(self, fixtures_dir, tmp_path):
        report_path = tmp_path / "cleaning.json"
        run_cli(
            "featurize-text",
            "--transcriptions", fixtures_dir / "transcriptions.jsonl",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--out", tmp_path / "text.txt", "--cleaning-report", report_path,
        )
        report = json.loads(report_path.read_text())
        assert report["removed_words"] == report["total_words"] - report["kept_words"]
        assert report["emptied_records"] == 1  # ad-0006 loses both words


class TestFuse:
    def featurize(self, fixtures_dir, tmp_path):
        out = tmp_path / "text.txt"
        run_cli(
            "featurize-text",
            "--transcriptions", fixtures_dir / "transcriptions.jsonl",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--out", out, "--k", 3,
        )
        return out

    def test_concat_dims_add(self, fixtures_dir, tmp_path):
        text = self.featurize(fixtures_dir, tmp_path)
        out = tmp_path / "fused.txt"
        assert run_cli(
            "fuse", "--a", fixtures_dir / "image_features.txt", "--b", text,
            "--out", out, "--scheme", "concat",
        ) == 0
        fused = load_features(out)
        image = load_features(fixtures_dir / "image_features.txt")
        text_feats = load_features(text)
        for image_id, vec in fused.items():
            assert vec.shape == (11,)  # 5 + 6
            assert np.array_equal(vec, np.concatenate([image[image_id], text_feats[image_id]]))

    def test_mcb_output_dim_is_d(self, fixtures_dir, tmp_path):
        text = self.featurize(fixtures_dir, tmp_path)
        out = tmp_path / "fused.txt"
        run_cli(
            "fuse", "--a", fixtures_dir / "image_features.txt", "--b", text,
            "--out", out, "--scheme", "mcb", "--d", 8,
        )
        fused = load_features(out)
        assert all(v.shape == (8,) for v in fused.values())
        manifest = load_run_manifest(str(out) + ".run.json")
        assert manifest.params["seed_a"] != manifest.params["seed_b"]

    def test_mcb_records_sketch_occupancy(self, fixtures_dir, tmp_path):
        text = self.featurize(fixtures_dir, tmp_path)
        out = tmp_path / "fused.txt"
        run_cli(
            "fuse", "--a", fixtures_dir / "image_features.txt", "--b", text,
            "--out", out, "--scheme", "mcb", "--d", 64,
        )
        run = load_run_manifest(str(out) + ".run.json")
        px = make_sketch_params(5, 64, run.params["seed_a"])
        py = make_sketch_params(6, 64, run.params["seed_b"])
        reach = np.bincount(((px.h[:, None] + py.h[None, :]) % 64).ravel(), minlength=64)
        occupancy = run.results["sketch_occupancy"]
        assert occupancy == np.count_nonzero(reach) / 64
        assert 0.0 < occupancy < 1.0
        # buckets no hash pair reaches are written as exact zeros
        fused = np.stack(list(load_features(out).values()))
        assert np.all(fused[:, reach == 0] == 0.0)

    def test_concat_records_no_sketch_occupancy(self, fixtures_dir, tmp_path):
        text = self.featurize(fixtures_dir, tmp_path)
        out = tmp_path / "fused.txt"
        run_cli(
            "fuse", "--a", fixtures_dir / "image_features.txt", "--b", text,
            "--out", out, "--scheme", "concat",
        )
        assert "sketch_occupancy" not in load_run_manifest(str(out) + ".run.json").results

    def test_rerun_is_byte_identical(self, fixtures_dir, tmp_path):
        text = self.featurize(fixtures_dir, tmp_path)
        out = tmp_path / "fused.txt"
        args = (
            "fuse", "--a", fixtures_dir / "image_features.txt", "--b", text,
            "--out", out, "--scheme", "mcb", "--d", 16, "--seed", 9,
        )
        run_cli(*args)
        first = out.read_bytes()
        run_cli(*args)
        assert out.read_bytes() == first

    def test_id_mismatch_lists_difference(self, fixtures_dir, tmp_path, capsys):
        partial = tmp_path / "partial.txt"
        feats = load_features(fixtures_dir / "image_features.txt")
        feats.pop("ad-0007")
        from scenefuse.io import write_features

        write_features(partial, feats)
        rc = run_cli(
            "fuse", "--a", fixtures_dir / "image_features.txt", "--b", partial,
            "--out", tmp_path / "fused.txt",
        )
        assert rc == 2
        assert "ad-0007" in capsys.readouterr().err


class TestTrainEval:
    def test_single_cell_on_fixture_images(self, fixtures_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = run_cli(
            "train-eval",
            "--manifest", fixtures_dir / "manifest.tsv",
            "--features", fixtures_dir / "image_features.txt",
            "--report-json", report_path,
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "test accuracy:" in out
        report = load_run_manifest(report_path)
        cell = report.results["cells"][0]
        assert cell["accuracy"] == 1.0  # fixture image clusters are cleanly separable
        confusion = np.array(cell["confusion"])
        # test split: 1 drinks, 1 footwear, 2 vehicles, all on the diagonal
        assert np.array_equal(confusion, np.diag([1, 1, 2]))

    def test_grid_report_shape(self, fixtures_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        image = fixtures_dir / "image_features.txt"
        rc = run_cli(
            "train-eval",
            "--manifest", fixtures_dir / "manifest.tsv",
            "--cell", f"concat:k=5:{image}",
            "--cell", f"mcb:k=5:{image}",
            "--report-json", report_path,
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "concat" in out and "mcb" in out and "k=5" in out
        report = load_run_manifest(report_path)
        assert [c["row"] for c in report.results["cells"]] == ["concat", "mcb"]

    def test_metrics_deterministic(self, fixtures_dir, tmp_path):
        report_path = tmp_path / "report.json"
        args = (
            "train-eval",
            "--manifest", fixtures_dir / "manifest.tsv",
            "--features", fixtures_dir / "image_features.txt",
            "--report-json", report_path, "--seed", 3,
        )
        run_cli(*args)
        first = report_path.read_bytes()
        run_cli(*args)
        assert report_path.read_bytes() == first

    def test_additive_synthetic_end_to_end_beats_95_percent(self, tmp_path):
        out = tmp_path / "synth"
        run_cli(
            "synth", "--out", out, "--n-train", 300, "--n-test", 100,
            "--dim-a", 16, "--dim-b", 16, "--classes", 4,
            "--interaction", "additive", "--sigma", 0.05, "--seed", 21,
        )
        report_path = tmp_path / "report.json"
        rc = run_cli(
            "train-eval", "--manifest", out / "manifest.tsv",
            "--features", out / "features_a.txt",
            "--report-json", report_path, "--epochs", 80, "--lr", 0.5,
        )
        assert rc == 0
        report = load_run_manifest(report_path)
        assert report.results["cells"][0]["accuracy"] > 0.95

    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    def test_divergence_fails_without_report(self, fixtures_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = run_cli(
            "train-eval",
            "--manifest", fixtures_dir / "manifest.tsv",
            "--features", fixtures_dir / "image_features.txt",
            "--report-json", report_path, "--lr", 1e300,
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "training diverged" in captured.err
        assert "test accuracy" not in captured.out
        assert not report_path.exists()

    def test_saved_model_reproduces_reported_accuracy(self, fixtures_dir, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        report_path = tmp_path / "report.json"
        text = TestFuse().featurize(fixtures_dir, tmp_path)
        assert run_cli(
            "train-eval", "--manifest", fixtures_dir / "manifest.tsv", "--features", text,
            "--save-model", model_path, "--report-json", report_path, "--seed", 4,
        ) == 0
        report = load_run_manifest(report_path)
        assert report.params["save_model"] == str(model_path)
        manifest = load_manifest(fixtures_dir / "manifest.tsv")
        test_set = join_labeled(manifest, load_features(text), "test")
        accuracy, confusion = evaluate(load_model(model_path), test_set)
        assert accuracy == report.results["cells"][0]["accuracy"]
        assert confusion.tolist() == report.results["cells"][0]["confusion"]

    def test_save_model_with_two_cells_fails_before_training(self, fixtures_dir, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        report_path = tmp_path / "report.json"
        image = fixtures_dir / "image_features.txt"
        rc = run_cli(
            "train-eval", "--manifest", fixtures_dir / "manifest.tsv",
            "--cell", f"a:acc:{image}", "--cell", f"b:acc:{tmp_path / 'never-read.txt'}",
            "--save-model", model_path, "--report-json", report_path,
        )
        assert rc == 2
        assert "--save-model" in capsys.readouterr().err
        assert not model_path.exists() and not report_path.exists()

    def test_report_without_save_model_has_no_save_model_key(self, fixtures_dir, tmp_path):
        report_path = tmp_path / "report.json"
        assert run_cli(
            "train-eval", "--manifest", fixtures_dir / "manifest.tsv",
            "--features", fixtures_dir / "image_features.txt", "--report-json", report_path,
        ) == 0
        assert "save_model" not in load_run_manifest(report_path).params

    def test_missing_feature_id_fails(self, fixtures_dir, tmp_path, capsys):
        partial = tmp_path / "partial.txt"
        feats = load_features(fixtures_dir / "image_features.txt")
        feats.pop("ad-0001")
        from scenefuse.io import write_features

        write_features(partial, feats)
        rc = run_cli(
            "train-eval", "--manifest", fixtures_dir / "manifest.tsv", "--features", partial,
        )
        assert rc == 2
        assert "ad-0001" in capsys.readouterr().err


class TestVqa:
    def featurize(self, fixtures_dir, tmp_path):
        out = tmp_path / "text.txt"
        run_cli(
            "featurize-text",
            "--transcriptions", fixtures_dir / "transcriptions.jsonl",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--out", out, "--k", 3,
        )
        return out

    def test_question_only_never_reads_feature_files(self, fixtures_dir, tmp_path):
        rc = run_cli(
            "vqa",
            "--vqa", fixtures_dir / "vqa.jsonl",
            "--manifest", fixtures_dir / "manifest.tsv",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--mode", "question",
            "--image-features", tmp_path / "does-not-exist.txt",
            "--text-features", tmp_path / "also-missing.txt",
            "--report-json", tmp_path / "report.json",
        )
        assert rc == 0

    @pytest.mark.parametrize("mode", ["question", "question-image", "question-image-text"])
    def test_all_modes_run_and_account_for_oov(self, mode, fixtures_dir, tmp_path):
        text = self.featurize(fixtures_dir, tmp_path)
        report_path = tmp_path / f"report-{mode}.json"
        rc = run_cli(
            "vqa",
            "--vqa", fixtures_dir / "vqa.jsonl",
            "--manifest", fixtures_dir / "manifest.tsv",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--image-features", fixtures_dir / "image_features.txt",
            "--text-features", text,
            "--mode", mode,
            "--report-json", report_path,
        )
        assert rc == 0
        results = load_run_manifest(report_path).results
        assert results["n_test"] == 4
        assert results["n_test_oov"] == 1  # "cola" never answers a training question
        assert results["vocab_size"] == 5
        assert results["accuracy"] <= 0.75  # the oov answer can never be correct
        assert results["accuracy"] == pytest.approx(results["accuracy_percent"] / 100, abs=1e-4)

    def test_small_answer_vocab_drops_training_rows(self, fixtures_dir, tmp_path):
        report_path = tmp_path / "report.json"
        rc = run_cli(
            "vqa",
            "--vqa", fixtures_dir / "vqa.jsonl",
            "--manifest", fixtures_dir / "manifest.tsv",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--mode", "question",
            "--answer-vocab", 2,
            "--report-json", report_path,
        )
        assert rc == 0
        results = load_run_manifest(report_path).results
        assert results["vocab_size"] == 2  # nike and pepsi, the most frequent answers
        assert results["n_train_used"] == 4
        assert results["n_train_dropped"] == 3
        assert results["accuracy"] == 0.0  # every test answer is now out of vocabulary

    @pytest.mark.parametrize("size", [-1, 0, 1])
    def test_answer_vocab_below_two_fails_before_reading_input(self, tmp_path, capsys, size):
        # a negative size used to slice from the end: -1 trained on the top 4 of 5 answers
        report_path = tmp_path / "report.json"
        rc = run_cli(
            "vqa",
            "--vqa", tmp_path / "never-read.jsonl",
            "--manifest", tmp_path / "never-read.tsv",
            "--embeddings", tmp_path / "never-read.txt",
            "--mode", "question",
            "--answer-vocab", size,
            "--report-json", report_path,
        )
        assert rc == 2
        assert f"--answer-vocab must be at least 2, got {size}" in capsys.readouterr().err
        assert not report_path.exists()

    def test_vocab_shrinks_to_distinct_answers(self, fixtures_dir, tmp_path):
        # two distinct training answers with the default 1000-answer cap -> vocab of 2
        from scenefuse.data import VqaRecord
        from scenefuse.io import write_vqa

        tiny = tmp_path / "tiny.jsonl"
        write_vqa(
            tiny,
            [
                VqaRecord("ad-0001", "what brand is shown", "nike"),
                VqaRecord("ad-0002", "what drink is shown", "pepsi"),
                VqaRecord("ad-0003", "what brand is shown", "nike"),
                VqaRecord("ad-0009", "what brand is shown", "nike"),
            ],
        )
        report_path = tmp_path / "report.json"
        rc = run_cli(
            "vqa", "--vqa", tiny,
            "--manifest", fixtures_dir / "manifest.tsv",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--mode", "question",
            "--report-json", report_path,
        )
        assert rc == 0
        assert load_run_manifest(report_path).results["vocab_size"] == 2

    def test_mode_requires_image_features(self, fixtures_dir, capsys):
        rc = run_cli(
            "vqa",
            "--vqa", fixtures_dir / "vqa.jsonl",
            "--manifest", fixtures_dir / "manifest.tsv",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--mode", "question-image",
        )
        assert rc == 2
        assert "--image-features" in capsys.readouterr().err


class TestSynth:
    def test_outputs_round_trip_through_loaders(self, tmp_path):
        out = tmp_path / "synth"
        assert run_cli(
            "synth", "--out", out, "--n-train", 30, "--n-test", 10,
            "--dim-a", 4, "--dim-b", 3, "--classes", 3, "--seed", 5,
        ) == 0
        features_a = load_features(out / "features_a.txt")
        features_b = load_features(out / "features_b.txt")
        manifest = load_manifest(out / "manifest.tsv")
        assert len(features_a) == len(features_b) == len(manifest.rows) == 40
        assert len(manifest.split_rows("train")) == 30
        assert all(v.shape == (4,) for v in features_a.values())
        assert all(v.shape == (3,) for v in features_b.values())
        assert set(manifest.ids()) == set(features_a)

    def test_rerun_is_byte_identical(self, tmp_path):
        args = lambda d: (
            "synth", "--out", d, "--n-train", 20, "--n-test", 5,
            "--dim-a", 4, "--dim-b", 4, "--classes", 2, "--seed", 11,
        )
        run_cli(*args(tmp_path / "one"))
        run_cli(*args(tmp_path / "two"))
        for name in ("features_a.txt", "features_b.txt", "manifest.tsv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_additive_interaction_accepted(self, tmp_path):
        assert run_cli(
            "synth", "--out", tmp_path / "add", "--n-train", 10, "--n-test", 5,
            "--dim-a", 3, "--dim-b", 3, "--classes", 2, "--interaction", "additive",
        ) == 0


class TestFormatsCheck:
    def test_default_demo_structures(self, capsys):
        assert run_cli("formats-check") == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 8
        assert "FAIL" not in out

    def test_against_fixture_corpus(self, fixtures_dir, tmp_path):
        assert run_cli("formats-check", "--fixtures", fixtures_dir, "--out", tmp_path) == 0


class TestErrors:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = run_cli(
            "fuse", "--a", tmp_path / "nope.txt", "--b", tmp_path / "nope.txt",
            "--out", tmp_path / "out.txt",
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "scenefuse", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "scenefuse" in proc.stdout
