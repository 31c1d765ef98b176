import json
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from scenefuse.classifier import evaluate, train
from scenefuse.cli import main
from scenefuse import _split
from scenefuse.data import Manifest, ManifestRow, clean_corpus, join_labeled
from scenefuse.io import (
    load_embeddings,
    load_features,
    load_manifest,
    load_model,
    load_run_manifest,
    load_transcriptions,
    load_vqa,
    write_embeddings,
    write_features,
    write_manifest,
)
from scenefuse.sketch import make_sketch_params
from scenefuse.text import RowTable, fit_tfidf, select_top_k, tokenize


def run_cli(*argv):
    return main([str(a) for a in argv])


@contextmanager
def _returns_of_train():
    """Patch the CLI's ``train``; yield the list of the per-epoch losses that each call returns."""
    histories = []

    def recording(*args, **kwargs):
        trained, history = train(*args, **kwargs)
        histories.append(list(history))
        return trained, history

    with mock.patch("scenefuse.cli.train", recording):
        yield histories


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

    @pytest.mark.parametrize("ks", [(3, 0), (0,), (3, -1, 5)])
    def test_every_k_is_checked_before_anything_is_read_or_written(self, tmp_path, capsys, ks):
        out = tmp_path / "out"
        out.mkdir()
        rc = run_cli(
            "featurize-text",
            "--transcriptions", tmp_path / "never-read.jsonl",
            "--embeddings", tmp_path / "never-read.txt",
            "--out", out / "t_k{k}.txt", *[a for k in ks for a in ("--k", k)],
            "--cleaning-report", out / "clean.json",
        )
        assert rc == 2
        assert "--k must be >= 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_repeated_k_is_rejected_before_anything_is_read_or_written(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        rc = run_cli(
            "featurize-text",
            "--transcriptions", tmp_path / "never-read.jsonl",
            "--embeddings", tmp_path / "never-read.txt",
            "--out", out / "t_k{k}.txt", "--k", 3, "--k", 5, "--k", 3,
            "--cleaning-report", out / "clean.json",
        )
        assert rc == 2
        assert "--k values must be distinct, but these repeat: 3" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("image_id", ["ad\t1", "ad\n1", "ad\u20281"])
    def test_an_image_id_the_feature_file_cannot_hold_fails_before_writing(
        self, fixtures_dir, tmp_path, capsys, image_id
    ):
        transcriptions = tmp_path / "t.jsonl"
        transcriptions.write_text(
            json.dumps({"image_id": image_id, "words": [{"token": "nike", "conf": 0.9}]}) + "\n"
        )
        out = tmp_path / "text.txt"
        rc = run_cli(
            "featurize-text", "--transcriptions", transcriptions,
            "--embeddings", fixtures_dir / "embeddings.txt", "--out", out, "--k", 1,
        )
        assert rc == 2
        assert f"feature id {image_id!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_an_image_id_that_is_not_utf8_fails_before_writing(self, fixtures_dir, tmp_path, capsys):
        # "\\ud800" is a valid JSON escape for a lone surrogate, which no UTF-8 file can hold
        transcriptions = tmp_path / "t.jsonl"
        transcriptions.write_text(
            '{"image_id": "a\\ud800", "words": [{"token": "nike", "conf": 0.9}]}\n'
        )
        out = tmp_path / "out"
        out.mkdir()
        rc = run_cli(
            "featurize-text", "--transcriptions", transcriptions,
            "--embeddings", fixtures_dir / "embeddings.txt", "--out", out / "f.txt", "--k", 1,
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: feature id 'a\\ud800' is not valid UTF-8 text\n"
        )
        assert list(out.iterdir()) == []

    def test_a_run_that_fails_writing_features_leaves_no_cleaning_report(
        self, fixtures_dir, tmp_path, capsys
    ):
        transcriptions = tmp_path / "t.jsonl"
        transcriptions.write_text(
            '{"image_id": "a\\ud800", "words": [{"token": "nike", "conf": 0.9}]}\n'
        )
        out = tmp_path / "out"
        out.mkdir()
        rc = run_cli(
            "featurize-text", "--transcriptions", transcriptions,
            "--embeddings", fixtures_dir / "embeddings.txt", "--out", out / "f.txt", "--k", 1,
            "--cleaning-report", out / "clean.json",
        )
        assert rc == 2
        assert "is not valid UTF-8 text" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("threshold", [-0.01, 1.5, float("nan")])
    def test_threshold_is_checked_before_anything_is_read(self, tmp_path, capsys, threshold):
        rc = run_cli(
            "featurize-text",
            "--transcriptions", tmp_path / "never-read.jsonl",
            "--embeddings", tmp_path / "never-read.txt",
            "--out", tmp_path / "text.txt", "--threshold", threshold,
            "--cleaning-report", tmp_path / "clean.json",
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: threshold {threshold} outside [0, 1]\n"
        assert list(tmp_path.iterdir()) == []

    def test_placeholder_is_checked_before_anything_is_read(self, tmp_path, capsys):
        rc = run_cli(
            "featurize-text",
            "--transcriptions", tmp_path / "never-read.jsonl",
            "--embeddings", tmp_path / "never-read.txt",
            "--out", tmp_path / "text.txt", "--k", 5, "--k", 10,
            "--cleaning-report", tmp_path / "clean.json",
        )
        assert rc == 2
        assert "{k}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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


def _zero_lexicon(path, tokens, dim=6):
    write_embeddings(path, RowTable(tokens, np.zeros((len(tokens), dim))))
    return path


class TestLexiconVocabulary:
    """featurize-text and vqa keep only the lexicon rows their words can use."""

    def test_a_lexicon_sharing_no_word_gives_zero_vectors_and_counts_every_miss(
        self, fixtures_dir, tmp_path
    ):
        lexicon = _zero_lexicon(tmp_path / "lexicon.txt", ["qqq", "rrr"])
        out = tmp_path / "text_k{k}.txt"
        assert run_cli(
            "featurize-text",
            "--transcriptions", fixtures_dir / "transcriptions.jsonl",
            "--embeddings", lexicon, "--out", out, "--k", 1, "--k", 3,
        ) == 0
        cleaned, _ = clean_corpus(load_transcriptions(fixtures_dir / "transcriptions.jsonl"), 0.7)
        model = fit_tfidf(cleaned.values())
        for k in (1, 3):
            features = load_features(tmp_path / f"text_k{k}.txt")
            assert list(features) == list(cleaned)
            assert not features.matrix.any()
            run = load_run_manifest(tmp_path / f"text_k{k}.txt.run.json")
            selected = sum(len(select_top_k(record, model, k)) for record in cleaned.values())
            assert run.results["lexicon_misses"] == selected > 0

    def test_vqa_with_a_lexicon_sharing_no_word_runs_as_with_zero_vectors(
        self, fixtures_dir, tmp_path
    ):
        questions = load_vqa(fixtures_dir / "vqa.jsonl")
        tokens = sorted({t for record in questions for t in tokenize(record.question)})
        results = []
        for name, lexicon_tokens in (("none", ["qqq"]), ("zeros", tokens)):
            report = tmp_path / f"{name}.json"
            assert run_cli(
                "vqa", "--vqa", fixtures_dir / "vqa.jsonl",
                "--manifest", fixtures_dir / "manifest.tsv",
                "--embeddings", _zero_lexicon(tmp_path / f"{name}.txt", lexicon_tokens),
                "--mode", "question", "--report-json", report,
            ) == 0
            results.append(load_run_manifest(report).results)
        assert results[0] == results[1]

    @pytest.mark.parametrize("command", ["featurize-text", "vqa"])
    def test_an_empty_lexicon_still_fails(self, fixtures_dir, tmp_path, capsys, command):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("0 6\n")
        args = {
            "featurize-text": ["--transcriptions", fixtures_dir / "transcriptions.jsonl",
                               "--out", tmp_path / "text.txt"],
            "vqa": ["--vqa", fixtures_dir / "vqa.jsonl",
                    "--manifest", fixtures_dir / "manifest.tsv", "--mode", "question"],
        }[command]
        assert run_cli(command, "--embeddings", lexicon, *args) == 2
        assert capsys.readouterr().err == f"error: {lexicon}:1: embedding table is empty\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lexicon.txt"]


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
        fused = load_features(out).matrix
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

    def test_empty_feature_files_have_no_rows_to_fuse(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("0 2\n")
        (tmp_path / "b.txt").write_text("0 3\n")
        out = tmp_path / "fused.txt"
        rc = run_cli("fuse", "--a", tmp_path / "a.txt", "--b", tmp_path / "b.txt", "--out", out)
        assert rc == 2
        assert capsys.readouterr().err == "error: no feature rows to fuse\n"
        assert not out.exists()

    def test_seed_a_and_seed_b_are_gone(self, fixtures_dir, tmp_path):
        out = tmp_path / "fused.txt"
        args = (
            "fuse", "--a", fixtures_dir / "image_features.txt",
            "--b", fixtures_dir / "image_features.txt", "--out", out, "--d", 16, "--seed", 5,
        )
        for flag in ("--seed-a", "--seed-b"):
            with pytest.raises(SystemExit) as exc:
                run_cli(*args, flag, 3)
            assert exc.value.code == 2
        assert not out.exists()
        assert run_cli(*args) == 0
        params = load_run_manifest(str(out) + ".run.json").params
        assert (params["seed"], params["seed_a"], params["seed_b"]) == (5, 6, 7)

    @pytest.mark.parametrize("d", [0, -3])
    def test_d_is_checked_before_any_file_is_read(self, tmp_path, capsys, d):
        # neither input exists: reading one would fail with another message
        missing = tmp_path / "missing.txt"
        rc = run_cli(
            "fuse", "--a", missing, "--b", missing, "--out", tmp_path / "o.txt", "--d", d,
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: sketch_dim must be >= 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_id_mismatch_lists_difference(self, fixtures_dir, tmp_path, capsys):
        partial = tmp_path / "partial.txt"
        feats = load_features(fixtures_dir / "image_features.txt")
        kept = [image_id for image_id in feats if image_id != "ad-0007"]
        from scenefuse.io import write_features

        write_features(partial, RowTable(kept, feats.rows(kept)))
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

    @pytest.mark.parametrize(
        "cells, message",
        [
            (["a:b:{x}", "a:b:{y}"], "repeat: a:b"),
            (["features:-:{y}"], "repeat: features:-"),  # --features is the cell features:-
            ([":b:{x}"], "ROW and COL non-empty"),
            (["a::{x}"], "ROW and COL non-empty"),
        ],
    )
    def test_cells_are_checked_before_any_feature_file_is_read(
        self, fixtures_dir, tmp_path, capsys, cells, message
    ):
        # neither path exists: reading one would fail with another message
        paths = {"x": tmp_path / "x.txt", "y": tmp_path / "y.txt"}
        argv = [a for cell in cells for a in ("--cell", cell.format(**paths))]
        if "features:-" in cells[0]:
            argv += ["--features", paths["x"]]
        rc = run_cli(
            "train-eval", "--manifest", fixtures_dir / "manifest.tsv", *argv,
            "--report-json", tmp_path / "report.json",
        )
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--features", "{x}", "--lr", "nan"], "learning_rate must be finite, got nan"),
            (["--features", "{x}", "--epochs", "0"], "epochs must be >= 1"),
            (["--cell", "bad"], "--cell must be ROW:COL:PATH"),
            (["--cell", "a:b:{x}", "--cell", "a:b:{y}"], "ROW:COL pairs must be distinct"),
            (["--cell", "a:b:{x}", "--cell", "c:d:{y}", "--save-model", "{y}"],
             "--save-model keeps one model, but 2 cells were given"),
            ([], "provide --features or at least one --cell"),
        ],
        ids=["lr", "epochs", "cell", "repeated-cell", "save-model", "no-cell"],
    )
    def test_flags_are_checked_before_the_manifest_is_read(
        self, tmp_path, capsys, flags, message
    ):
        # no input exists: reading the manifest would fail with another message
        paths = {"x": tmp_path / "x.txt", "y": tmp_path / "y.txt"}
        rc = run_cli(
            "train-eval", "--manifest", tmp_path / "missing.tsv",
            *(flag.format(**paths) for flag in flags), "--report-json", tmp_path / "report.json",
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cells", [1, 2])
    def test_printed_results_equal_the_report_results(self, fixtures_dir, tmp_path, capsys, cells):
        image = fixtures_dir / "image_features.txt"
        args = ["train-eval", "--manifest", fixtures_dir / "manifest.tsv", "--seed", 3]
        args += [a for i in range(cells) for a in ("--cell", f"r{i}:acc:{image}")]
        report_path = tmp_path / "report.json"
        assert run_cli(*args, "--report-json", report_path) == 0
        with_report = capsys.readouterr().out
        assert run_cli(*args) == 0
        printed = capsys.readouterr().out
        assert printed.startswith(with_report)
        (line,) = printed[len(with_report):].splitlines()
        assert json.loads(line) == {"results": load_run_manifest(report_path).results}

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
        assert captured.err == (
            "error: training diverged in epoch 2: loss is nan; "
            "lower the learning rate (now 1e+300)\n"
        )
        assert "test accuracy" not in captured.out
        assert not report_path.exists()

    @pytest.mark.parametrize(
        "flag, value, name", [("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate"),
                              ("--l2", "inf", "l2"), ("--l2", "nan", "l2")],
    )
    def test_a_rate_or_penalty_that_is_not_finite_fails_before_any_feature_file_is_read(
        self, fixtures_dir, tmp_path, capsys, flag, value, name
    ):
        # the feature file does not exist: reading it would fail with another message
        rc = run_cli(
            "train-eval", "--manifest", fixtures_dir / "manifest.tsv",
            "--features", tmp_path / "never-read.txt", flag, value,
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {name} must be finite, got {value}\n"

    def test_each_cell_records_the_losses_that_train_returns(self, fixtures_dir, tmp_path):
        report_path = tmp_path / "report.json"
        text = TestFuse().featurize(fixtures_dir, tmp_path)
        with _returns_of_train() as histories:
            assert run_cli(
                "train-eval", "--manifest", fixtures_dir / "manifest.tsv", "--epochs", 7,
                "--cell", f"image:acc:{fixtures_dir / 'image_features.txt'}",
                "--cell", f"text:acc:{text}", "--report-json", report_path,
            ) == 0
        cells = load_run_manifest(report_path).results["cells"]
        assert [cell["loss_history"] for cell in cells] == histories
        assert all(len(history) == 7 for history in histories)
        assert all(cell["final_train_loss"] == cell["loss_history"][-1] for cell in cells)

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
        kept = [image_id for image_id in feats if image_id != "ad-0001"]
        from scenefuse.io import write_features

        write_features(partial, RowTable(kept, feats.rows(kept)))
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

    def test_divergence_prints_one_error_line(self, fixtures_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = run_cli(
            "vqa",
            "--vqa", fixtures_dir / "vqa.jsonl",
            "--manifest", fixtures_dir / "manifest.tsv",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--mode", "question", "--lr", 1e300, "--report-json", report_path,
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: training diverged in epoch 2: loss is nan; "
            "lower the learning rate (now 1e+300)\n"
        )
        assert not report_path.exists()

    def test_the_result_records_the_losses_that_train_returns(self, fixtures_dir, tmp_path):
        report_path = tmp_path / "report.json"
        with _returns_of_train() as histories:
            assert run_cli(
                "vqa", "--vqa", fixtures_dir / "vqa.jsonl",
                "--manifest", fixtures_dir / "manifest.tsv",
                "--embeddings", fixtures_dir / "embeddings.txt",
                "--mode", "question", "--epochs", 9, "--report-json", report_path,
            ) == 0
        assert len(histories) == 1 and len(histories[0]) == 9
        assert load_run_manifest(report_path).results["loss_history"] == histories[0]

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

    def test_printed_results_equal_the_report_results(self, fixtures_dir, tmp_path, capsys):
        args = (
            "vqa", "--vqa", fixtures_dir / "vqa.jsonl",
            "--manifest", fixtures_dir / "manifest.tsv",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--image-features", fixtures_dir / "image_features.txt", "--mode", "question-image",
        )
        report_path = tmp_path / "report.json"
        assert run_cli(*args, "--report-json", report_path) == 0
        with_report = capsys.readouterr().out
        assert run_cli(*args) == 0
        printed = capsys.readouterr().out
        assert printed.startswith(with_report)
        (line,) = printed[len(with_report):].splitlines()
        assert json.loads(line) == {"results": load_run_manifest(report_path).results}

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

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--lr", "nan", "learning_rate must be finite, got nan"),
         ("--l2", "inf", "l2 must be finite, got inf"),
         ("--epochs", "0", "epochs must be >= 1"),
         ("--batch", "0", "batch_size must be >= 1")],
    )
    def test_training_flags_are_checked_before_any_file_is_read(
        self, tmp_path, capsys, flag, value, message
    ):
        # no input exists: reading one would fail with another message
        rc = run_cli(
            "vqa",
            "--vqa", tmp_path / "missing.jsonl",
            "--manifest", tmp_path / "missing.tsv",
            "--embeddings", tmp_path / "missing.txt",
            "--image-features", tmp_path / "missing-image.txt",
            "--mode", "question-image", flag, value,
            "--report-json", tmp_path / "report.json",
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
    def test_a_sigma_that_is_not_finite_fails_before_anything_is_created(
        self, tmp_path, capsys, sigma
    ):
        out = tmp_path / "synth"
        assert run_cli("synth", "--out", out, f"--sigma={sigma}") == 2
        assert capsys.readouterr().err == f"error: noise_sigma must be finite, got {sigma}\n"
        assert not out.exists()

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

    def test_a_huge_header_dim_fails_at_the_first_row(self, tmp_path, capsys):
        features = tmp_path / "f.txt"
        features.write_text("1 1000000000000\na\t1.0 2.0\n")
        out = tmp_path / "out.txt"
        rc = run_cli("fuse", "--a", features, "--b", features, "--out", out, "--scheme", "concat")
        assert rc == 2
        assert capsys.readouterr().err == f"error: {features}:2: expected 1000000000000 values, got 2\n"
        assert not out.exists()


def _traced_peak(*argv) -> int:
    """The peak of the memory that ``tracemalloc`` traces (numpy buffers too) while a command runs.

    Float tables stay on one CPU, so no forked child does part of the work.
    """
    with mock.patch.object(_split, "cpus", lambda: 1):
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestWorkingSet:
    """What fuse and train-eval hold at their peak, beside the tables they must hold."""

    @pytest.mark.parametrize(
        "scheme, dim_a, dim_b, flags",
        [
            ("mcb", 8, 8, ["--d", "1024"]),
            ("mcb", 8, 8, ["--d", "1000", "--no-normalize"]),
            ("concat", 8, 1024, []),
            ("average", 512, 512, []),
        ],
        ids=["mcb", "mcb-no-normalize", "concat", "average"],
    )
    def test_fuse_holds_its_inputs_and_output_and_a_fixed_block(
        self, tmp_path, capsys, scheme, dim_a, dim_b, flags
    ):
        # 400 rows, b's ids in another order than a's.  Traced over the three
        # matrices: 0.38-0.94 MB here, most of it ids and a read's chunk of text;
        # 1.78 MB (average) to 10.1 MB (mcb) when b was reordered whole and each
        # fuse_rows temporary was as large as the output
        rng, rows = np.random.default_rng(0), 400
        ids = [f"img-{i:05d}" for i in range(rows)]
        order = rng.permutation(rows)
        a = RowTable(ids, rng.standard_normal((rows, dim_a)))
        b = RowTable([ids[i] for i in order], rng.standard_normal((rows, dim_b)))
        write_features(tmp_path / "a.txt", a)
        write_features(tmp_path / "b.txt", b)
        out = tmp_path / "fused.txt"
        peak = _traced_peak(
            "fuse", "--a", tmp_path / "a.txt", "--b", tmp_path / "b.txt", "--out", out,
            "--scheme", scheme, *flags,
        )
        fused = load_features(out)
        assert len(fused) == rows
        assert peak < a.matrix.nbytes + b.matrix.nbytes + fused.matrix.nbytes + 1_250_000

    def test_train_eval_holds_the_table_and_its_test_split_not_its_train_split(self, tmp_path):
        # 1.16 MB over the table and the test split here, where copying both splits
        # out of the table made it 4.26 MB
        rng, n_train, n_test, dim = np.random.default_rng(1), 1600, 400, 256
        ids = [f"img-{i:05d}" for i in range(n_train + n_test)]
        splits = ["train"] * n_train + ["test"] * n_test
        rows = [ManifestRow(ids[i], f"c{i % 4}", splits[i]) for i in rng.permutation(len(ids))]
        write_manifest(tmp_path / "manifest.tsv", Manifest(rows=tuple(rows)))
        table = RowTable(ids, rng.standard_normal((len(ids), dim)))
        write_features(tmp_path / "features.txt", table)
        peak = _traced_peak(
            "train-eval", "--manifest", tmp_path / "manifest.tsv",
            "--features", tmp_path / "features.txt", "--epochs", 1,
        )
        train_bytes, test_bytes = n_train * dim * 8, n_test * dim * 8
        assert peak < table.matrix.nbytes + test_bytes + train_bytes // 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "scenefuse", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "scenefuse" in proc.stdout
