import json
import os
import signal
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from scenefuse import _split, cli
from scenefuse.classifier import LabeledSet, TrainConfig, evaluate, init_model, train
from scenefuse.cli import main
from scenefuse.data import (
    Manifest,
    ManifestRow,
    SynthConfig,
    VqaRecord,
    clean_corpus,
    join_labeled,
)
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
    write_vqa,
)
from scenefuse.sketch import FusionSpec, make_sketch_params
from scenefuse.text import (
    RowTable,
    TranscriptionRecord,
    aggregate,
    fit_tfidf,
    select_top_k,
    text_feature,
    tokenize,
)


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

    def test_each_k_is_asked_for_every_row_twice(self, fixtures_dir, tmp_path):
        asked, summed = Counter(), cli._summed

        def counting(ranked, k, table):
            """``cli._summed``'s producer, counting each ``(k, row)`` it is asked for."""
            produce = summed(ranked, k, table)

            def rows(start: int, stop: int):
                asked.update((k, row) for row in range(start, stop))
                return produce(start, stop)

            return rows

        # on one CPU, so no forked child asks for rows
        with mock.patch.object(cli, "_summed", counting), \
                mock.patch.object(_split, "cpus", lambda: 1):
            assert run_cli(
                "featurize-text",
                "--transcriptions", fixtures_dir / "transcriptions.jsonl",
                "--embeddings", fixtures_dir / "embeddings.txt",
                "--out", tmp_path / "text_k{k}.txt", "--k", 1, "--k", 3,
            ) == 0
        images = len(load_features(tmp_path / "text_k1.txt"))
        # once to check it before the first file opens, once to write it
        assert asked == Counter({(k, row): 2 for k in (1, 3) for row in range(images)})

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

    def test_a_table_that_cannot_be_opened_leaves_no_earlier_table(
        self, fixtures_dir, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d1").mkdir()  # and no d2/, so the k=2 table cannot be opened
        rc = run_cli(
            "featurize-text",
            "--transcriptions", fixtures_dir / "transcriptions.jsonl",
            "--embeddings", fixtures_dir / "embeddings.txt",
            "--out", "d{k}/t.txt", "--k", 1, "--k", 2,
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: [Errno 2] No such file or directory: 'd2/t.txt'\n"
        )
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "d1"]

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


def _split_corpus(tmp_path, images: int = 400, dim: int = 400):
    """Transcriptions and a lexicon whose (images x dim) text features are split when written.

    Tokens are drawn with Zipf-like weights from 500 words; the lexicon misses every tenth.
    """
    rng = np.random.default_rng(21)
    words = [f"w{i}" for i in range(500)]
    weights = 1.0 / np.arange(1, 501)
    lines = []
    for i in range(images):
        picks = rng.choice(500, 20, p=weights / weights.sum())
        confs = np.round(rng.uniform(0.3, 1.0, 20), 3)
        lines.append(json.dumps({"image_id": f"img-{i:04d}", "words": [
            {"token": words[w], "conf": c} for w, c in zip(picks.tolist(), confs.tolist())
        ]}))
    transcriptions = tmp_path / "ocr.jsonl"
    transcriptions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    lexicon_words = [w for i, w in enumerate(words) if i % 10 != 9]
    lexicon = tmp_path / "lexicon.txt"
    write_embeddings(lexicon, RowTable(lexicon_words, rng.standard_normal((450, dim))))
    return transcriptions, lexicon


class TestFeaturizeTextRoute:
    """Each k's file is that of the per-record route: ``text_feature`` of every record into
    one matrix, then ``write_features``; its misses are a recount against the lexicon."""

    @staticmethod
    def _per_record(transcriptions, lexicon, manifest, k: int, out) -> int:
        cleaned, _ = clean_corpus(load_transcriptions(transcriptions), 0.7)
        table = load_embeddings(lexicon, {w.token for r in cleaned.values() for w in r.words})
        if manifest:
            ids = load_manifest(manifest).ids()
            cleaned = {i: cleaned.get(i, TranscriptionRecord(image_id=i)) for i in ids}
        model = fit_tfidf(cleaned.values())
        matrix = np.array([text_feature(r, model, table, k).vector for r in cleaned.values()])
        write_features(out, RowTable(cleaned, matrix))
        full = load_embeddings(lexicon)
        return sum(t not in full for r in cleaned.values() for t in select_top_k(r, model, k))

    @pytest.mark.parametrize("corpus", ["fixtures", "split"])
    def test_every_k_writes_the_per_record_file(self, fixtures_dir, tmp_path, corpus):
        if corpus == "fixtures":
            transcriptions = fixtures_dir / "transcriptions.jsonl"
            lexicon, manifest = fixtures_dir / "embeddings.txt", fixtures_dir / "manifest.tsv"
            split = nullcontext()
        else:
            transcriptions, lexicon = _split_corpus(tmp_path)
            manifest, split = None, mock.patch.object(_split, "cpus", lambda: 3)
        with split:
            assert corpus == "fixtures" or _split.parts(400 * 400) == 3
            assert run_cli(
                "featurize-text", "--transcriptions", transcriptions, "--embeddings", lexicon,
                *(["--manifest", manifest] if manifest else []),
                "--out", tmp_path / "text_k{k}.txt", "--k", 1, "--k", 3,
            ) == 0
        for k in (1, 3):
            misses = self._per_record(transcriptions, lexicon, manifest, k, tmp_path / "old.txt")
            assert (tmp_path / f"text_k{k}.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
            run = load_run_manifest(tmp_path / f"text_k{k}.txt.run.json")
            assert run.results["lexicon_misses"] == misses
            assert corpus == "fixtures" or misses > 0


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

    def test_a_negative_seed_is_a_hash_seed_like_any_other(self, fixtures_dir, tmp_path):
        # the hash seeds go through splitmix64's 64-bit mask, so fuse takes any integer
        text = self.featurize(fixtures_dir, tmp_path)
        out = tmp_path / "fused.txt"
        assert run_cli(
            "fuse", "--a", fixtures_dir / "image_features.txt", "--b", text,
            "--out", out, "--scheme", "mcb", "--d", 8, "--seed", -1,
        ) == 0
        assert load_run_manifest(str(out) + ".run.json").params["seed_a"] == 0

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

    def test_average_of_unequal_widths_names_both_files_before_fusing(
        self, fixtures_dir, tmp_path, capsys
    ):
        image, text = fixtures_dir / "image_features.txt", self.featurize(fixtures_dir, tmp_path)
        capsys.readouterr()
        out = tmp_path / "fused.txt"
        with mock.patch.object(cli, "_fuse_aligned", side_effect=AssertionError("fused")):
            rc = run_cli("fuse", "--a", image, "--b", text, "--out", out, "--scheme", "average")
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: average requires equal dims, but {image} has 5 and {text} has 6\n"
        )
        assert not out.exists()

    def test_an_allocation_that_fails_exits_2_and_writes_nothing(
        self, fixtures_dir, tmp_path, capsys
    ):
        # patched in: where memory is overcommitted, a real request this size may not fail at once
        image, out = fixtures_dir / "image_features.txt", tmp_path / "fused.txt"
        refused = MemoryError(
            "Unable to allocate 87.3 TiB for an array with shape (12, 1000000000000) and data "
            "type float64"
        )
        with mock.patch.object(cli, "_fuse_aligned", side_effect=refused):
            rc = run_cli("fuse", "--a", image, "--b", image, "--out", out, "--d", 10**12)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {refused}\n"
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
            (["--features", "{x}", "--seed", "-1"], "seed must be nonnegative, got -1"),
            (["--features", "{x}", "--seed", str(2**64)],
             "seed must be below 2**64, got 18446744073709551616"),
            (["--cell", "bad"], "--cell must be ROW:COL:PATH"),
            (["--cell", "a:b:{x}", "--cell", "a:b:{y}"], "ROW:COL pairs must be distinct"),
            (["--cell", "a:b:{x}", "--cell", "c:d:{y}", "--save-model", "{y}"],
             "--save-model keeps one model, but 2 cells were given"),
            ([], "provide --features or at least one --cell"),
        ],
        ids=["lr", "epochs", "seed", "seed-2**64", "cell", "repeated-cell", "save-model",
             "no-cell"],
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

    def test_each_cell_records_the_losses_that_train_returns(
        self, fixtures_dir, tmp_path, monkeypatch
    ):
        # one CPU: a cell worker's calls to train never reach the spy; the route over
        # every CPU is held to this one by tests/test_invariance.py
        monkeypatch.setattr(_split, "cpus", lambda: 1)
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


def _cell_tables(fixtures_dir, directory, widths) -> list:
    """One feature file per width over the fixture manifest's images; a wider one is larger."""
    ids = load_manifest(fixtures_dir / "manifest.tsv").ids()
    rng, paths = np.random.default_rng(5), []
    for width in widths:
        paths.append(directory / f"w{width}.txt")
        write_features(paths[-1], RowTable(ids, rng.standard_normal((len(ids), width))))
    return paths


def _broken(path, line: int):
    """A copy of feature file ``path`` whose ``line`` holds one value: ``path:line`` fails."""
    lines = path.read_text().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].split(" ")[0] + "\n"
    broken = path.with_name("bad-" + path.name)
    broken.write_text("".join(lines))
    return broken


def _run_cells(fixtures_dir, tmp_path, paths, *flags):
    """Run train-eval over one cell per path: its exit code and report bytes (None: no report)."""
    report = tmp_path / "cells.json"
    report.unlink(missing_ok=True)
    cells = [a for i, path in enumerate(paths) for a in ("--cell", f"r{i}:acc:{path}")]
    rc = run_cli("train-eval", "--manifest", fixtures_dir / "manifest.tsv", *cells,
                 "--epochs", 4, "--report-json", report, *flags)
    return rc, report.read_bytes() if report.exists() else None


def _started_jobs(monkeypatch) -> list:
    """Patch ``Forks.start`` to append the arguments of each job it starts."""
    started, real = [], _split.Forks.start

    def start(forks, job, *args):
        started.append(args)
        return real(forks, job, *args)

    monkeypatch.setattr(_split.Forks, "start", start)
    return started


def _no_child_left() -> bool:
    """Whether every child process made here has been reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestTrainEvalWorkers:
    """train-eval's cells spread over forked workers give the one-CPU run's bytes and faults."""

    def test_cells_are_placed_largest_first_onto_the_least_loaded_worker(self, tmp_path):
        paths = []
        for index, size in enumerate([10, 50, 30, 20, 40]):
            paths.append(str(tmp_path / f"{index}.txt"))
            Path(paths[-1]).write_bytes(b"x" * size)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        paths += [str(fifo), str(tmp_path / "missing.txt")]
        assert cli._placed(paths, 1) == [list(range(7))]
        # a tie goes to the first worker; the parent is the first
        assert cli._placed(paths, 2) == [[0, 1, 3, 5, 6], [2, 4]]
        assert cli._placed(paths, 3) == [[1, 5, 6], [0, 4], [2, 3]]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("first", ["on-a-worker", "in-the-parent"])
    def test_the_first_bad_cell_in_cell_order_wins(
        self, fixtures_dir, tmp_path, capsys, monkeypatch, cpus, first
    ):
        # the parent takes the largest file; the smaller ones go to a worker
        small, middle, large = _cell_tables(fixtures_dir, tmp_path, [3, 8, 40])
        bad_small, bad_large = _broken(small, 4), _broken(large, 9)
        if first == "on-a-worker":
            paths, message = [bad_small, middle, bad_large], f"{bad_small}:4: expected 3 values"
        else:
            paths, message = [bad_large, middle, bad_small], f"{bad_large}:9: expected 40 values"
        assert cli._placed([str(p) for p in paths], 2)[0] == [paths.index(bad_large)]
        monkeypatch.setattr(_split, "cpus", lambda: cpus)
        assert _run_cells(fixtures_dir, tmp_path, paths) == (2, None)
        assert capsys.readouterr() == ("", f"error: {message}, got 1\n")
        assert _no_child_left()

    @pytest.mark.parametrize("failure", ["none", "no-fork", "exit-1", "killed"])
    def test_a_worker_that_fails_costs_time_not_bytes(
        self, fixtures_dir, tmp_path, capsys, monkeypatch, failure
    ):
        paths = _cell_tables(fixtures_dir, tmp_path, [3, 8, 40])
        with mock.patch.object(_split, "cpus", lambda: 1):
            one_cpu = _run_cells(fixtures_dir, tmp_path, paths)
        expected = (one_cpu, capsys.readouterr())
        monkeypatch.setattr(_split, "cpus", lambda: 2)
        started = _started_jobs(monkeypatch)
        if failure == "no-fork":
            def fork():
                raise OSError("no fork here")

            monkeypatch.setattr(os, "fork", fork)
        elif failure == "exit-1":
            def failing(*args):
                raise ValueError("the worker fails")

            monkeypatch.setattr(cli, "_worker_cells", failing)
        elif failure == "killed":
            def killed(*args):
                os.kill(os.getpid(), signal.SIGKILL)

            monkeypatch.setattr(cli, "_worker_cells", killed)
        assert (_run_cells(fixtures_dir, tmp_path, paths), capsys.readouterr()) == expected
        assert expected[0][0] == 0
        assert [args[1] for args in started] == [[str(paths[0]), str(paths[1])]]
        assert _no_child_left()

    def test_a_cell_that_is_not_a_regular_file_runs_in_the_parent(
        self, fixtures_dir, tmp_path, capsys, monkeypatch
    ):
        small, large = _cell_tables(fixtures_dir, tmp_path, [3, 40])
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(_split, "cpus", lambda: cpus)
            started = _started_jobs(monkeypatch)
            # a child process, not a thread, feeds the FIFO: a live thread keeps cpus() at 1
            feeder = subprocess.Popen([
                sys.executable, "-c",
                "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())",
                str(small), str(fifo),
            ])
            try:
                runs.append((_run_cells(fixtures_dir, tmp_path, [fifo, small, large]),
                             capsys.readouterr()))
            finally:
                try:
                    feeder.wait(timeout=60)
                finally:
                    feeder.kill()
            assert [args[1] for args in started] == ([] if cpus == 1 else [[str(small)]])
            monkeypatch.undo()
        assert runs[0][0][0] == 0
        assert runs[0] == runs[1]
        assert _no_child_left()

    @pytest.mark.parametrize("cells, flags", [(3, []), (1, []), (1, ["--save-model", "m.txt"])],
                             ids=["one-cpu", "one-cell", "save-model"])
    def test_one_cpu_or_one_cell_makes_no_worker_and_no_temp_file(
        self, fixtures_dir, tmp_path, monkeypatch, cells, flags
    ):
        paths = _cell_tables(fixtures_dir, tmp_path, [3, 8, 40][:cells])
        monkeypatch.setattr(_split, "cpus", lambda: 1 if cells > 1 else 2)
        for name in ("fork", "_exit"):
            monkeypatch.setattr(os, name, mock.Mock(side_effect=AssertionError(name)))
        monkeypatch.setattr(_split.tempfile, "TemporaryFile", mock.Mock(side_effect=AssertionError))
        monkeypatch.chdir(tmp_path)
        assert _run_cells(fixtures_dir, tmp_path, paths, *flags)[0] == 0


def _cell_loaded_whole(manifest, path, cfg, class_names):
    """A train-eval cell as it was: the whole file loaded in file order, and each split
    gathered from it into a copy, the test split scored from that copy."""
    features = load_features(path)
    train_set = join_labeled(manifest, features, "train", class_names)
    test_set = join_labeled(manifest, features, "test", class_names)
    trained, history = train(init_model(features.dim, class_names, cfg.seed), train_set, cfg)
    pred = np.argmax(test_set.X @ trained.W.T + trained.b, axis=1)
    confusion = np.zeros((len(class_names), len(class_names)), dtype=np.int64)
    np.add.at(confusion, (test_set.y, pred), 1)
    return float((pred == test_set.y).mean()), confusion.tolist(), history, trained


def _cell_corpus(directory, n_train: int, n_test: int, classes: int, widths) -> tuple:
    """A shuffled manifest and one feature file per width, each in its own shuffled row order
    and holding seven ids the manifest lacks."""
    rng = np.random.default_rng(n_train + classes)
    ids = [f"img-{i:04d}" for i in range(n_train + n_test + 7)]
    splits = ["train"] * n_train + ["test"] * n_test
    rows = [ManifestRow(ids[i], f"c{i % classes:03d}", splits[i])
            for i in rng.permutation(n_train + n_test)]
    manifest = Manifest(rows=tuple(rows))
    write_manifest(directory / "manifest.tsv", manifest)
    paths = []
    for width in widths:
        order = rng.permutation(len(ids))
        labels = np.array([int(ids[i][4:]) % classes for i in order])
        matrix = rng.standard_normal((len(ids), width)) + np.cos(labels[:, None] + np.arange(width))
        paths.append(directory / f"w{width}.txt")
        write_features(paths[-1], RowTable([ids[i] for i in order], matrix))
    return manifest, paths


# per case: train rows (odd, so the test split starts at an odd row), test rows, classes
CELL_CASES = {"3-classes": (101, 40, 3), "200-classes": (201, 60, 200)}


class TestTrainEvalInPlace:
    """Each cell holds its train rows, then its test rows, and scores the test split in place."""

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    @pytest.mark.parametrize("case", sorted(CELL_CASES))
    def test_a_cell_trains_and_scores_as_the_whole_file_route_did(self, tmp_path, case, l2):
        manifest, paths = _cell_corpus(tmp_path, *CELL_CASES[case], widths=[3, 17])
        names = manifest.class_names()
        cfg = TrainConfig(learning_rate=0.3, epochs=3, batch_size=16, seed=5, l2=l2)
        for path in paths:
            accuracy, confusion, history, trained = _cell_loaded_whole(manifest, path, cfg, names)
            got = cli._train_eval_cell(manifest, path, cfg, names, tmp_path / "model.txt")
            assert got == (accuracy, confusion, history)
            assert load_model(tmp_path / "model.txt") == trained

    def test_the_table_holds_the_train_rows_then_the_test_rows_and_no_other(self, tmp_path):
        manifest, (path,) = _cell_corpus(tmp_path, 101, 40, 3, widths=[5])
        loaded = []

        def loading(*args):
            loaded.append(load_features(*args))
            return loaded[-1]

        with mock.patch.object(cli, "load_features", loading), \
                mock.patch.object(cli, "evaluate", wraps=evaluate) as scored:
            cli._train_eval_cell(manifest, path, TrainConfig(epochs=1), manifest.class_names(),
                                 None)
        (table,) = loaded
        split_ids = [row.image_id for split in ("train", "test")
                     for row in manifest.split_rows(split)]
        assert list(table) == split_ids
        assert table.matrix.tobytes() == load_features(path).rows(split_ids).tobytes()
        (test_set,) = [call.args[1] for call in scored.call_args_list]
        assert np.shares_memory(test_set.X, table.matrix)
        assert test_set.X.ctypes.data == table.matrix[101:].ctypes.data
        assert test_set.X.shape == (40, 5)

    @pytest.mark.parametrize("case", sorted(CELL_CASES))
    def test_reports_are_those_of_the_whole_file_route_on_1_2_and_3_cpus(
        self, tmp_path, capsys, monkeypatch, case
    ):
        manifest, paths = _cell_corpus(tmp_path, *CELL_CASES[case], widths=[3, 8, 40])
        names = manifest.class_names()
        cfg = TrainConfig(learning_rate=0.3, epochs=3, batch_size=16, seed=2, l2=0.01)
        expected = [_cell_loaded_whole(manifest, path, cfg, names)[:3] for path in paths]
        cells = [a for i, path in enumerate(paths) for a in ("--cell", f"r{i}:acc:{path}")]
        outputs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(_split, "cpus", lambda: cpus)
            report = tmp_path / f"report-{cpus}.json"
            assert run_cli("train-eval", "--manifest", tmp_path / "manifest.tsv", *cells,
                           "--lr", 0.3, "--epochs", 3, "--batch", 16, "--seed", 2,
                           "--l2", 0.01, "--report-json", report) == 0
            results = load_run_manifest(report).results["cells"]
            assert [(cell["accuracy"], cell["confusion"], cell["loss_history"])
                    for cell in results] == expected
            outputs.append((capsys.readouterr(), json.loads(report.read_text())["results"]))
        assert outputs[0] == outputs[1] == outputs[2]
        assert _no_child_left()


def _vqa_sets_concatenated(vqa, manifest, embeddings, feature_paths, answer_vocab):
    """The answer vocabulary, then the train and test matrices and labels of the vqa command as
    it built them: question sums stacked, each block's rows copied out of its table, all
    concatenated."""
    records = load_vqa(vqa)
    split_of = {row.image_id: row.split for row in load_manifest(manifest).rows}
    table = load_embeddings(embeddings, {t for r in records for t in tokenize(r.question)})
    blocks = [load_features(path) for path in feature_paths]
    train_records = [r for r in records if split_of[r.image_id] == "train"]
    counts = Counter(r.answer for r in train_records)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    answer_index = {answer: i for i, (answer, _) in enumerate(ranked[:answer_vocab])}

    def labeled(rows):
        ids = [r.image_id for r in rows]
        question = np.stack([aggregate(tokenize(r.question), table).vector for r in rows])
        return (np.concatenate([question, *(feats.rows(ids) for feats in blocks)], axis=1),
                np.array([answer_index[r.answer] for r in rows]))

    test_records = [r for r in records if split_of[r.image_id] == "test"]
    return (list(answer_index), labeled([r for r in train_records if r.answer in answer_index]),
            labeled([r for r in test_records if r.answer in answer_index]))


def _vqa_corpus(directory, questions: int, images: int = 60) -> list:
    """A seeded vqa corpus: its --vqa, --manifest, --embeddings, --image- and --text-features."""
    rng = np.random.default_rng(questions)
    ids = [f"img-{i:03d}" for i in range(images)]
    words = [f"w{i}" for i in range(43)]  # the last three miss the lexicon
    write_embeddings(directory / "lexicon.txt",
                     RowTable(words[:40], rng.standard_normal((40, 300))))
    rows = [ManifestRow(image_id, "x", "test" if i % 5 == 0 else "train")
            for i, image_id in enumerate(ids)]
    write_manifest(directory / "manifest.tsv", Manifest(rows=tuple(rows)))
    for name, width in (("image", 64), ("text", 300)):
        order = rng.permutation(images)
        write_features(directory / f"{name}.txt",
                       RowTable([ids[i] for i in order], rng.standard_normal((images, width))))
    write_vqa(directory / "vqa.jsonl", [
        VqaRecord(ids[int(rng.integers(images))],
                  " ".join(words[int(w)] for w in rng.integers(0, 43, 5)),
                  f"a{int(rng.integers(6))}")
        for _ in range(questions)
    ])
    return [directory / name for name in
            ("vqa.jsonl", "manifest.tsv", "lexicon.txt", "image.txt", "text.txt")]


class TestVqaInPlace:
    """vqa fills one matrix per split: the question sums, then each block's rows."""

    @pytest.mark.parametrize("mode", ["question", "question-image", "question-image-text"])
    @pytest.mark.parametrize("l2", [0.0, 0.01])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_the_sets_and_report_are_those_of_the_concatenating_route(
        self, tmp_path, monkeypatch, mode, l2, cpus
    ):
        vqa, manifest, lexicon, image, text = _vqa_corpus(tmp_path, 301)
        feature_paths = {"question": [], "question-image": [image],
                         "question-image-text": [image, text]}[mode]
        vocab, (X, y), (X_test, y_test) = _vqa_sets_concatenated(
            vqa, manifest, lexicon, feature_paths, 5
        )
        seen = []

        def training(model, data, cfg):
            seen.append(data)
            return train(model, data, cfg)

        def scoring(model, data):
            seen.append(data)
            return evaluate(model, data)

        report = tmp_path / "report.json"
        # every float table, however small, is split over ``cpus`` ranges: reads of 16 bytes
        # leave the ranges past the header's read something to split
        monkeypatch.setattr(_split, "cpus", lambda: cpus)
        monkeypatch.setattr(_split, "PARALLEL_MIN", 0)
        monkeypatch.setattr(_split, "CHUNK", 16)
        started = _started_jobs(monkeypatch)
        with mock.patch.object(cli, "train", training), mock.patch.object(cli, "evaluate", scoring):
            assert run_cli("vqa", "--vqa", vqa, "--manifest", manifest, "--embeddings", lexicon,
                           "--image-features", image, "--text-features", text, "--mode", mode,
                           "--answer-vocab", 5, "--epochs", 4, "--batch", 16, "--l2", l2,
                           "--report-json", report) == 0
        # the lexicon and each feature file, each split into ``cpus`` ranges
        assert len(started) == (1 + len(feature_paths)) * (cpus - 1)
        assert [(s.X.tobytes(), s.y.tolist()) for s in seen] == [
            (X.tobytes(), y.tolist()), (X_test.tobytes(), y_test.tolist())
        ]
        cfg = TrainConfig(learning_rate=0.1, epochs=4, batch_size=16, seed=0, l2=l2)
        results = load_run_manifest(report).results
        trained, history = train(init_model(X.shape[1], vocab, 0), LabeledSet(X, y), cfg)
        assert results["loss_history"] == history
        correct = int(np.trace(evaluate(trained, LabeledSet(X_test, y_test))[1]))
        assert results["accuracy"] == correct / results["n_test"]

    def test_each_distinct_question_is_tokenized_once(self, tmp_path, capsys):
        paths = _vqa_corpus(tmp_path, 301)
        records = load_vqa(paths[0])
        # the first question asked again, of the last record's image
        write_vqa(paths[0], [*records, VqaRecord(records[-1].image_id, records[0].question, "a0")])
        with mock.patch.object(cli, "tokenize", wraps=tokenize) as tokenized:
            assert run_cli("vqa", "--vqa", paths[0], "--manifest", paths[1], "--embeddings",
                           paths[2], "--mode", "question", "--answer-vocab", 5) == 0
        asked = [call.args[0] for call in tokenized.call_args_list]
        assert sorted(asked) == sorted({r.question for r in records})

    def test_building_a_split_holds_no_second_matrix(self, tmp_path):
        # 3000 questions of 664 values: the sets are 15.9 MB, and the old route held the
        # stacked question sums and each block's copied rows beside a set's matrix
        paths = _vqa_corpus(tmp_path, 3000)
        sizes = []

        def training(model, data, cfg):
            sizes.append(data.X.nbytes)
            return model, [1.0]

        def scoring(model, data):
            sizes.append(data.X.nbytes)
            return evaluate(model, data)

        with mock.patch.object(cli, "train", training), mock.patch.object(cli, "evaluate", scoring):
            peak = _traced_peak("vqa", "--vqa", paths[0], "--manifest", paths[1],
                                "--embeddings", paths[2], "--image-features", paths[3],
                                "--text-features", paths[4], "--answer-vocab", 6)
        assert sum(sizes) > 15_000_000
        assert peak < 1.2 * sum(sizes), (peak, sizes)


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
         ("--batch", "0", "batch_size must be >= 1"),
         ("--seed", "-1", "seed must be nonnegative, got -1"),
         ("--seed", str(2**64), "seed must be below 2**64, got 18446744073709551616")],
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

    def test_a_negative_seed_fails_before_anything_is_created(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert run_cli("synth", "--out", out, "--seed", -1) == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not out.exists()

    def test_an_allocation_that_fails_exits_2_before_anything_is_created(self, tmp_path, capsys):
        out = tmp_path / "synth"
        refused = MemoryError(
            "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type "
            "int64"
        )
        with mock.patch.object(cli, "make_synthetic", side_effect=refused):
            rc = run_cli("synth", "--out", out, "--n-train", 10**12, "--n-test", 1)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {refused}\n"
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


class TestDefaults:
    """A flag left out takes the default of the config that it sets."""

    @pytest.mark.parametrize("argv", [
        ["train-eval", "--manifest", "m"],
        ["vqa", "--vqa", "q", "--manifest", "m", "--embeddings", "e"],
    ], ids=["train-eval", "vqa"])
    def test_the_train_flags_give_the_default_train_config(self, argv):
        assert cli._train_config(cli.build_parser().parse_args(argv)) == TrainConfig()

    def test_the_fuse_flags_give_the_default_spec(self):
        args = cli.build_parser().parse_args(["fuse", "--a", "a", "--b", "b", "--out", "o"])
        assert cli._fusion_spec(args) == FusionSpec()

    def test_the_synth_flags_give_the_default_fields(self):
        args = cli.build_parser().parse_args(["synth", "--out", "o"])
        default = SynthConfig(n_train=1, n_test=1, dim_a=1, dim_b=1, n_classes=2)
        assert (args.interaction, args.sigma, args.seed) == (
            default.interaction, default.noise_sigma, default.seed
        )


# the checkout's package first, for a child process
_PYTHONPATH = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")
]))

# commands whose sum or fusion overflows: each makes a non-finite row from finite inputs
OVERFLOWS = ["featurize-text", "featurize-text-k1-k2", "fuse-average", "fuse-mcb", "vqa"]


def _overflow(case: str, fixtures_dir, tmp_path) -> tuple[list, str]:
    """The argv of a command whose sum or fusion overflows in ``tmp_path``, and its message."""
    out = tmp_path / "out.txt"
    if case.startswith("fuse-"):
        features = tmp_path / "features.txt"
        features.write_text("2 2\nb\t1.0 2.0\na\t1e308 1e308\n")
        scheme = case.removeprefix("fuse-")
        argv = ["fuse", "--a", features, "--b", features, "--out", out, "--scheme", scheme,
                "--d", 16]
        return argv, "feature for 'a' has non-finite values"
    lexicon = tmp_path / "lexicon.txt"
    if case.startswith("featurize-text"):
        lexicon.write_text("2 2\nsun 1e308 1e308\nsea 1e308 -1.0\n")
        transcriptions = tmp_path / "t.jsonl"
        transcriptions.write_text(
            '{"image_id": "a", "words": [{"token": "sun", "conf": 0.9}]}\n'
            '{"image_id": "b", "words": [{"token": "sun", "conf": 0.9}, '
            '{"token": "sea", "conf": 0.9}]}\n'
        )
        # with --k 1 too, b's k=1 row ('sea' alone) is finite, and its table is checked first
        ks = ["--out", out, "--k", 2] if case == "featurize-text" else [
            "--out", tmp_path / "k{k}.txt", "--k", 1, "--k", 2]
        argv = ["featurize-text", "--transcriptions", transcriptions, "--embeddings", lexicon,
                *ks, "--cleaning-report", tmp_path / "clean.json"]
        return argv, "feature for 'b' has non-finite values"
    # the fixture lexicon with every value 1e308: a question of two known words overflows
    table = load_embeddings(fixtures_dir / "embeddings.txt")
    write_embeddings(lexicon, RowTable(table, np.full(table.matrix.shape, 1e308)))
    argv = ["vqa", "--vqa", fixtures_dir / "vqa.jsonl", "--manifest", fixtures_dir / "manifest.tsv",
            "--embeddings", lexicon, "--mode", "question", "--report-json", out]
    return argv, ("embedding sum of question 'what brand is shown' (image 'ad-0001') has "
                  "non-finite values")


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

    @pytest.mark.parametrize("case", OVERFLOWS)
    def test_an_overflow_fails_as_a_non_finite_row(self, fixtures_dir, tmp_path, capsys, case):
        argv, message = _overflow(case, fixtures_dir, tmp_path)
        before = sorted(tmp_path.iterdir())
        errors = np.geterr()
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(tmp_path.iterdir()) == before
        assert np.geterr() == errors  # the command's error state ends with it

    @pytest.mark.parametrize("case", OVERFLOWS)
    def test_an_overflow_warns_of_nothing_under_w_error(self, fixtures_dir, tmp_path, case):
        argv, message = _overflow(case, fixtures_dir, tmp_path)
        before = sorted(tmp_path.iterdir())
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "scenefuse", *map(str, argv)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": _PYTHONPATH},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
        assert sorted(tmp_path.iterdir()) == before


def _vqa_case(case: str, fixtures_dir, tmp_path) -> list:
    """The argv of a vqa run in ``tmp_path`` whose records or features ``case`` spoils."""
    records = load_vqa(fixtures_dir / "vqa.jsonl")
    split_of = {row.image_id: row.split for row in load_manifest(fixtures_dir / "manifest.tsv").rows}
    image = fixtures_dir / "image_features.txt"
    if case == "id-missing-from-manifest":
        records.append(VqaRecord("ad-0099", "what is shown", "nike"))
    elif case == "id-missing-from-features":
        table = load_features(image)
        image = tmp_path / "image.txt"
        write_features(image, RowTable(list(table)[:-1], table.matrix[:-1]))
    elif case in ("no-train-records", "no-test-records"):
        records = [r for r in records if split_of[r.image_id] != case.split("-")[1]]
    elif case == "one-training-answer":
        records = [r for r in records if split_of[r.image_id] == "test" or r.answer == "nike"]
    write_vqa(tmp_path / "vqa.jsonl", records)
    return ["vqa", "--vqa", tmp_path / "vqa.jsonl", "--manifest", fixtures_dir / "manifest.tsv",
            "--embeddings", fixtures_dir / "embeddings.txt", "--image-features", image,
            "--mode", "question-image", "--report-json", tmp_path / "report.json"]


class TestErrorBranches:
    """Faults of the input or flags that each command names before it writes any file."""

    CASES = {
        "train-eval-empty-test-split": "manifest split 'test' is empty",
        "train-eval-negative-l2": "l2 must be nonnegative",
        "vqa-id-missing-from-manifest": "vqa image ids missing from manifest: ad-0099",
        "vqa-id-missing-from-features": "vqa image ids missing from image features: ad-0012",
        "vqa-no-train-records": "no vqa records fall in the train split",
        "vqa-no-test-records": "no vqa records fall in the test split",
        "vqa-one-training-answer": "answer vocabulary needs at least two distinct training answers",
        "synth-dim-a-0": "dim_a and dim_b must be >= 1",
        "featurize-text-conf-out-of-range": "{path}:1: bad transcription record: conf {conf} is "
                                            "out of range",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_fault_exits_2_with_its_message_and_writes_nothing(
        self, fixtures_dir, tmp_path, capsys, case
    ):
        features, manifest = fixtures_dir / "image_features.txt", fixtures_dir / "manifest.tsv"
        message = self.CASES[case]
        if case == "train-eval-empty-test-split":
            manifest = tmp_path / "manifest.tsv"
            manifest.write_text("ad-0001\tfootwear\ttrain\nad-0002\tdrinks\ttrain\n")
        if case.startswith("train-eval"):
            flags = ["--l2", -1] if case.endswith("l2") else []
            argv = ["train-eval", "--manifest", manifest, "--features", features, *flags,
                    "--report-json", tmp_path / "report.json"]
        elif case.startswith("vqa"):
            argv = _vqa_case(case.removeprefix("vqa-"), fixtures_dir, tmp_path)
        elif case == "synth-dim-a-0":
            argv = ["synth", "--out", tmp_path / "synth", "--dim-a", 0]
        else:
            # a JSON integer beyond the float range: float() of it overflows
            conf, path = 10**400, tmp_path / "t.jsonl"
            path.write_text(json.dumps({"image_id": "a", "words": [{"token": "nike", "conf": conf}]}))
            message = message.format(path=path, conf=conf)
            argv = ["featurize-text", "--transcriptions", path,
                    "--embeddings", fixtures_dir / "embeddings.txt", "--out", tmp_path / "text.txt",
                    "--cleaning-report", tmp_path / "clean.json"]
        before = sorted(tmp_path.iterdir())
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(tmp_path.iterdir()) == before


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
