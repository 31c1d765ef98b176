import numpy as np
import pytest

from scenefuse.classifier import init_model
from scenefuse.data import CleaningReport, Manifest, ManifestRow, VqaRecord
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
from scenefuse.text import EmbeddingTable, TranscribedWord, TranscriptionRecord


class TestEmbeddingsFormat:
    def test_fixture_loads(self, fixtures_dir):
        table = load_embeddings(fixtures_dir / "embeddings.txt")
        assert table.dim == 6
        assert len(table) == 29
        assert np.array_equal(table.get("just"), [0.9, 0.1, -0.1, 0.2, 0.0, 0.1])

    def test_round_trip_bytes(self, fixtures_dir, tmp_path):
        table = load_embeddings(fixtures_dir / "embeddings.txt")
        out = tmp_path / "emb.txt"
        write_embeddings(out, table)
        again = load_embeddings(out)
        assert again.dim == table.dim
        assert list(again.entries) == list(table.entries)
        assert all(np.array_equal(again.entries[k], table.entries[k]) for k in table.entries)
        twice = tmp_path / "emb2.txt"
        write_embeddings(twice, again)
        assert out.read_bytes() == twice.read_bytes()

    def test_wrong_arity_names_line(self, tmp_path):
        bad = tmp_path / "emb.txt"
        bad.write_text("2 3\nok 1.0 2.0 3.0\nshort 1.0 2.0\n")
        with pytest.raises(ValueError, match=r":3"):
            load_embeddings(bad)

    def test_header_count_mismatch(self, tmp_path):
        bad = tmp_path / "emb.txt"
        bad.write_text("3 2\na 1.0 2.0\n")
        with pytest.raises(ValueError, match="count"):
            load_embeddings(bad)

    def test_duplicate_token(self, tmp_path):
        bad = tmp_path / "emb.txt"
        bad.write_text("2 1\na 1.0\na 2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_embeddings(bad)


class TestFeatureFormat:
    def test_fixture_loads(self, fixtures_dir):
        feats = load_features(fixtures_dir / "image_features.txt")
        assert len(feats) == 12
        assert all(v.shape == (5,) for v in feats.values())
        assert list(feats)[0] == "ad-0001"

    def test_round_trip_preserves_exact_floats(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = {f"id-{i}": rng.standard_normal(4) for i in range(5)}
        out = tmp_path / "f.txt"
        write_features(out, feats)
        again = load_features(out)
        assert list(again) == list(feats)
        for k in feats:
            assert feats[k].tobytes() == again[k].tobytes()

    def test_non_finite_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            write_features(tmp_path / "f.txt", {"a": np.array([1.0, np.inf])})

    def test_non_finite_rejected_on_load(self, tmp_path):
        bad = tmp_path / "f.txt"
        bad.write_text("1 2\na\t1.0 nan\n")
        with pytest.raises(ValueError, match=r":2"):
            load_features(bad)

    def test_wrong_value_count_names_line(self, tmp_path):
        bad = tmp_path / "f.txt"
        bad.write_text("1 3\na\t1.0 2.0\n")
        with pytest.raises(ValueError, match=r":2"):
            load_features(bad)

    def test_duplicate_id(self, tmp_path):
        bad = tmp_path / "f.txt"
        bad.write_text("2 1\na\t1.0\na\t2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_features(bad)

    def test_missing_tab(self, tmp_path):
        bad = tmp_path / "f.txt"
        bad.write_text("1 1\na 1.0\n")
        with pytest.raises(ValueError, match=r":2"):
            load_features(bad)


class TestTranscriptionFormat:
    def test_fixture_loads(self, fixtures_dir):
        records = load_transcriptions(fixtures_dir / "transcriptions.jsonl")
        assert len(records) == 12
        assert records["ad-0005"].words == ()
        assert records["ad-0001"].words[0] == TranscribedWord("just", 0.95)

    def test_round_trip(self, fixtures_dir, tmp_path):
        records = load_transcriptions(fixtures_dir / "transcriptions.jsonl")
        out = tmp_path / "t.jsonl"
        write_transcriptions(out, records)
        assert load_transcriptions(out) == records

    def test_bad_json_names_line(self, tmp_path):
        bad = tmp_path / "t.jsonl"
        bad.write_text('{"image_id": "a", "words": []}\nnot json\n')
        with pytest.raises(ValueError, match=r":2"):
            load_transcriptions(bad)

    def test_missing_key_names_line(self, tmp_path):
        bad = tmp_path / "t.jsonl"
        bad.write_text('{"image_id": "a"}\n')
        with pytest.raises(ValueError, match=r":1"):
            load_transcriptions(bad)

    def test_duplicate_image_id(self, tmp_path):
        bad = tmp_path / "t.jsonl"
        bad.write_text('{"image_id": "a", "words": []}\n{"image_id": "a", "words": []}\n')
        with pytest.raises(ValueError, match="duplicate"):
            load_transcriptions(bad)

    def test_confidence_out_of_range_rejected(self, tmp_path):
        bad = tmp_path / "t.jsonl"
        bad.write_text('{"image_id": "a", "words": [{"token": "x", "conf": 1.5}]}\n')
        with pytest.raises(ValueError, match=r":1"):
            load_transcriptions(bad)


    @pytest.mark.parametrize("conf", ["true", "false", '"0.9"', "null"])
    def test_non_numeric_confidence_rejected(self, tmp_path, conf):
        bad = tmp_path / "t.jsonl"
        bad.write_text(
            '{"image_id": "a", "words": []}\n'
            f'{{"image_id": "b", "words": [{{"token": "x", "conf": {conf}}}]}}\n'
        )
        with pytest.raises(ValueError, match=r"t\.jsonl:2: .*conf must be a number"):
            load_transcriptions(bad)


class TestManifestFormat:
    def test_fixture_loads(self, fixtures_dir):
        manifest = load_manifest(fixtures_dir / "manifest.tsv")
        assert len(manifest.rows) == 12
        assert manifest.class_names() == ["drinks", "footwear", "vehicles"]
        assert len(manifest.split_rows("train")) == 8
        assert len(manifest.split_rows("test")) == 4

    def test_round_trip(self, fixtures_dir, tmp_path):
        manifest = load_manifest(fixtures_dir / "manifest.tsv")
        out = tmp_path / "m.tsv"
        write_manifest(out, manifest)
        assert load_manifest(out) == manifest
        assert out.read_bytes() == (fixtures_dir / "manifest.tsv").read_bytes()

    def test_bad_split_names_line(self, tmp_path):
        bad = tmp_path / "m.tsv"
        bad.write_text("a\tcat\ttrain\nb\tcat\tdev\n")
        with pytest.raises(ValueError, match=r":2"):
            load_manifest(bad)

    def test_wrong_column_count(self, tmp_path):
        bad = tmp_path / "m.tsv"
        bad.write_text("a\tcat\n")
        with pytest.raises(ValueError, match=r":1"):
            load_manifest(bad)

    def test_duplicate_id_names_line(self, tmp_path):
        bad = tmp_path / "m.tsv"
        bad.write_text("a\tcat\ttrain\na\tdog\ttest\n")
        with pytest.raises(ValueError, match=r":2"):
            load_manifest(bad)


class TestVqaFormat:
    def test_fixture_loads(self, fixtures_dir):
        records = load_vqa(fixtures_dir / "vqa.jsonl")
        assert len(records) == 11
        assert records[0] == VqaRecord("ad-0001", "what brand is shown", "nike")

    def test_round_trip(self, fixtures_dir, tmp_path):
        records = load_vqa(fixtures_dir / "vqa.jsonl")
        out = tmp_path / "v.jsonl"
        write_vqa(out, records)
        assert load_vqa(out) == records

    def test_empty_answer_rejected(self, tmp_path):
        bad = tmp_path / "v.jsonl"
        bad.write_text('{"image_id": "a", "question": "q", "answer": ""}\n')
        with pytest.raises(ValueError, match=r":1"):
            load_vqa(bad)


class TestModelFormat:
    def test_round_trip_bit_equal(self, tmp_path):
        model = init_model(7, ["alpha", "beta", "gamma"], seed=99)
        model.W[0, 0] = 1.0 / 3.0  # force a value with no short decimal form
        out = tmp_path / "model.txt"
        save_model(out, model)
        again = load_model(out)
        assert again.class_names == model.class_names
        assert again.W.tobytes() == model.W.tobytes()
        assert again.b.tobytes() == model.b.tobytes()
        twice = tmp_path / "model2.txt"
        save_model(twice, again)
        assert out.read_bytes() == twice.read_bytes()

    def test_wrong_row_count(self, tmp_path):
        bad = tmp_path / "model.txt"
        bad.write_text("2 1\na\tb\n1.0 0.0\n")
        with pytest.raises(ValueError, match="rows"):
            load_model(bad)

    def test_tab_in_class_name_rejected(self, tmp_path):
        model = init_model(2, ["ok", "bad\tname"], seed=0)
        with pytest.raises(ValueError, match="tab"):
            save_model(tmp_path / "model.txt", model)


class TestReportFormats:
    def test_cleaning_report_round_trip(self, tmp_path):
        report = CleaningReport(
            total_words=10, kept_words=7, removed_words=3, emptied_records=1,
            removed_per_image={"a": 2, "b": 1, "c": 0},
        )
        out = tmp_path / "clean.json"
        write_cleaning_report(out, report)
        assert load_cleaning_report(out) == report

    def test_run_manifest_round_trip(self, tmp_path):
        manifest = RunManifest(
            tool="scenefuse", version="0.1.0", command="fuse",
            params={"scheme": "mcb", "d": 1024, "seed_a": 1, "seed_b": 2},
            results={"rows": 12},
        )
        out = tmp_path / "run.json"
        write_run_manifest(out, manifest)
        assert load_run_manifest(out) == manifest
        twice = tmp_path / "run2.json"
        write_run_manifest(twice, load_run_manifest(out))
        assert out.read_bytes() == twice.read_bytes()

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_run_manifest_rejects_non_finite_floats(self, tmp_path, value):
        manifest = RunManifest(
            tool="scenefuse", version="0.1.0", command="train-eval",
            params={}, results={"final_train_loss": value},
        )
        with pytest.raises(ValueError):
            write_run_manifest(tmp_path / "run.json", manifest)
