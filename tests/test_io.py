import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scenefuse.classifier import ClassifierModel, init_model
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
from scenefuse.text import EmbeddingTable, TranscribedWord

# any value a JSON document can hold, nested a little
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


CLEANING_REPORT = {
    "total_words": 3, "kept_words": 2, "removed_words": 1, "emptied_records": 0,
    "removed_per_image": {"a": 1},
}
RUN_MANIFEST = {
    "tool": "scenefuse", "version": "0.1.0", "command": "fuse", "params": {}, "results": {},
}


def _load_or_name_line(loader, path, lines):
    """Load ``lines``; a rejection must be a ValueError that starts with ``path:2:``."""
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n", encoding="utf-8")
    try:
        return loader(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:2: "), str(exc)
        return None


# a float field: five times in six a finite float's repr, else a short run of float-ish
# characters and words, including those where np.loadtxt and float() disagree
# (U+001F, "1_0", a non-ASCII digit)
FLOAT_FIELDS = st.integers(0, 5).flatmap(
    lambda draw: st.floats(allow_nan=False, allow_infinity=False).map(repr) if draw else st.lists(
        st.sampled_from([*"0123456789.eE+-_ \t\n\x1f", "nan", "inf", "\u0661"]), max_size=6
    ).map("".join)
)

# finite float64 matrices, with the signed zero and both ends of the float range
FINITE_MATRICES = arrays(
    np.float64,
    st.tuples(st.integers(2, 5), st.integers(2, 4)),
    elements=st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]),
)

# per float table: loader, first data line, separator before the values (None: the whole line)
FLOAT_TABLES = {
    "embeddings": (load_embeddings, 1, " "),
    "features": (load_features, 1, "\t"),
    "model": (load_model, 2, None),
}


def _table_text(kind: str, rows: list[list[str]]) -> str:
    """A float table whose header fits ``rows``; the fields themselves may be anything."""
    dim = len(rows[0])
    if kind == "model":
        head = [f"{len(rows)} {dim - 1}", "\t".join(f"c{i}" for i in range(len(rows)))]
        return "\n".join(head + [" ".join(row) for row in rows]) + "\n"
    sep = FLOAT_TABLES[kind][2]
    lines = [f"k{i}{sep}" + " ".join(row) for i, row in enumerate(rows)]
    return "\n".join([f"{len(rows)} {dim}"] + lines) + "\n"


def _loaded_matrix(kind: str, loaded) -> np.ndarray:
    if kind == "embeddings":
        return loaded.matrix
    if kind == "features":
        return np.stack(list(loaded.values()))
    return np.column_stack([loaded.W, loaded.b])


def _float_reference(text: str, first: int, sep) -> list[list[float]]:
    """Each data line's values through float(), one line at a time."""
    return [
        [float(v) for v in (line if sep is None else line.partition(sep)[2]).split(" ")]
        for line in text.splitlines()[first:]
    ]


class TestFloatTables:
    @given(
        kind=st.sampled_from(sorted(FLOAT_TABLES)),
        rows=st.integers(2, 3).flatmap(
            lambda dim: st.lists(
                st.lists(FLOAT_FIELDS, min_size=dim, max_size=dim), min_size=2, max_size=4
            )
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_any_text_loads_as_float_reads_it_or_names_the_file(self, tmp_path_factory, kind, rows):
        loader, first, sep = FLOAT_TABLES[kind]
        path = tmp_path_factory.getbasetemp() / f"fuzz-{kind}.txt"
        text = _table_text(kind, rows)
        path.write_text(text, encoding="utf-8")
        try:
            loaded = loader(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)
            if "unparseable float" in str(exc):  # float() itself rejects that line
                lineno = int(str(exc)[len(f"{path}:") :].split(":")[0])
                with pytest.raises(ValueError):
                    _float_reference(text.splitlines()[lineno - 1], 0, sep)
            return
        expected = np.array(_float_reference(text, first, sep))
        assert _loaded_matrix(kind, loaded).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", sorted(FLOAT_TABLES))
    @pytest.mark.parametrize("field", ["1_0", "\u0661", "\u00a02.5", "+.5e1", "1e999", "\x1f1", ""])
    def test_fields_read_exactly_as_float_reads_them(self, tmp_path, kind, field):
        loader, first, sep = FLOAT_TABLES[kind]
        path = tmp_path / "table.txt"
        text = _table_text(kind, [["0.5", "1.5"], ["2.5", field]])
        path.write_text(text, encoding="utf-8")
        try:
            value = float(field)
        except ValueError:
            with pytest.raises(ValueError, match=rf"table\.txt:{first + 2}: unparseable float"):
                loader(path)
            return
        if not np.isfinite(value):
            with pytest.raises(ValueError, match=rf"table\.txt:{first + 2}: non-finite value"):
                loader(path)
            return
        assert _loaded_matrix(kind, loader(path)).tolist() == [[0.5, 1.5], [2.5, value]]

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: write_features(path, {"a": np.ones(2), "b": np.array([1.0, np.inf])}),
            lambda path: write_features(path, {"a": np.ones(2), "b": np.ones(3)}),
            lambda path: write_embeddings(path, EmbeddingTable(["a", "b"], [[1.0], [np.nan]])),
        ],
        ids=["features-non-finite", "features-dim", "embeddings-non-finite"],
    )
    def test_a_bad_last_row_leaves_no_file(self, tmp_path, write):
        path = tmp_path / "table.txt"
        with pytest.raises(ValueError, match="'b' has"):
            write(path)
        assert not path.exists()

    @given(kind=st.sampled_from(sorted(FLOAT_TABLES)), matrix=FINITE_MATRICES)
    @settings(max_examples=150, deadline=None)
    def test_finite_matrices_round_trip_bit_exactly(self, tmp_path_factory, kind, matrix):
        loader = FLOAT_TABLES[kind][0]
        keys = [f"k{i}" for i in range(len(matrix))]
        writer = {
            "embeddings": lambda path, m: write_embeddings(path, EmbeddingTable(keys, m)),
            "features": lambda path, m: write_features(path, dict(zip(keys, m))),
            "model": lambda path, m: save_model(path, ClassifierModel(m[:, :-1], m[:, -1], keys)),
        }[kind]
        base = tmp_path_factory.getbasetemp()
        writer(base / "once.txt", matrix)
        again = _loaded_matrix(kind, loader(base / "once.txt"))
        assert again.tobytes() == matrix.tobytes()
        writer(base / "twice.txt", again)
        assert (base / "once.txt").read_bytes() == (base / "twice.txt").read_bytes()


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
        assert list(again.index) == list(table.index)
        assert again.matrix.tobytes() == table.matrix.tobytes()
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


    @given(field=st.sampled_from(["image_id", "token", "conf"]), value=JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_any_json_value_loads_or_names_its_line(self, tmp_path_factory, field, value):
        word = {"token": "x", "conf": 0.5}
        record = {"image_id": "b", "words": [word]}
        (record if field == "image_id" else word)[field] = value
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        loaded = _load_or_name_line(
            load_transcriptions, path, [{"image_id": "a", "words": []}, record]
        )
        if loaded is not None:
            (got,) = loaded[value if field == "image_id" else "b"].words
            assert isinstance(got.token, str) and isinstance(got.confidence, float)

    @pytest.mark.parametrize("token", ["5", "[\"sale\"]", "null", "true"])
    def test_non_string_token_rejected(self, tmp_path, token):
        bad = tmp_path / "t.jsonl"
        bad.write_text(
            '{"image_id": "a", "words": []}\n'
            f'{{"image_id": "b", "words": [{{"token": {token}, "conf": 0.9}}]}}\n'
        )
        with pytest.raises(ValueError, match=r"t\.jsonl:2: .*token must be a string"):
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


    @given(field=st.sampled_from(["image_id", "question", "answer"]), value=JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_any_json_value_loads_or_names_its_line(self, tmp_path_factory, field, value):
        record = {"image_id": "b", "question": "what is it", "answer": "nike"}
        record[field] = value
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        loaded = _load_or_name_line(load_vqa, path, [VqaRecord("a", "q", "x").__dict__, record])
        if loaded is not None:
            assert all(isinstance(getattr(loaded[1], f), str) for f in record)

    def test_non_string_question_rejected(self, tmp_path):
        bad = tmp_path / "v.jsonl"
        bad.write_text('{"image_id": "a", "question": ["what"], "answer": "x"}\n')
        with pytest.raises(ValueError, match=r"v\.jsonl:1: .*question must be a string"):
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

    @pytest.mark.parametrize(
        "text",
        [
            "2 -3\na\tb\n1.0\n2.0\n",  # numpy's "negative dimensions", naming no file
            "2 0\na\tb\n1.0\n2.0\n",  # would load a zero-width model
            "1 2\na\n1.0 2.0 3.0\n",  # would load a one-class model
            "0 2\n\n",
        ],
    )
    def test_header_needs_two_classes_and_one_dim(self, tmp_path, text):
        bad = tmp_path / "model.txt"
        bad.write_text(text)
        with pytest.raises(ValueError, match=r"model\.txt:1: bad header values"):
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

    @pytest.mark.parametrize("loader", [load_cleaning_report, load_run_manifest])
    @pytest.mark.parametrize("text", ["{}", "[]", "1", '"x"', "null", "{"])
    def test_reports_that_are_not_the_expected_object_name_the_file(self, tmp_path, loader, text):
        bad = tmp_path / "report.json"
        bad.write_text(text)
        with pytest.raises(ValueError, match=r"report\.json:"):
            loader(bad)

    @given(
        loader=st.sampled_from([load_cleaning_report, load_run_manifest]),
        field=st.sampled_from([None, *CLEANING_REPORT, *RUN_MANIFEST]),
        value=JSON_VALUES,
    )
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_loads_or_names_the_file(self, tmp_path_factory, loader, field, value):
        valid = CLEANING_REPORT if loader is load_cleaning_report else RUN_MANIFEST
        doc = value if field is None else {**valid, field: value}
        path = tmp_path_factory.getbasetemp() / "report.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            loaded = loader(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)
            return
        for key, expected in valid.items():
            got = getattr(loaded, key)
            assert type(got) is type(expected)
            if key == field:  # compared as JSON text: a NaN inside never equals itself
                assert json.dumps(got) == json.dumps(value)
        if loader is load_cleaning_report:
            assert all(type(n) is int for n in loaded.removed_per_image.values())
