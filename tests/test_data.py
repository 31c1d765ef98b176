import numpy as np
import pytest

from scenefuse.classifier import LabeledSet, TrainConfig, evaluate, init_model, train
from scenefuse.data import (
    CleaningReport,
    Manifest,
    ManifestRow,
    SynthConfig,
    VqaRecord,
    clean_corpus,
    join_labeled,
    make_synthetic,
)
from scenefuse.text import RowTable, TranscribedWord, TranscriptionRecord


def record(image_id, *tokens_with_conf):
    words = tuple(TranscribedWord(token=t, confidence=c) for t, c in tokens_with_conf)
    return TranscriptionRecord(image_id=image_id, words=words)


class TestManifest:
    def test_duplicate_ids_rejected(self):
        rows = (
            ManifestRow("a", "x", "train"),
            ManifestRow("a", "y", "test"),
        )
        with pytest.raises(ValueError, match="duplicate"):
            Manifest(rows=rows)

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            ManifestRow("a", "x", "validation")

    def test_class_names_sorted(self):
        m = Manifest(
            rows=(
                ManifestRow("1", "zebra", "train"),
                ManifestRow("2", "ant", "train"),
                ManifestRow("3", "ant", "test"),
            )
        )
        assert m.class_names() == ["ant", "zebra"]


class TestVqaRecord:
    def test_rejects_empty_fields(self):
        with pytest.raises(ValueError):
            VqaRecord("img", "", "yes")


class TestCleanCorpus:
    def test_threshold_zero_is_identity(self):
        corpus = {"a": record("a", ("x", 0.2), ("y", 0.9))}
        cleaned, report = clean_corpus(corpus, 0.0)
        assert cleaned == corpus
        assert report.removed_words == 0

    def test_counting_identity(self):
        corpus = {
            "a": record("a", ("x", 0.2), ("y", 0.9)),
            "b": record("b", ("z", 0.5)),
            "c": record("c"),
        }
        cleaned, report = clean_corpus(corpus, 0.7)
        assert report.total_words == 3
        assert report.kept_words == 1
        assert report.removed_words == report.total_words - report.kept_words
        assert sum(report.removed_per_image.values()) == report.removed_words

    def test_emptied_records_counted_and_retained(self):
        corpus = {"a": record("a", ("x", 0.1)), "b": record("b")}
        cleaned, report = clean_corpus(corpus, 0.7)
        assert set(cleaned) == {"a", "b"}
        assert cleaned["a"].words == ()
        assert report.emptied_records == 1  # "b" was already empty

    def test_idempotent(self):
        corpus = {"a": record("a", ("x", 0.2), ("y", 0.9), ("z", 0.7))}
        once, _ = clean_corpus(corpus, 0.7)
        twice, report = clean_corpus(once, 0.7)
        assert once == twice
        assert report.removed_words == 0

    def test_never_increases_word_counts(self):
        corpus = {"a": record("a", ("x", 0.4), ("y", 0.9))}
        for threshold in (0.0, 0.3, 0.5, 0.95, 1.0):
            cleaned, _ = clean_corpus(corpus, threshold)
            assert len(cleaned["a"].words) <= len(corpus["a"].words)


class TestJoinLabeled:
    def make_manifest(self):
        return Manifest(
            rows=(
                ManifestRow("i1", "cat", "train"),
                ManifestRow("i2", "dog", "train"),
                ManifestRow("i3", "cat", "test"),
            )
        )

    def test_join(self):
        feats = RowTable(["i1", "i2", "i3"], [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        examples = join_labeled(self.make_manifest(), feats, "train")
        assert len(examples) == 2
        assert np.array_equal(examples.X, [[1.0, 0.0], [1.0, 1.0]])  # manifest order
        assert examples.y[0] == 0  # cat sorts first
        assert examples.y[1] == 1
        assert np.shares_memory(examples.X, feats.matrix)  # one run of rows: a view

    def test_join_follows_the_manifest_not_the_table(self):
        feats = RowTable(["i3", "i2", "i1"], [[1.0, 2.0], [1.0, 1.0], [1.0, 0.0]])
        examples = join_labeled(self.make_manifest(), feats, "train")
        assert np.array_equal(examples.X, [[1.0, 0.0], [1.0, 1.0]])
        assert not np.shares_memory(examples.X, feats.matrix)  # rows 2, 1: a copy
        assert examples.y.tolist() == [0, 1]

    def test_missing_id_named_in_error(self):
        feats = RowTable(["i1"], np.zeros((1, 2)))
        with pytest.raises(ValueError, match="i2"):
            join_labeled(self.make_manifest(), feats, "train")

    def test_empty_split_rejected(self):
        manifest = Manifest(rows=(ManifestRow("i1", "cat", "train"),))
        with pytest.raises(ValueError, match="test"):
            join_labeled(manifest, RowTable(["i1"], np.zeros((1, 2))), "test")

    def test_label_outside_class_set_rejected(self):
        feats = RowTable(["i1", "i2", "i3"], np.zeros((3, 2)))
        with pytest.raises(ValueError, match="dog"):
            join_labeled(self.make_manifest(), feats, "train", class_names=["cat"])

    @staticmethod
    def split_of(rows, size=8):
        """A table of ``size`` rows and a manifest whose train split is ``rows``, in order."""
        ids = [f"r{i}" for i in range(size)]
        table = RowTable(ids, np.arange(size * 3.0).reshape(size, 3))
        picked = set(rows)
        manifest = Manifest(rows=tuple(
            [ManifestRow(ids[row], f"c{row % 2}", "train") for row in rows]
            + [ManifestRow(ids[row], "c0", "test") for row in range(size) if row not in picked]
        ))
        return table, join_labeled(manifest, table, "train", ["c0", "c1"])

    @pytest.mark.parametrize("rows", [[3, 4, 5, 6], [7], list(range(8))],
                             ids=["odd-offset", "one", "whole"])
    def test_a_split_in_one_ascending_run_is_a_view_of_the_table(self, rows):
        table, data = self.split_of(rows)
        assert np.shares_memory(data.X, table.matrix)
        assert data.X.ctypes.data == table.matrix[rows[0]:].ctypes.data
        assert data.X.tobytes() == table.matrix[rows].tobytes()
        assert data.y.tolist() == [row % 2 for row in rows]

    @pytest.mark.parametrize("rows", [[3, 4, 6], [5, 4, 3], [4, 5, 3]],
                             ids=["gap", "descending", "rotated"])
    def test_other_splits_are_gathered_into_a_copy(self, rows):
        table, data = self.split_of(rows)
        assert not np.shares_memory(data.X, table.matrix)
        assert data.X.tobytes() == table.matrix[rows].tobytes()
        assert data.y.tolist() == [row % 2 for row in rows]

    def test_a_split_without_rows_is_rejected(self):
        feats = RowTable(["i1", "i2", "i3"], np.zeros((3, 2)))
        manifest = Manifest(rows=(ManifestRow("i1", "cat", "train"),))
        with pytest.raises(ValueError, match="no rows in split 'test'"):
            join_labeled(manifest, feats, "test")

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_a_run_is_a_view_and_other_rows_a_copy_and_both_train_as_the_copy_does(self, l2):
        # the train split is rows 1 to 160, an odd offset; the test split is rows 0 and
        # 161 to 240 in shuffled manifest order
        rng = np.random.default_rng(6)
        ids = [f"img-{i:03d}" for i in range(241)]
        table = RowTable(ids, rng.standard_normal((241, 9)))
        test_ids = [ids[i] for i in rng.permutation([0, *range(161, 241)])]
        manifest = Manifest(rows=tuple(
            ManifestRow(image_id, f"c{int(image_id[4:]) % 3}", split)
            for split, split_ids in (("train", ids[1:161]), ("test", test_ids))
            for image_id in split_ids
        ))
        run, scattered = (join_labeled(manifest, table, split) for split in ("train", "test"))
        assert np.shares_memory(run.X, table.matrix) and run.X.shape == (160, 9)
        assert run.X.ctypes.data == table.matrix[1:].ctypes.data
        assert not np.shares_memory(scattered.X, table.matrix)
        assert scattered.X.tobytes() == table.rows(test_ids).tobytes()
        cfg = TrainConfig(learning_rate=0.3, epochs=3, batch_size=16, seed=2, l2=l2)
        for data, split_ids in ((run, ids[1:161]), (scattered, test_ids)):
            copy = LabeledSet(table.rows(split_ids), data.y)
            model = init_model(9, manifest.class_names(), seed=1)
            (got, got_history), (want, want_history) = (train(model, d, cfg) for d in (data, copy))
            assert got == want and got_history == want_history
            for scored in (run, scattered):
                accuracy, confusion = evaluate(got, scored)
                expected = evaluate(want, LabeledSet(np.array(scored.X), scored.y))
                assert (accuracy, confusion.tolist()) == (expected[0], expected[1].tolist())


class TestSynthConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_train=0, n_test=1, dim_a=2, dim_b=2, n_classes=2)
        with pytest.raises(ValueError):
            SynthConfig(n_train=1, n_test=1, dim_a=2, dim_b=2, n_classes=1)
        with pytest.raises(ValueError):
            SynthConfig(n_train=1, n_test=1, dim_a=2, dim_b=2, n_classes=2, interaction="xor")
        with pytest.raises(ValueError, match="noise_sigma must be nonnegative"):
            SynthConfig(n_train=1, n_test=1, dim_a=2, dim_b=2, n_classes=2, noise_sigma=-0.1)
        for sigma in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"noise_sigma must be finite, got {sigma}"):
                SynthConfig(n_train=1, n_test=1, dim_a=2, dim_b=2, n_classes=2, noise_sigma=sigma)


class TestMakeSynthetic:
    def test_deterministic(self):
        cfg = SynthConfig(n_train=20, n_test=10, dim_a=4, dim_b=3, n_classes=3, seed=42)
        t1, e1 = make_synthetic(cfg)
        t2, e2 = make_synthetic(cfg)
        assert all(np.array_equal(a, b) for a, b in zip(t1[:2], t2[:2]))
        assert np.array_equal(e1[2], e2[2])

    def test_shapes_and_label_range(self):
        cfg = SynthConfig(n_train=15, n_test=5, dim_a=6, dim_b=4, n_classes=3, seed=1)
        (a_train, b_train, y_train), (a_test, b_test, y_test) = make_synthetic(cfg)
        assert a_train.shape == (15, 6) and b_train.shape == (15, 4) and y_train.shape == (15,)
        assert a_test.shape == (5, 6) and b_test.shape == (5, 4) and y_test.shape == (5,)
        for y in (y_train, y_test):
            assert y.dtype.kind == "i" and y.min() >= 0 and y.max() < 3

    def _single_modality_accuracy(self, cfg, modality):
        train_set, test_set = make_synthetic(cfg)
        column = "ab".index(modality)

        def examples(split):
            return LabeledSet(X=split[column], y=split[2])

        model = init_model(getattr(cfg, f"dim_{modality}"), [f"c{i}" for i in range(cfg.n_classes)], seed=0)
        trained, _ = train(
            model,
            examples(train_set),
            TrainConfig(learning_rate=0.5, epochs=60, batch_size=32, seed=1),
        )
        accuracy, _ = evaluate(trained, examples(test_set))
        return accuracy

    def test_additive_single_modality_is_perfect(self):
        cfg = SynthConfig(
            n_train=200, n_test=100, dim_a=8, dim_b=8, n_classes=4,
            interaction="additive", noise_sigma=0.0, seed=7,
        )
        assert self._single_modality_accuracy(cfg, "a") == 1.0

    def test_multiplicative_single_modality_is_chance(self):
        cfg = SynthConfig(
            n_train=600, n_test=500, dim_a=8, dim_b=8, n_classes=4,
            interaction="multiplicative", noise_sigma=0.0, seed=7,
        )
        accuracy = self._single_modality_accuracy(cfg, "a")
        assert abs(accuracy - 0.25) <= 0.1

    def test_multiplicative_labels_come_from_the_pair(self):
        # with sigma=0 the modality vectors are exactly the prototypes, so the
        # prototype indices are recoverable and must satisfy label = (i + j) mod C
        cfg = SynthConfig(
            n_train=50, n_test=10, dim_a=5, dim_b=5, n_classes=4,
            interaction="multiplicative", noise_sigma=0.0, seed=3,
        )
        rng = np.random.default_rng(cfg.seed)
        protos_a = rng.standard_normal((cfg.n_classes, cfg.dim_a))
        protos_b = rng.standard_normal((cfg.n_classes, cfg.dim_b))
        (a_train, b_train, y_train), _ = make_synthetic(cfg)
        for a, b, label in zip(a_train, b_train, y_train):
            i = int(np.argmin(np.linalg.norm(protos_a - a, axis=1)))
            j = int(np.argmin(np.linalg.norm(protos_b - b, axis=1)))
            assert label == (i + j) % cfg.n_classes


class TestCleaningReport:
    def test_dataclass_equality(self):
        a = CleaningReport(3, 2, 1, 0, {"x": 1})
        b = CleaningReport(3, 2, 1, 0, {"x": 1})
        assert a == b
