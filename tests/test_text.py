import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenefuse.text import (
    RowTable,
    TfIdfModel,
    TranscribedWord,
    TranscriptionRecord,
    aggregate,
    filter_by_confidence,
    fit_tfidf,
    select_top_k,
    text_feature,
    tokenize,
)


def record(image_id, *tokens_with_conf):
    words = tuple(TranscribedWord(token=t, confidence=c) for t, c in tokens_with_conf)
    return TranscriptionRecord(image_id=image_id, words=words)


def record_of(image_id, *tokens):
    return record(image_id, *((t, 1.0) for t in tokens))


class TestTokenize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Just Do It!", ["just", "do", "it"]),
            ("", []),
            ("Wi-Fi 5G", ["wi", "fi", "5g"]),
            ("  --  ", []),
            ("foo_bar", ["foo", "bar"]),
            ("A1b2C3", ["a1b2c3"]),
        ],
    )
    def test_examples(self, raw, expected):
        assert tokenize(raw) == expected


class TestTranscriptionTypes:
    def test_rejects_empty_token(self):
        with pytest.raises(ValueError):
            TranscribedWord(token="", confidence=0.5)

    @pytest.mark.parametrize("conf", [-0.1, 1.1])
    def test_rejects_out_of_range_confidence(self, conf):
        with pytest.raises(ValueError):
            TranscribedWord(token="ok", confidence=conf)

    def test_words_coerced_to_tuple(self):
        rec = TranscriptionRecord("img", [TranscribedWord("a", 0.5)])
        assert isinstance(rec.words, tuple)


class TestFitTfidf:
    def test_presence_counting(self):
        corpus = [record_of("1", "a", "b"), record_of("2", "a"), record_of("3", "a", "c")]
        model = fit_tfidf(corpus)
        assert model.doc_count == 3
        assert model.doc_freq == {"a": 3, "b": 1, "c": 1}

    def test_single_document(self):
        model = fit_tfidf([record_of("1", "x")])
        assert model.doc_count == 1
        assert model.doc_freq == {"x": 1}

    def test_presence_not_multiplicity(self):
        corpus = [record_of("1", "a", "a", "a"), record_of("2", "a")]
        assert fit_tfidf(corpus).doc_freq == {"a": 2}

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty corpus"):
            fit_tfidf([])

    def test_doc_freq_bounds(self):
        corpus = [record_of(str(i), *("abcde"[: i + 1])) for i in range(5)]
        model = fit_tfidf(corpus)
        for token, df in model.doc_freq.items():
            assert 1 <= df <= model.doc_count
            assert model.idf(token) >= 0.0

    def test_invalid_doc_freq_rejected(self):
        with pytest.raises(ValueError):
            TfIdfModel(doc_count=2, doc_freq={"a": 3})
        with pytest.raises(ValueError):
            TfIdfModel(doc_count=2, doc_freq={"a": 0})


class TestSelectTopK:
    def test_tf_beats_flat_idf(self):
        corpus = [record_of("1", "a", "a", "b"), record_of("2", "a"), record_of("3", "a")]
        model = fit_tfidf(corpus)
        # score(a) = 2*ln(3/3) = 0, score(b) = 1*ln(3/1)
        assert select_top_k(record_of("1", "a", "a", "b"), model, 1) == ["b"]

    def test_token_in_every_document_scores_zero(self):
        corpus = [record_of("1", "a"), record_of("2", "a"), record_of("3", "a", "b")]
        model = fit_tfidf(corpus)
        picked = select_top_k(record_of("3", "a", "b"), model, 2)
        assert picked == ["b", "a"]

    def test_lexicographic_tie_break(self):
        corpus = [record_of("1", "p", "q"), record_of("2", "r")]
        model = fit_tfidf(corpus)
        assert select_top_k(record_of("1", "p", "q"), model, 1) == ["p"]

    def test_unseen_token_uses_df_one(self):
        corpus = [record_of("1", "a"), record_of("2", "a"), record_of("3", "a")]
        model = fit_tfidf(corpus)
        picked = select_top_k(record_of("x", "novel", "a"), model, 2)
        assert picked == ["novel", "a"]
        # fallback equals an explicit df=1 entry
        explicit = TfIdfModel(doc_count=3, doc_freq={"a": 3, "novel": 1})
        assert model.idf("novel") == explicit.idf("novel")

    def test_fewer_than_k(self):
        model = fit_tfidf([record_of("1", "a", "b")])
        assert select_top_k(record_of("1", "a", "b"), model, 10) == ["a", "b"]

    def test_k_must_be_positive(self):
        model = fit_tfidf([record_of("1", "a")])
        with pytest.raises(ValueError):
            select_top_k(record_of("1", "a"), model, 0)

    def test_deterministic(self):
        corpus = [record_of(str(i), *("word%d" % (i % 3),)) for i in range(9)]
        model = fit_tfidf(corpus)
        rec = record_of("q", "word0", "word1", "word2", "word0")
        assert select_top_k(rec, model, 3) == select_top_k(rec, model, 3)


class TestAggregate:
    def setup_method(self):
        self.table = RowTable(["a", "b"], [[1.0, 2.0], [3.0, -1.0]])

    def test_single_token(self):
        feat = aggregate(["a"], self.table)
        assert np.array_equal(feat.vector, [1.0, 2.0])
        assert feat.miss_count == 0
        assert feat.selected == ("a",)

    def test_elementwise_sum(self):
        assert np.array_equal(aggregate(["a", "b"], self.table).vector, [4.0, 1.0])

    def test_all_miss_zero_vector(self):
        feat = aggregate(["zzz"], self.table)
        assert np.array_equal(feat.vector, [0.0, 0.0])
        assert feat.miss_count == 1

    def test_empty_token_list(self):
        feat = aggregate([], self.table)
        assert np.array_equal(feat.vector, [0.0, 0.0])
        assert feat.miss_count == 0

    def test_an_empty_table_misses_every_word(self):
        feat = aggregate(["a", "zzz", "a"], RowTable([], np.zeros((0, 2))))
        assert np.array_equal(feat.vector, [0.0, 0.0])
        assert feat.miss_count == 3

    @given(st.permutations(["a", "b", "a", "zzz", "b"]))
    def test_permutation_invariant_bitwise(self, shuffled):
        base = aggregate(["a", "b", "a", "zzz", "b"], self.table)
        other = aggregate(list(shuffled), self.table)
        assert base.vector.tobytes() == other.vector.tobytes()
        assert base.miss_count == other.miss_count

    @given(
        st.lists(st.integers(0, 11), max_size=10),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    def test_gather_sum_equals_sequential_loop_bitwise(self, picks, dim, seed):
        # reference: the one-row-at-a-time loop in sorted token order, from +0.0
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((10, dim)) * 10.0 ** rng.integers(-8, 8, (10, 1))
        matrix[rng.random((10, dim)) < 0.3] = -0.0
        tokens = [f"w{i}" for i in range(10)]
        table = RowTable(tokens, matrix)
        query = [f"w{i}" for i in picks]  # w10 and w11 miss the lexicon
        total = np.zeros(dim)
        for token in sorted(query):
            if token in table:
                total += table.get(token)
        feat = aggregate(query, table)
        assert feat.vector.tobytes() == total.tobytes()
        assert feat.miss_count == sum(i >= 10 for i in picks)

    @given(
        st.lists(st.sampled_from(["a", "b", "zzz"]), max_size=8),
        st.lists(st.sampled_from(["a", "b", "zzz"]), max_size=8),
    )
    @settings(max_examples=60)
    def test_additive(self, left, right):
        combined = aggregate(left + right, self.table).vector
        split = aggregate(left, self.table).vector + aggregate(right, self.table).vector
        assert np.abs(combined - split).max() < 1e-12


class TestRowTable:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            RowTable(["a", "b"], [[1.0, 2.0, 3.0], [1.0, 2.0]])

    def test_rejects_key_count_mismatch(self):
        with pytest.raises(ValueError, match="2 keys but 1 rows"):
            RowTable(["a", "b"], [[1.0, 2.0]])

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ValueError, match="duplicate keys: 'a'"):
            RowTable(["a", "b", "a"], np.zeros((3, 2)))

    def test_vectors_read_only(self):
        table = RowTable(["a"], [[1.0, 2.0]])
        with pytest.raises(ValueError):
            table["a"][0] = 5.0
        with pytest.raises(ValueError):
            table.matrix[0, 0] = 5.0

    def test_keeps_a_view_and_leaves_the_callers_array_writable(self):
        vectors = np.array([[1.0, 2.0], [3.0, 4.0]])
        table = RowTable(["a", "b"], vectors)
        assert np.shares_memory(table.matrix, vectors)
        assert vectors.flags.writeable
        assert table.dim == 2 and len(table) == 2 and "b" in table and table.get("c") is None

    def test_is_a_mapping_of_rows_in_key_order(self):
        table = RowTable(["b", "a"], [[1.0, 2.0], [3.0, 4.0]])
        assert list(table) == ["b", "a"]
        assert [row.tolist() for row in table.values()] == [[1.0, 2.0], [3.0, 4.0]]
        assert np.array_equal(table["a"], [3.0, 4.0])
        with pytest.raises(KeyError):
            table["c"]

    def test_rows_gathers_in_the_order_asked(self):
        table = RowTable(["a", "b", "c"], np.arange(6.0).reshape(3, 2))
        assert table.rows(["c", "a", "c"]).tolist() == [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]]
        assert table.rows([]).shape == (0, 2)
        with pytest.raises(KeyError):
            table.rows(["z"])

    def test_equal_means_same_keys_in_order_and_equal_matrices(self):
        table = RowTable(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        assert table == RowTable(["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert table != RowTable(["b", "a"], [[3.0, 4.0], [1.0, 2.0]])
        assert table != RowTable(["a", "b"], [[1.0, 2.0], [3.0, 5.0]])
        assert table != {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
        assert RowTable([], np.zeros((0, 2))) != RowTable([], np.zeros((0, 3)))


class TestFilterByConfidence:
    def test_default_cleaning_threshold(self):
        rec = record("img", ("hi", 0.9), ("lo", 0.3))
        out = filter_by_confidence(rec, 0.7)
        assert [w.token for w in out.words] == ["hi"]

    def test_threshold_zero_identity(self):
        rec = record("img", ("a", 0.0), ("b", 0.5))
        assert filter_by_confidence(rec, 0.0) == rec

    def test_threshold_one_drops_all_below(self):
        rec = record("img", ("a", 0.99), ("b", 0.5))
        assert filter_by_confidence(rec, 1.0).words == ()

    def test_boundary_kept(self):
        rec = record("img", ("edge", 0.7))
        assert len(filter_by_confidence(rec, 0.7).words) == 1

    @given(st.floats(0, 1))
    @settings(max_examples=30)
    def test_idempotent(self, threshold):
        rec = record("img", ("a", 0.1), ("b", 0.4), ("c", 0.8), ("d", 1.0))
        once = filter_by_confidence(rec, threshold)
        twice = filter_by_confidence(once, threshold)
        assert once == twice

    @pytest.mark.parametrize("threshold", [-0.01, 1.5])
    def test_threshold_range(self, threshold):
        with pytest.raises(ValueError):
            filter_by_confidence(record("img"), threshold)


class TestTextFeaturePipeline:
    def test_features_compare_and_hash_by_identity(self):
        # a generated __eq__ compared the vectors field by field, which numpy cannot answer
        table = RowTable(["a"], [[1.0, 2.0]])
        first, second = aggregate(["a"], table), aggregate(["a"], table)
        assert first == first and first != second
        assert first in [second, first] and second not in [first]
        assert len({first, second, first}) == 2

    def test_select_then_embed_misses_consume_slots(self):
        # a selected token missing from the lexicon still uses one of the k slots
        table = RowTable(["common"], [[1.0, 1.0]])
        corpus = [
            record_of("1", "rare", "common"),
            record_of("2", "common"),
            record_of("3", "common"),
        ]
        model = fit_tfidf(corpus)
        feat = text_feature(record_of("1", "rare", "common"), model, table, k=1)
        assert feat.selected == ("rare",)
        assert feat.miss_count == 1
        assert np.array_equal(feat.vector, [0.0, 0.0])

    def test_score_values_match_hand_computation(self):
        corpus = [record_of("1", "a", "a", "b"), record_of("2", "a"), record_of("3", "a", "c")]
        model = fit_tfidf(corpus)
        assert model.idf("a") == pytest.approx(0.0)
        assert model.idf("b") == pytest.approx(math.log(3.0))
