import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgtdetect import synthetic
from mgtdetect.embeddings import (
    EmbeddingMatrix,
    SkipGramConfig,
    cosine_similarity,
    doc_vector,
    export_vectors,
    load_vectors,
    sgns_loss_and_grads,
    train_skipgram,
)
from mgtdetect.errors import DataError, EmptyEmbedding
from mgtdetect.text_core import UNK, Vocabulary, build_vocab


def small_config(**overrides) -> SkipGramConfig:
    base = dict(dim=8, window=2, negatives=3, epochs=3, learning_rate=0.05,
                min_count=1, subsample=1.0, seed=11)
    base.update(overrides)
    return SkipGramConfig(**base)


class TestTrainSkipgram:
    def test_shape_contract(self):
        mat = train_skipgram(["a b c d e"] * 10, small_config())
        assert mat.input_vectors.shape == (mat.vocabulary.size, 8)
        assert mat.output_vectors.shape == (mat.vocabulary.size, 8)

    def test_epochs_zero_equals_seeded_init(self):
        mat = train_skipgram(["a b c"] * 5, small_config(epochs=0))
        rng = np.random.default_rng(11)
        init = rng.uniform(-0.5 / 8, 0.5 / 8, size=(mat.vocabulary.size, 8))
        assert np.array_equal(mat.input_vectors, init)
        assert np.array_equal(mat.output_vectors, np.zeros_like(init))

    def test_vocabulary_is_build_vocab(self):
        texts = ["a b, c a!", "b b d. e", "a c c"]
        for min_count in (1, 2):
            mat = train_skipgram(texts, small_config(min_count=min_count, window=1))
            vocab = build_vocab(texts, min_count=min_count)
            assert mat.vocabulary.word_to_id == vocab.word_to_id
            assert mat.vocabulary.frequencies == vocab.frequencies

    def test_shared_context_words_align(self):
        # Words appearing in identical contexts end up closer than the
        # median random pair.
        texts = ["the king rules the land"] * 100 + ["the queen rules the land"] * 100
        mat = train_skipgram(texts, small_config(epochs=5, seed=3))
        king_queen = cosine_similarity(mat.vector("king"), mat.vector("queen"))
        words = [w for w in mat.vocabulary.word_to_id if w != UNK]
        pairs = [
            cosine_similarity(mat.vector(a), mat.vector(b))
            for i, a in enumerate(words)
            for b in words[i + 1:]
        ]
        assert king_queen > float(np.median(pairs))

    def test_exclusive_cooccurrence_aligns_input_with_output(self):
        # A pair that only ever co-occurs with each other trains strong
        # input-to-output alignment; the input-input angle is untied.
        texts = ["king queen"] * 200
        mat = train_skipgram(texts, small_config(window=1, epochs=5, seed=3))
        kid = mat.vocabulary.id_of("king")
        qid = mat.vocabulary.id_of("queen")
        align = cosine_similarity(mat.input_vectors[kid], mat.output_vectors[qid])
        assert align > 0.9

    def test_deterministic_bit_identical(self):
        texts = ["a b c d", "c d e f", "b a f e"] * 5
        m1 = train_skipgram(texts, small_config())
        m2 = train_skipgram(texts, small_config())
        assert np.array_equal(m1.input_vectors, m2.input_vectors)
        assert np.array_equal(m1.output_vectors, m2.output_vectors)
        assert m1.epoch_losses == m2.epoch_losses

    def test_loss_non_increasing_within_band(self):
        human, machine = synthetic.two_source_corpus(40, seed=3)
        cfg = SkipGramConfig(dim=16, window=3, negatives=5, epochs=5,
                             learning_rate=0.05, min_count=1, subsample=1.0, seed=9)
        mat = train_skipgram(human + machine, cfg)
        for prev, curr in zip(mat.epoch_losses, mat.epoch_losses[1:]):
            assert curr <= prev * 1.05

    def test_empty_vocab_rejected(self):
        with pytest.raises(DataError):
            train_skipgram(["a b"], small_config(min_count=99))


class TestGradients:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(4)
        center = rng.normal(size=2)
        context = rng.normal(size=2)
        negatives = rng.normal(size=(3, 2))
        _, g_center, g_context, g_negatives = sgns_loss_and_grads(
            center, context, negatives
        )
        h = 1e-5

        def loss_at(c, o, n):
            return sgns_loss_and_grads(c, o, n)[0]

        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            num = (loss_at(center + e, context, negatives)
                   - loss_at(center - e, context, negatives)) / (2 * h)
            assert abs(num - g_center[i]) / max(abs(num), 1e-8) < 1e-4
            num = (loss_at(center, context + e, negatives)
                   - loss_at(center, context - e, negatives)) / (2 * h)
            assert abs(num - g_context[i]) / max(abs(num), 1e-8) < 1e-4
        for j in range(3):
            for i in range(2):
                bump = np.zeros((3, 2))
                bump[j, i] = h
                num = (loss_at(center, context, negatives + bump)
                       - loss_at(center, context, negatives - bump)) / (2 * h)
                assert abs(num - g_negatives[j, i]) / max(abs(num), 1e-8) < 1e-4


class TestDocVector:
    def _matrix(self):
        vocab = Vocabulary(
            word_to_id={"a": 0, "b": 1, UNK: 2},
            frequencies={"a": 2, "b": 1, UNK: 0},
        )
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        return EmbeddingMatrix(vocabulary=vocab, dim=2, input_vectors=vectors)

    def test_single_word_identity(self):
        fv = doc_vector("a", self._matrix())
        assert np.allclose(fv.values, [1.0, 0.0])
        assert fv.oov_fraction == 0.0

    def test_mean_of_two(self):
        fv = doc_vector("a b", self._matrix())
        assert np.allclose(fv.values, [0.5, 0.5])

    def test_all_oov_zero_vector(self):
        fv = doc_vector("zz yy", self._matrix())
        assert np.allclose(fv.values, [0.0, 0.0])
        assert fv.oov_fraction == 1.0

    @given(st.permutations(["a", "b", "a", "zz"]))
    def test_permutation_invariant(self, words):
        fv = doc_vector(" ".join(words), self._matrix())
        base = doc_vector("a b a zz", self._matrix())
        assert np.allclose(fv.values, base.values)
        assert fv.oov_fraction == base.oov_fraction


class TestCosine:
    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_identity(self):
        v = np.array([0.3, -0.4])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_hand_value(self):
        got = cosine_similarity(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(1 / np.sqrt(2))

    def test_zero_norm_rejected(self):
        with pytest.raises(DataError):
            cosine_similarity(np.zeros(2), np.array([1.0, 0.0]))


class TestLoadVectors:
    def test_fixture(self, fixtures_dir):
        mat = load_vectors(fixtures_dir / "vectors.txt")
        assert mat.input_vectors.shape == (2, 2)
        assert np.allclose(mat.vector("a"), [1.0, 0.0])
        assert UNK in mat.vocabulary.word_to_id

    def test_header_row_count_enforced(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("3 2\na 1 0\nb 0 1\n")
        with pytest.raises(DataError):
            load_vectors(p)

    def test_zero_count_rejected(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("0 4\n")
        with pytest.raises(EmptyEmbedding):
            load_vectors(p)

    def test_dimension_mismatch_names_line(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("2 2\na 1 0\nb 0\n")
        with pytest.raises(DataError, match="line 3"):
            load_vectors(p)

    def test_duplicate_word_rejected(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("2 1\na 1\na 2\n")
        with pytest.raises(DataError, match="duplicate"):
            load_vectors(p)

    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100))
    def test_export_round_trip(self, tmp_path_factory, seed):
        mat = train_skipgram(["a b c d"] * 5, small_config(epochs=1, seed=seed))
        path = tmp_path_factory.mktemp("emb") / "v.txt"
        export_vectors(mat, path)
        loaded = load_vectors(path)
        assert loaded.dim == mat.dim
        for w in ("a", "b", "c", "d"):
            assert np.array_equal(loaded.vector(w), mat.vector(w))
