from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgtdetect import synthetic
from mgtdetect.embeddings import (
    LR_FLOOR_FRACTION,
    EmbeddingMatrix,
    SkipGramConfig,
    cosine_similarity,
    doc_vector,
    export_vectors,
    load_vectors,
    sgns_loss_and_grads,
    train_skipgram,
)
from mgtdetect.errors import DataError
from mgtdetect.text_core import UNK, Vocabulary, build_vocab, tokenize, vocab_from_counts


def small_config(**overrides) -> SkipGramConfig:
    base = dict(dim=8, window=2, negatives=3, epochs=3, learning_rate=0.05,
                min_count=1, subsample=1.0, seed=11)
    base.update(overrides)
    return SkipGramConfig(**base)


# The per-token training loop the fused per-center step replaced, kept as an
# oracle: the fused loop must reproduce its matrices and losses bit for bit.
def _oracle_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _oracle_draw_negatives(rng, noise_cdf, k, contexts):
    n = len(contexts)
    negs = np.searchsorted(noise_cdf, rng.random((n, k)), side="right")
    for _ in range(10):
        mask = negs == contexts[:, None]
        hits = int(mask.sum())
        if hits == 0:
            break
        negs[mask] = np.searchsorted(noise_cdf, rng.random(hits), side="right")
    return negs


def oracle_train_skipgram(texts, config):
    surfaces = [tokenize(text) for text in texts]
    vocab = vocab_from_counts(Counter(s for seq in surfaces for s in seq), config.min_count)
    if vocab.size <= 1:
        raise DataError("vocabulary is empty apart from UNK")
    sequences = [[vocab.id_of(s) for s in seq] for seq in surfaces]
    total_tokens = sum(len(s) for s in sequences)
    if total_tokens < config.window + 1:
        raise DataError("corpus too small for the configured window")

    rng = np.random.default_rng(config.seed)
    dim = config.dim
    w_in = rng.uniform(-0.5 / dim, 0.5 / dim, size=(vocab.size, dim))
    w_out = np.zeros((vocab.size, dim))

    freqs = np.array([vocab.frequencies[s] for s in vocab.surfaces()], dtype=float)
    noise = freqs**0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    keep_prob = np.ones_like(freqs)
    nz = freqs > 0
    keep_prob[nz] = np.minimum(
        1.0, np.sqrt(config.subsample * freqs.sum() / freqs[nz])
    )

    total_centers = max(total_tokens * max(config.epochs, 1), 1)
    seen = 0
    losses = []
    lr0 = config.learning_rate
    for _ in range(config.epochs):
        epoch_loss = 0.0
        epoch_pairs = 0
        for seq in sequences:
            kept = [t for t in seq if rng.random() < keep_prob[t]]
            for i, center in enumerate(kept):
                progress = seen / total_centers
                lr = lr0 * (1.0 - progress * (1.0 - LR_FLOOR_FRACTION))
                seen += 1
                lo = max(0, i - config.window)
                hi = min(len(kept), i + config.window + 1)
                ctx_ids = np.array(kept[lo:i] + kept[i + 1 : hi], dtype=int)
                if ctx_ids.size == 0:
                    continue
                negs = _oracle_draw_negatives(rng, noise_cdf, config.negatives, ctx_ids)
                v_c = w_in[center]
                u_ctx = w_out[ctx_ids]
                u_neg = w_out[negs]
                pos_scores = _oracle_sigmoid(u_ctx @ v_c)
                neg_scores = _oracle_sigmoid(u_neg @ v_c)
                epoch_loss += float(
                    -np.sum(np.log(np.clip(pos_scores, 1e-12, None)))
                    - np.sum(np.log(np.clip(1.0 - neg_scores, 1e-12, None)))
                )
                epoch_pairs += len(ctx_ids)
                g_center = (pos_scores - 1.0) @ u_ctx + np.einsum(
                    "ck,ckd->d", neg_scores, u_neg
                )
                g_ctx = (pos_scores - 1.0)[:, None] * v_c[None, :]
                g_neg = neg_scores[:, :, None] * v_c[None, None, :]
                np.add.at(w_out, ctx_ids, -lr * g_ctx)
                np.add.at(w_out, negs.reshape(-1), -lr * g_neg.reshape(-1, dim))
                w_in[center] = v_c - lr * g_center
        losses.append(epoch_loss / epoch_pairs if epoch_pairs else 0.0)
    return vocab, w_in, w_out, losses


def assert_matches_oracle(texts, config):
    try:
        vocab, w_in, w_out, losses = oracle_train_skipgram(texts, config)
    except DataError:
        with pytest.raises(DataError):
            train_skipgram(texts, config)
        return
    mat = train_skipgram(texts, config)
    assert mat.vocabulary.word_to_id == vocab.word_to_id
    assert np.array_equal(mat.input_vectors, w_in)
    assert np.array_equal(mat.output_vectors, w_out)
    assert mat.epoch_losses == losses


# Texts over a few words of skewed frequency, so contexts repeat, negatives
# collide with their contexts and subsampling drops tokens.
_WORDS = st.sampled_from(["the", "the", "the", "a", "a", "cat", "dog", "sat", "on",
                          "mat", "ran", ".", ",", "zebra"])
_TEXTS = st.lists(st.lists(_WORDS, max_size=14).map(" ".join), min_size=1, max_size=12)


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


class TestFusedLoopOracle:
    @settings(deadline=None, max_examples=60)
    @given(
        texts=_TEXTS,
        dim=st.integers(1, 40),
        window=st.integers(1, 5),
        negatives=st.integers(1, 8),
        epochs=st.integers(0, 3),
        min_count=st.integers(1, 3),
        subsample=st.sampled_from([1e-4, 1e-3, 1e-2, 0.1, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_per_token_loop(self, texts, dim, window, negatives,
                                             epochs, min_count, subsample, seed):
        config = SkipGramConfig(dim=dim, window=window, negatives=negatives, epochs=epochs,
                                learning_rate=0.05, min_count=min_count,
                                subsample=subsample, seed=seed)
        assert_matches_oracle(texts, config)

    def test_synthetic_corpus_bit_identical(self):
        human, machine = synthetic.two_source_corpus(40, seed=3)
        for dim, window, negatives in ((32, 3, 5), (7, 5, 1), (64, 1, 8)):
            cfg = SkipGramConfig(dim=dim, window=window, negatives=negatives, epochs=2,
                                 learning_rate=0.05, min_count=2, subsample=0.01, seed=5)
            assert_matches_oracle(human + machine, cfg)


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
        with pytest.raises(DataError, match="embedding declares zero vectors"):
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
