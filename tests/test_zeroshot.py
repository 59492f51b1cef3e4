import gc
import hashlib
import json
import math
import tempfile
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgtdetect import zeroshot as zs
from mgtdetect.errors import DataError, json_float, json_int, load_json
from mgtdetect.ingest import DetectorScorer, Document
from mgtdetect.synthetic import two_source_corpus
from mgtdetect.text_core import (
    UNK,
    WORD_CHAR_RE,
    Vocabulary,
    build_vocab,
    rewrite_units,
    split_sentences,
    token_spans,
    tokenize,
    vocab_from_counts,
    word_tokens,
)

from conftest import make_doc


# -- independent Kneser-Ney oracle -----------------------------------------
# Straight transcription of the interpolated formula over string n-grams,
# counted with its own loops. Kept deliberately separate from the
# implementation's id-based tables.


def kn_oracle(sentence_token_lists, order, discount, event_space):
    raw = {k: {} for k in range(1, order + 1)}
    for toks in sentence_token_lists:
        padded = ["<s>"] * (order - 1) + toks + ["</s>"]
        for k in range(1, order + 1):
            for end in range(order - 1, len(padded)):
                gram = tuple(padded[end - k + 1 : end + 1])
                raw[k][gram] = raw[k].get(gram, 0) + 1

    adjusted = {order: dict(raw[order])}
    for k in range(1, order):
        cont = {}
        for gram in raw[k + 1]:
            cont[gram[1:]] = cont.get(gram[1:], 0) + 1
        adjusted[k] = cont

    def prob(level, context, target):
        if level == 0:
            return 1.0 / len(event_space)
        if level == 1:
            context = ()
        table = adjusted[level]
        total = sum(c for g, c in table.items() if g[:-1] == context)
        if total == 0:
            return prob(level - 1, context[1:], target)
        count = table.get(context + (target,), 0)
        distinct = sum(1 for g in table if g[:-1] == context)
        lam = discount * distinct / total
        return max(count - discount, 0.0) / total + lam * prob(
            level - 1, context[1:], target
        )

    return prob


def lm_tokens(text):
    return [t.surface for t in tokenize(text)]


class TestTrainKnLm:
    def test_hand_example_counts_and_probability(self):
        # Corpus "a b a b", bigram, D = 0.5:
        #   c(a b) = 2, c(b a) = 1
        #   P_uni(b) = max(1-D,0)/4 + (D*3/4)*(1/4)          = 0.21875
        #   P(b|a)  = max(2-D,0)/2 + (D*1/2)*P_uni(b)        = 0.8046875
        lm = zs.train_kn_lm(["a b a b"], order=2, discount=0.5)
        va, vb = lm.vocabulary.id_of("a"), lm.vocabulary.id_of("b")
        keys, counts = lm.grams[2]
        base = lm.end_id + 2  # ids shifted by one, packed in base end_id + 2
        ab, ba = (va + 1) * base + vb + 1, (vb + 1) * base + va + 1
        i, j = np.searchsorted(keys, [ab, ba])
        assert (keys[i], counts[i]) == (ab, 2)
        assert (keys[j], counts[j]) == (ba, 1)
        assert lm.distribution((va,))[vb] == pytest.approx(0.8046875, abs=1e-9)
        assert lm.distribution((vb,))[va] == pytest.approx(0.484375, abs=1e-9)
        assert lm.distribution((vb,))[lm.end_id] == pytest.approx(0.359375, abs=1e-9)

    def test_matches_oracle_on_random_corpus(self):
        rng = np.random.default_rng(17)
        syms = ["a", "b", "c", "d"]
        texts = [
            " ".join(syms[i] for i in rng.integers(0, 4, size=rng.integers(3, 9)))
            for _ in range(30)
        ]
        order, discount = 3, 0.75
        lm = zs.train_kn_lm(texts, order=order, discount=discount)
        event_space = syms + ["<unk>", "</s>"]
        oracle = kn_oracle([lm_tokens(t) for t in texts], order, discount, event_space)

        def impl_prob(ctx_words, target_word):
            ctx = tuple(lm.vocabulary.id_of(w) for w in ctx_words)
            tgt = lm.end_id if target_word == "</s>" else lm.vocabulary.id_of(target_word)
            return lm.distribution(ctx)[tgt]

        for _ in range(60):
            ctx = tuple(syms[i] for i in rng.integers(0, 4, size=2))
            target = event_space[int(rng.integers(0, len(event_space)))]
            assert impl_prob(ctx, target) == pytest.approx(
                oracle(order, ctx, target), abs=1e-9
            )

    def test_conditionals_sum_to_one(self):
        rng = np.random.default_rng(3)
        texts = ["a b c a.", "b c a b.", "c c a."] * 4
        lm = zs.train_kn_lm(texts, order=3, discount=0.75)
        for _ in range(100):
            ctx = tuple(int(x) for x in rng.integers(-1, lm.event_size, size=2))
            dense = lm.distribution(ctx)
            assert dense.sum() == pytest.approx(1.0, abs=1e-6)

    def test_training_perplexity_beats_uniform_only_marginally(self):
        rng = np.random.default_rng(123)
        syms = ["s1", "s2", "s3", "s4", "s5"]
        texts = [
            " ".join(syms[i] for i in rng.integers(0, 5, size=8)) + "."
            for _ in range(200)
        ]
        lm = zs.train_kn_lm(texts, order=3, discount=0.75)
        ppl = lm.train_perplexity
        assert 1.0 < ppl < 5.0
        assert ppl < lm.event_size  # uniform-model perplexity

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(alphabet="abc .!?,'", min_size=1, max_size=40), min_size=1,
                    max_size=6))
    def test_one_tokenization_gives_vocab_and_training_perplexity(self, texts):
        try:
            lm = zs.train_kn_lm(texts, order=3, discount=0.75)
        except DataError:
            return  # no tokens, or every sentence too short for the order
        vocab = build_vocab(texts, min_count=1)
        assert lm.vocabulary.word_to_id == vocab.word_to_id
        assert lm.vocabulary.frequencies == vocab.frequencies
        assert lm.train_perplexity == oracle_perplexity(lm, texts)  # bit for bit

    def test_loaded_model_has_no_training_perplexity(self, tmp_path):
        lm = zs.train_kn_lm(GOLDEN_TEXTS, order=3, discount=0.75)
        assert lm.train_perplexity == oracle_perplexity(lm, GOLDEN_TEXTS)
        zs.save_lm(lm, tmp_path / "lm.json")
        assert zs.load_lm(tmp_path / "lm.json").train_perplexity is None

    def test_order_and_discount_guards(self):
        with pytest.raises(DataError):
            zs.train_kn_lm(["a b"], order=1)
        with pytest.raises(DataError):
            zs.train_kn_lm(["a b"], order=2, discount=1.0)
        with pytest.raises(DataError):
            zs.train_kn_lm([], order=2)
        # longest sentence has 2 tokens ("a" "."), so order 5 > 2 + 2 fails
        with pytest.raises(DataError):
            zs.train_kn_lm(["a. b."], order=5)


# -- train_kn_lm as it counted from Token lists ------------------------------
# Every sentence's Token list held to the end, one index array over all the
# windows and one list of every probability: the counting that train_kn_lm
# replaced with a count of surfaces alone. It pins the grams and the
# training perplexity, and is the yardstick of the memory train_kn_lm holds.


def token_list_train_kn_lm(texts, order, discount):
    tokenized = list(zs._sentence_tokens(texts))
    vocab = vocab_from_counts(Counter(t.surface for tokens in tokenized for t in tokens))
    end_id = vocab.size
    sentences = [[vocab.id_of(t.surface) for t in tokens] for tokens in tokenized]
    base = zs._pack_base(order, end_id)
    seq = []
    for ids in sentences:
        seq += [zs.START_ID] * (order - 1) + ids + [end_id]
    shifted = np.array(seq, dtype=np.int64) + 1
    targets = np.flatnonzero(shifted)
    windows = shifted[targets[:, None] + np.arange(1 - order, 1)]
    grams = {}
    for k in range(2, order + 1):
        keys, raw = np.unique(zs._pack(windows[:, order - k:], base), return_counts=True)
        suffixes, cont = np.unique(keys % base ** (k - 1), return_counts=True)
        grams[k - 1] = (suffixes, cont.astype(float))
    grams[order] = (keys, raw.astype(float))
    lm = zs.NGramLM(order=order, discount=discount, vocabulary=vocab, grams=grams,
                    end_id=end_id)
    total = oracle_log_total(lm._probs(windows), sentences)
    lm.train_perplexity = math.exp(-total / len(windows))
    return lm


def traced_peak(fn, *args):
    """The peak of the memory tracemalloc traces while fn(*args) runs, over
    what was traced before the call."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def random_texts(seed, n_words, n_sentences, lengths=(8, 16)):
    """*n_sentences* seeded sentences of uniform draws from n_words words,
    two to a text."""
    rng = np.random.default_rng(seed)
    words = np.array([f"w{i}" for i in range(n_words)])
    sentences = [" ".join(words[rng.integers(0, n_words, rng.integers(*lengths))]) + "."
                 for _ in range(n_sentences)]
    return [" ".join(sentences[i:i + 2]) for i in range(0, n_sentences, 2)]


# About 37,500 training tokens (words and periods) over a 3,000-word list.
MEMORY_TEXTS = random_texts(26, 3_000, 3_000)


def assert_same_training(lm, other):
    assert_same_model(lm, other)
    assert list(lm.vocabulary.word_to_id.items()) == list(other.vocabulary.word_to_id.items())
    assert list(lm.vocabulary.frequencies.items()) == list(other.vocabulary.frequencies.items())
    assert lm.train_perplexity == other.train_perplexity  # bit for bit


class TestSurfaceCounting:
    @settings(max_examples=60, deadline=None)
    @given(texts=st.lists(st.text(alphabet="abcİé' .!?,", min_size=1, max_size=60),
                          min_size=1, max_size=8),
           order=st.sampled_from([2, 3, 4, 11]),
           discount=st.floats(min_value=0.01, max_value=0.99))
    def test_model_equals_token_list_counting(self, texts, order, discount):
        texts = texts + [LONG_SENTENCE]  # every order up to 11 trains
        assert_same_training(zs.train_kn_lm(texts, order=order, discount=discount),
                             token_list_train_kn_lm(texts, order, discount))

    def test_rows_across_blocks_equal_token_list_counting(self):
        # Rows straddle the block edges, and one sentence is longer than a
        # block, so that a block of floats is cut to fit it.
        long_sentence = random_texts(5, 50, 1, (zs.ROW_BLOCK + 10, zs.ROW_BLOCK + 11))
        texts = random_texts(4, 300, 700) + long_sentence + random_texts(6, 300, 9)
        assert_same_training(zs.train_kn_lm(texts, order=3, discount=0.75),
                             token_list_train_kn_lm(texts, 3, 0.75))

    def test_more_distinct_windows_than_a_block_equal_token_list_counting(self):
        # Each distinct top-order n-gram is scored once, its keys unpacked a
        # block at a time: here over three blocks of them, at order 4.
        texts = random_texts(8, 2_000, 1_200)
        lm = zs.train_kn_lm(texts, order=4, discount=0.6)
        assert len(lm.grams[4][0]) > 3 * zs.ROW_BLOCK
        assert_same_training(lm, token_list_train_kn_lm(texts, 4, 0.6))

    @pytest.mark.parametrize("order", [2, 3])
    def test_repeated_windows_equal_token_list_counting(self, order):
        # The synthetic source over the 60 DEFAULT_WORDS: most windows
        # repeat, so most probabilities are spread back from one distinct row.
        _, texts = two_source_corpus(300, 5)
        lm = zs.train_kn_lm(texts, order=order, discount=0.75)
        windows = sum(len(tokenize(s)) + 1 for text in texts for s in split_sentences(text))
        assert len(lm.grams[order][0]) < windows / 4
        assert_same_training(lm, token_list_train_kn_lm(texts, order, 0.75))

    def test_memory_texts_train_the_same_bytes_and_perplexity(self):
        # Pinned from the counting over Token lists and one probability per
        # window: lm.json's SHA-256 and the perplexity's repr.
        lm = zs.train_kn_lm(MEMORY_TEXTS, order=3, discount=0.75)
        assert hashlib.sha256(saved_bytes(zs.save_lm, lm)).hexdigest() == (
            "97f28a0e69f2a76df488cce2afc544513b0219d2a08d43ec81f349cf61db4653")
        assert repr(lm.train_perplexity) == "5.517747205445577"

    def test_peak_memory_at_most_60_percent_of_token_list_counting(self):
        tokens = sum(len(tokenize(text)) for text in MEMORY_TEXTS)
        peak = traced_peak(zs.train_kn_lm, MEMORY_TEXTS, 3, 0.75)
        oracle_peak = traced_peak(token_list_train_kn_lm, MEMORY_TEXTS, 3, 0.75)
        assert peak <= 0.6 * oracle_peak, (
            f"{peak / tokens:.0f} B against {oracle_peak / tokens:.0f} B per training token")


# -- plain-Python reference over the saved rows ------------------------------
# The interpolated recursion over an lm.json payload's count rows, with the
# same floating-point operations as the packed model: its results must be
# equal bit for bit.


def kn_reference(payload):
    order, discount = payload["order"], payload["discount"]
    event_size = payload["end_id"] + 1
    counts, totals, distinct = {}, {}, {}
    for k in range(1, order + 1):
        counts[k], totals[k], distinct[k] = {}, {}, {}
        for row in payload["counts"][str(k)]:
            gram, c = tuple(row[:-1]), row[-1]
            counts[k][gram] = c
            totals[k][gram[:-1]] = totals[k].get(gram[:-1], 0.0) + c
            distinct[k][gram[:-1]] = distinct[k].get(gram[:-1], 0) + 1

    def prob(level, context, target):
        if level == 0:
            return 1.0 / event_size
        if level == 1:
            context = ()
        total = totals[level].get(context, 0.0)
        if total <= 0.0:
            return prob(level - 1, context[1:], target)
        count = counts[level].get(context + (target,), 0.0)
        backoff_mass = discount * distinct[level][context] / total
        return max(count - discount, 0.0) / total + backoff_mass * prob(
            level - 1, context[1:], target
        )

    def query(context, target):
        ctx = tuple(context)[-(order - 1):]
        return prob(order, (zs.START_ID,) * (order - 1 - len(ctx)) + ctx, target)

    return query


def saved_payload(lm):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lm.json"
        zs.save_lm(lm, path)
        return json.loads(path.read_text())


WORDS = ["a", "b", "c", "d", "e"]


class TestPackedModel:
    @settings(max_examples=60, deadline=None)
    @given(
        corpus=st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=8),
                        min_size=1, max_size=6),
        order=st.integers(min_value=2, max_value=4),
        discount=st.floats(min_value=0.01, max_value=0.99),
        data=st.data(),
    )
    def test_prob_equals_plain_recursion_over_saved_rows(self, corpus, order, discount,
                                                         data):
        lm = zs.train_kn_lm([" ".join(s) + "." for s in corpus], order=order,
                            discount=discount)
        reference = kn_reference(saved_payload(lm))
        # Contexts mix START, END and every id (unseen contexts included);
        # targets include END and the UNK id of out-of-vocabulary words.
        ids = st.integers(min_value=zs.START_ID, max_value=lm.end_id)
        for _ in range(8):
            ctx = tuple(data.draw(st.lists(ids, max_size=order + 1)))
            target = data.draw(st.sampled_from(
                [lm.end_id, lm.vocabulary.unk_id, data.draw(st.integers(0, lm.end_id))]))
            assert lm.distribution(ctx)[target] == reference(ctx, target)
        # A scoring pass sums the same probabilities, log by log, over
        # each token and END.
        words = data.draw(st.lists(st.sampled_from(WORDS + ["zz"]), min_size=1, max_size=9))
        ids_of = [lm.vocabulary.id_of(w) for w in words + ["."]]
        expected = 0.0
        for i, target in enumerate(ids_of + [lm.end_id]):
            expected += math.log(reference(ids_of[:i], target))
        body, symbols = " ".join(words) + ".", len(ids_of) + 1
        assert oracle_score_texts(lm, [body]) == (expected, symbols, True)
        assert log_prob(lm, body) == expected
        assert zs.per_token_log_prob(lm, make_doc(body)) == expected / symbols

    def test_ids_outside_the_event_space_rejected(self):
        lm = zs.train_kn_lm(["a b c."] * 3, order=3)
        for ctx in [(zs.START_ID - 1,), (0, lm.end_id + 1)]:
            with pytest.raises(DataError):
                lm.distribution(ctx)

    def test_save_matches_golden_bytes(self, tmp_path):
        # tests/fixtures/lm_golden.json was written by the dict-table model
        # this layout replaced; lm.json must not drift from it.
        golden = (FIXTURES / "lm_golden.json").read_bytes()
        lm = zs.train_kn_lm(GOLDEN_TEXTS, order=3, discount=0.75)
        zs.save_lm(lm, tmp_path / "trained.json")
        assert (tmp_path / "trained.json").read_bytes() == golden
        zs.save_lm(zs.load_lm(FIXTURES / "lm_golden.json"), tmp_path / "reloaded.json")
        assert (tmp_path / "reloaded.json").read_bytes() == golden

    def test_pack_limit_at_train_time(self):
        texts = [" ".join(f"w{i}" for i in range(90))]  # 91 ids with UNK: base 93
        assert zs.train_kn_lm(texts, order=9).order == 9  # 93 ** 9 < 2 ** 63
        with pytest.raises(DataError, match=r"2\*\*63"):
            zs.train_kn_lm(texts, order=10)  # 93 ** 10 > 2 ** 63

    def test_pack_limit_at_load_time(self, tmp_path):
        lm = zs.train_kn_lm([" ".join(f"w{i}" for i in range(90))], order=9)
        payload = saved_payload(lm)
        vocab = payload["vocabulary"]
        for i in range(40):  # base 133: 133 ** 9 > 2 ** 63
            vocab["word_to_id"][f"x{i}"] = payload["end_id"] + i
            vocab["frequencies"][f"x{i}"] = 1
        payload["end_id"] += 40
        path = tmp_path / "lm.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=r"2\*\*63"):
            zs.load_lm(path)
        copy = edited_copy(lm, end_id=payload["end_id"], vocabulary=SimpleNamespace(**vocab))
        zs.save_lm_bin(copy, tmp_path / "lm.bin", path)
        with pytest.raises(DataError, match=r"2\*\*63"):
            zs._read_lm_bin(tmp_path / "lm.bin", path)


GOLDEN_TEXTS = ["The cat sat on the mat. The dog sat too!", "A dog and a cat? Yes, a cat.",
                "the mat, the cat; the end."]
FIXTURES = Path(__file__).parent / "fixtures"


def log_prob(lm, body):
    """The sum of log P over *body*'s sentences from the package's
    tokenization and sweep, as _log_probs_per_symbol reads it."""
    sentences, _ = lm._tokenized([body])
    [total] = zs._log_totals(lm._probs(zs._windows(sentences, lm.order, lm.end_id)),
                             [zs._positions(sentences)])
    return total


class TestLogProb:
    def test_memorized_sentence_beats_all_single_substitutions(self):
        corpus = ["a b c d e."] * 30 + ["c a d b e."] * 5
        lm = zs.train_kn_lm(corpus, order=3, discount=0.75)
        base = log_prob(lm, "a b c d e.")
        words = ["a", "b", "c", "d", "e"]
        for pos in range(5):
            for alt in words:
                if alt == words[pos]:
                    continue
                variant = words.copy()
                variant[pos] = alt
                lp = log_prob(lm, " ".join(variant) + ".")
                assert base > lp

    def test_concatenation_is_additive(self):
        lm = zs.train_kn_lm(["a b c.", "b c a.", "c a b."] * 3, order=2, discount=0.75)
        lp1 = log_prob(lm, "a b c.")
        lp2 = log_prob(lm, "b c a.")
        both = log_prob(lm, "a b c. b c a.")
        assert both == lp1 + lp2
        # Each sentence predicts its 4 tokens plus END, and scoring several
        # texts at once gives the same sums.
        assert zs.per_token_log_prob(lm, make_doc("a b c. b c a.")) == both / 10
        assert oracle_score_texts(lm, ["a b c.", "b c a."]) == (both, 10, True)

    def test_all_oov_finite_via_unk(self):
        lm = zs.train_kn_lm(["a b c."] * 5, order=2, discount=0.75)
        lp = log_prob(lm, "zz yy xx")
        assert math.isfinite(lp)
        assert math.isfinite(zs.per_token_log_prob(lm, make_doc("zz yy xx")))

    def test_empty_of_words_rejected(self):
        lm = zs.train_kn_lm(["a b c."] * 5, order=2, discount=0.75)
        lm.scoring_passes = 0
        with pytest.raises(DataError):
            zs.per_token_log_prob(lm, make_doc("..."))
        assert lm.scoring_passes == 0
        assert lm._tokenized(["..."])[1] == []
        assert lm._tokenized(["... a"])[1] == [(1, 0, "a")]
        zs.per_token_log_prob(lm, make_doc("... a"))
        assert lm.scoring_passes == 1

    @settings(max_examples=60, deadline=None)
    @given(st.text(min_size=1, max_size=40))
    def test_word_flag_matches_word_surface_check(self, text):
        lm = zs.train_kn_lm(["a b c."] * 5, order=2, discount=0.75)
        expected = any(ch.isalnum() for t in tokenize(text) for ch in t.surface)
        sentences, words = lm._tokenized([text])
        assert bool(words) == expected
        assert oracle_score_texts(lm, [text])[2] == expected
        # Each entry names a word token by its sentence and position.
        tokens = [tokenize(sent) for sent in split_sentences(text)]
        tokens = [t for t in tokens if t]
        assert words == [(s, p, t.surface) for s, sent in enumerate(tokens)
                         for p, t in enumerate(sent) if t.is_word]
        assert all(sentences[s][p] == lm.vocabulary.id_of(w) for s, p, w in words)


def word_pool(texts):
    return build_vocab(texts, min_count=1)


def perturbed_body(body, cfg, seed):
    """The string rewrite of *body* under *seed*, from the package's parts:
    rewrite_units over its word spans, each word drawn for its lowercase
    by cfg's sampler, built at the first draw."""
    words = [(a, b) for a, b, is_word in token_spans(body) if is_word]
    return rewrite_units(body, words, cfg.mask_fraction, seed,
                         lambda rng, word: cfg._sampler().draw(rng, word.lower()))


class TestPerturb:
    POOL_TEXTS = ["apple banana cherry date elder fig grape melon peach plum"] * 3

    def test_mask_zero_is_identity(self):
        doc = make_doc("one two three.")
        cfg = zs.PerturbConfig(pool=word_pool(self.POOL_TEXTS), mask_fraction=0.0, seed=1, k=1)
        assert perturbed_body(doc.body, cfg, cfg.seed) == doc.body

    def test_floor_rule_replaces_exact_count(self):
        doc = make_doc("apple banana cherry date elder fig grape melon peach plum")
        cfg = zs.PerturbConfig(pool=word_pool(self.POOL_TEXTS), mask_fraction=0.3, seed=5, k=1)
        orig = doc.body.split()
        new = perturbed_body(doc.body, cfg, cfg.seed).split()
        assert len(new) == len(orig)
        assert sum(a != b for a, b in zip(orig, new)) == 3

    def test_deterministic(self):
        doc = make_doc("apple banana cherry date elder fig grape melon.")
        cfg = zs.PerturbConfig(pool=word_pool(self.POOL_TEXTS), mask_fraction=0.5, seed=9, k=1)
        assert (perturbed_body(doc.body, cfg, cfg.seed)
                == perturbed_body(doc.body, cfg, cfg.seed))

    @settings(max_examples=40, deadline=None)
    @given(
        words=st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=1, max_size=12),
        frac=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_token_counts_and_punctuation_preserved(self, words, frac, seed):
        body = " ".join(words) + ". And, done!"
        doc = make_doc(body)
        cfg = zs.PerturbConfig(pool=word_pool(self.POOL_TEXTS),
                               mask_fraction=frac, seed=seed, k=1)
        orig_tokens = tokenize(doc.body)
        new_tokens = tokenize(perturbed_body(doc.body, cfg, seed))
        assert len(new_tokens) == len(orig_tokens)
        assert [t.surface for t in new_tokens if not t.is_word] == [
            t.surface for t in orig_tokens if not t.is_word
        ]
        n_words = sum(t.is_word for t in orig_tokens)
        changed = sum(
            a.surface != b.surface
            for a, b in zip(orig_tokens, new_tokens)
            if a.is_word
        )
        assert changed <= int(math.floor(frac * n_words))


class TestCurvatureStat:
    def test_hand_arithmetic(self):
        d, mean, std = zs.curvature_stat(-10.0, [-11.0, -13.0])
        assert (d, mean, std) == (2.0, -12.0, 1.0)

    def test_std_guard(self):
        d, mean, std = zs.curvature_stat(-10.0, [-12.0, -12.0])
        assert d == 0.0
        assert std == 0.0


class TestDetectors:
    def degenerate_lm_and_pool(self):
        # Single-word vocabulary: every perturbation redraws the same word,
        # so all rewrites equal the original and the std guard fires.
        lm = zs.train_kn_lm(["a a a a a."] * 10, order=2, discount=0.75)
        return lm, lm.vocabulary

    def test_degenerate_lm_scores_zero(self):
        lm, pool = self.degenerate_lm_and_pool()
        doc = make_doc("a a a a.")
        cfg = zs.PerturbConfig(pool=pool, mask_fraction=0.5, seed=3, k=4)
        assert zs.detect_gpt_score(lm, doc, cfg).d == 0.0
        cfg1 = zs.PerturbConfig(pool=pool, mask_fraction=0.5, seed=3, k=1)
        assert zs.single_revise_score(lm, doc, cfg1).d == 0.0

    def test_detect_gpt_uses_k_plus_one_passes(self):
        lm = zs.train_kn_lm(["a b c d.", "b c d a."] * 5, order=2, discount=0.75)
        doc = make_doc("a b c d.")
        cfg = zs.PerturbConfig(pool=lm.vocabulary, mask_fraction=0.3, seed=2, k=7)
        lm.scoring_passes = 0
        score = zs.detect_gpt_score(lm, doc, cfg)
        assert lm.scoring_passes == 8
        assert score.k_used == 7

    def test_single_revise_uses_two_passes(self):
        lm = zs.train_kn_lm(["a b c d.", "b c d a."] * 5, order=2, discount=0.75)
        doc = make_doc("a b c d.")
        cfg = zs.PerturbConfig(pool=lm.vocabulary, mask_fraction=0.3, seed=2, k=1)
        lm.scoring_passes = 0
        zs.single_revise_score(lm, doc, cfg)
        assert lm.scoring_passes == 2

    def test_single_revise_is_per_token_difference(self):
        lm = zs.train_kn_lm(["a b c d e f g h.", "c d a b f e h g."] * 6,
                            order=2, discount=0.75)
        doc = make_doc("a b c d e f g h.")
        cfg = zs.PerturbConfig(pool=lm.vocabulary, mask_fraction=0.25, seed=4, k=1)
        score = zs.single_revise_score(lm, doc, cfg)
        lp_orig = zs.per_token_log_prob(lm, doc)
        variant = replace(doc, body=perturbed_body(doc.body, cfg, cfg.seed + 1))
        lp_pert = zs.per_token_log_prob(lm, variant)
        assert score.d == pytest.approx(lp_orig - lp_pert, abs=1e-12)
        assert score.logp_perturbed_std == 0.0

    def test_detect_gpt_requires_k_at_least_two(self):
        lm, pool = self.degenerate_lm_and_pool()
        cfg = zs.PerturbConfig(pool=pool, mask_fraction=0.2, seed=1, k=1)
        with pytest.raises(DataError):
            zs.detect_gpt_score(lm, make_doc("a a."), cfg)

    def test_deterministic_scores(self):
        lm = zs.train_kn_lm(["a b c d.", "d c b a.", "b a d c."] * 4,
                            order=2, discount=0.75)
        doc = make_doc("a b c d. d c b a.")
        cfg = zs.PerturbConfig(pool=lm.vocabulary, mask_fraction=0.3, seed=6, k=5)
        s1 = zs.detect_gpt_score(lm, doc, cfg)
        s2 = zs.detect_gpt_score(lm, doc, cfg)
        assert s1 == s2


class TestClassifyCurvature:
    # detect, evaluate and train label every score through DetectorScorer.
    @staticmethod
    def label(score: zs.CurvatureScore, threshold: float) -> int:
        scorer = DetectorScorer(name="detect_gpt", score_fn=lambda doc: score.d,
                                threshold=threshold)
        return scorer.label(scorer.score_fn(make_doc("a b.")))

    def test_above_threshold_is_machine(self):
        score = zs.CurvatureScore(d=2.0, logp_original=-1, logp_perturbed_mean=-2,
                                  logp_perturbed_std=0.5, k_used=3)
        assert self.label(score, threshold=1.0) == 1

    def test_boundary_ties_to_machine(self):
        score = zs.CurvatureScore(d=1.0, logp_original=-1, logp_perturbed_mean=-2,
                                  logp_perturbed_std=0.5, k_used=3)
        assert self.label(score, threshold=1.0) == 1

    def test_below_threshold_is_human(self):
        score = zs.CurvatureScore(d=0.2, logp_original=-1, logp_perturbed_mean=-2,
                                  logp_perturbed_std=0.5, k_used=3)
        assert self.label(score, threshold=1.0) == 0


def uncached_sample_document(lm, seed, max_tokens, sentences):
    # sample_document as it was before it kept each context's CDF.
    rng = np.random.default_rng(seed)
    id_to_surface = {i: s for s, i in lm.vocabulary.word_to_id.items()}
    out_sentences = []
    for _ in range(sentences):
        context = [zs.START_ID] * (lm.order - 1)
        words = []
        for _ in range(max_tokens):
            probs = lm.distribution(tuple(context))
            probs /= probs.sum()
            target = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
            if target == lm.end_id:
                break
            words.append(id_to_surface.get(target, zs.UNK))
            context = context[1:] + [target]
        if words:
            out_sentences.append(" ".join(words) + ".")
    return " ".join(out_sentences)


class TestSamplingAndPersistence:
    def test_sampling_deterministic(self):
        lm = zs.train_kn_lm(["a b c d.", "b c d a.", "c d a b."] * 5,
                            order=3, discount=0.75)
        t1 = zs.sample_document(lm, seed=42, max_tokens=20, sentences=2)
        t2 = zs.sample_document(lm, seed=42, max_tokens=20, sentences=2)
        assert t1 == t2 and t1

    def test_sampling_matches_uncached_sampler(self):
        lm = zs.train_kn_lm(["a b c d.", "b c d a!", "c d a b, a b."] * 5,
                            order=3, discount=0.75)
        for seed in range(20):
            assert zs.sample_document(lm, seed, max_tokens=25, sentences=3) == \
                uncached_sample_document(lm, seed, max_tokens=25, sentences=3)

    def test_save_load_round_trip(self, tmp_path):
        texts = ["a b c d.", "d a b c.", "c b a d."] * 4
        lm = zs.train_kn_lm(texts, order=3, discount=0.75)
        path = tmp_path / "lm.json"
        zs.save_lm(lm, path)
        loaded = zs.load_lm(path)
        for body in ("a b c d.", "zz c a.", "d d d."):
            doc = make_doc(body)
            assert loaded._tokenized([body]) == lm._tokenized([body])
            assert log_prob(loaded, body) == log_prob(lm, body)
            assert zs.per_token_log_prob(loaded, doc) == zs.per_token_log_prob(lm, doc)
        for k in range(1, lm.order + 1):
            for loaded_array, array in zip(loaded.grams[k] + loaded.contexts[k],
                                           lm.grams[k] + lm.contexts[k]):
                assert np.array_equal(loaded_array, array)

    def test_schema_gate(self, tmp_path):
        lm = zs.train_kn_lm(["a b."] * 3, order=2, discount=0.75)
        path = tmp_path / "lm.json"
        zs.save_lm(lm, path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            zs.load_lm(path)


class TestSharedSampler:
    BODIES = ["a b c d. d c b a.", "b a d c a b.", "c d a b c d a."]

    def lm(self):
        return zs.train_kn_lm(["a b c d.", "d c b a.", "b a d c."] * 4,
                              order=2, discount=0.75)

    @pytest.mark.parametrize("k, score_fn", [(5, zs.detect_gpt_score),
                                             (1, zs.single_revise_score)])
    def test_reused_config_scores_like_fresh_configs(self, k, score_fn):
        lm = self.lm()
        shared = zs.PerturbConfig(pool=lm.vocabulary, mask_fraction=0.3, seed=6, k=k)
        reused = [score_fn(lm, make_doc(b), shared) for b in self.BODIES]
        fresh = [
            score_fn(lm, make_doc(b),
                     zs.PerturbConfig(pool=lm.vocabulary, mask_fraction=0.3, seed=6, k=k))
            for b in self.BODIES
        ]
        assert reused == fresh

    def test_sampler_built_once_across_perturbations_and_documents(self, monkeypatch):
        built = []

        class Counting(zs._SubstitutionSampler):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(zs, "_SubstitutionSampler", Counting)
        lm = self.lm()
        cfg = zs.PerturbConfig(pool=lm.vocabulary, mask_fraction=0.3, seed=6, k=5)
        for body in self.BODIES:
            zs.detect_gpt_score(lm, make_doc(body), cfg)
        single = replace(cfg, k=1)
        for body in self.BODIES:
            zs.single_revise_score(lm, make_doc(body), single)
        assert len(built) == 1

    def test_wordless_pool_raises_only_when_a_word_is_replaced(self):
        pool = build_vocab([". , ! ?"], min_count=1)
        cfg = zs.PerturbConfig(pool=pool, mask_fraction=0.5, seed=1, k=1)
        assert perturbed_body("a.", cfg, 1) == "a."  # floor(0.5) = 0
        with pytest.raises(DataError):
            perturbed_body("a b c d.", cfg, 1)
        with pytest.raises(DataError):
            perturbed_body("a b c d.", cfg, 1)


# -- oracles of the one-sweep path ------------------------------------------
# The string rewrite, per_token_log_prob (with its tokenization and log sum),
# detect_gpt_score and single_revise_score written the plain way: one
# perturbation and one scoring pass per text, sharing only the row-wise
# _windows and _probs with the package. The package's one sweep per
# document must give their scores bit for bit, and their errors.


def oracle_score_texts(lm, texts):
    sentences = []
    has_word = False
    for tokens in zs._sentence_tokens(texts):
        has_word = has_word or any(t.is_word for t in tokens)
        sentences.append([lm.vocabulary.id_of(t.surface) for t in tokens])
    if not sentences:
        return 0.0, 0, has_word
    windows = zs._windows(sentences, lm.order, lm.end_id)
    return oracle_log_total(lm._probs(windows), sentences), len(windows), has_word


def oracle_log_total(probs, sentences):
    values = probs.tolist()
    total, start = 0.0, 0
    for ids in sentences:
        stop = start + len(ids) + 1
        sentence = 0.0
        for p in values[start:stop]:
            sentence += math.log(p)
        total += sentence
        start = stop
    return total


def oracle_perplexity(lm, texts):
    total, symbols, _ = oracle_score_texts(lm, texts)
    return math.exp(-total / symbols)


def oracle_per_token_log_prob(lm, doc):
    total, symbols, has_word = oracle_score_texts(lm, [doc.body])
    if not has_word:
        raise DataError(f"document {doc.id!r} has no word tokens")
    lm.scoring_passes += 1
    return total / symbols


def oracle_perturb(doc, cfg):
    spans = token_spans(doc.body)
    word_positions = [i for i, (_, _, w) in enumerate(spans) if w]
    n_replace = int(math.floor(cfg.mask_fraction * len(word_positions)))
    if n_replace == 0:
        return doc
    rng = np.random.default_rng(cfg.seed)
    sampler = cfg._sampler()
    chosen = rng.choice(len(word_positions), size=n_replace, replace=False)
    chosen_positions = sorted(word_positions[int(i)] for i in chosen)
    pieces = []
    prev = 0
    for pos in chosen_positions:
        a, b, _ = spans[pos]
        original = doc.body[a:b].lower()
        replacement = sampler.draw(rng, original)
        pieces.append(doc.body[prev:a])
        pieces.append(replacement)
        prev = b
    pieces.append(doc.body[prev:])
    return Document(
        id=doc.id,
        body="".join(pieces),
        label=doc.label,
        source_question=doc.source_question,
    )


def oracle_detect_gpt_score(lm, doc, cfg):
    if cfg.k < 2:
        raise DataError("detect_gpt_score needs k >= 2")
    lp_orig = oracle_per_token_log_prob(lm, doc)
    perturbed = []
    for i in range(1, cfg.k + 1):
        variant = oracle_perturb(doc, replace(cfg, seed=cfg.seed + i))
        perturbed.append(oracle_per_token_log_prob(lm, variant))
    d, mean, std = zs.curvature_stat(lp_orig, perturbed)
    return zs.CurvatureScore(
        d=d,
        logp_original=lp_orig,
        logp_perturbed_mean=mean,
        logp_perturbed_std=std,
        k_used=cfg.k,
    )


def oracle_single_revise_score(lm, doc, cfg):
    if cfg.k != 1:
        raise DataError("single_revise_score needs k = 1")
    lp_orig = oracle_per_token_log_prob(lm, doc)
    variant = oracle_perturb(doc, replace(cfg, seed=cfg.seed + 1))
    lp_pert = oracle_per_token_log_prob(lm, variant)
    return zs.CurvatureScore(
        d=lp_orig - lp_pert,
        logp_original=lp_orig,
        logp_perturbed_mean=lp_pert,
        logp_perturbed_std=0.0,
        k_used=1,
    )


def oracle_score(lm, doc, cfg):
    """The oracle's score of *doc*, or the message of its DataError."""
    oracle = oracle_detect_gpt_score if cfg.k >= 2 else oracle_single_revise_score
    try:
        return oracle(lm, doc, cfg)
    except DataError as exc:
        return str(exc)


SWEEP_WORDS = ["a", "b", "c", "d", "e", "f", "the", "zz", "qq"]  # zz, qq: out of vocabulary
SWEEP_LM = zs.train_kn_lm(["a b c d e f.", "the a b the c d!", "f e d c, b a?",
                           "the the a f e."] * 3, order=3, discount=0.75)
# Chunks that a rewrite can re-segment: abbreviations, whose words
# replaced can end a sentence; apostrophes, inside a word and alone; and a
# capital whose lowercase is two code points.
ODD_CHUNKS = ["Dr.", "e.g.", "No.", "etc.", "don't", "’", "İstanbul"]

def pool_of(frequencies):
    """A substitution pool holding exactly *frequencies*' surfaces."""
    surfaces = list(frequencies) + [UNK]
    return Vocabulary(word_to_id={w: i for i, w in enumerate(surfaces)},
                      frequencies={**frequencies, UNK: 0})


# Pool surfaces that re-segment once spliced in ("i̇stanbul" is a word, its
# combining dot, a word; "x y" two words; "a.b" two words around a
# period), collide with a lowercase surface ("Dog") or are abbreviation
# words ("dr", "e"), beside plain words. The abbreviation words are rare,
# so that most rewrites of a document patch ids around the others.
ODD_POOL = pool_of({"i̇stanbul": 3, "x y": 2, "a.b": 2, "Dog": 4, "dr": 1, "e": 1,
                    "a": 12, "the": 16})


# A document: up to three sentences of up to 20 tokens (long enough that
# np.sum would add a sentence's terms in another order), or no word at all.
sweep_bodies = st.one_of(
    st.lists(st.lists(st.sampled_from(SWEEP_WORDS + ODD_CHUNKS + [","]), min_size=1,
                      max_size=20)
             .map(" ".join), min_size=1, max_size=3)
    .map(lambda sentences: ". ".join(sentences) + "."),
    st.sampled_from(["!!! ?", "... ,", "?"]),
)

# A document a curvature score can rewrite at every mask_fraction from
# 0.15 (floor(0.15 * 7) = 1): seven or more words, or no word at all.
REWRITABLE_FRACTIONS = st.floats(0.15, 1.0)
rewritable_bodies = st.one_of(
    st.lists(st.lists(st.sampled_from(SWEEP_WORDS + ODD_CHUNKS + [","]), min_size=7,
                      max_size=20)
             .map(" ".join), min_size=1, max_size=3)
    .map(lambda sentences: ". ".join(sentences) + ".")
    .filter(lambda body: len(word_tokens(body)) >= 7),
    st.sampled_from(["!!! ?", "... ,", "?"]),
)


def package_score(lm, doc, cfg):
    """The package's score of *doc*, or the message of its DataError."""
    score = zs.detect_gpt_score if cfg.k >= 2 else zs.single_revise_score
    try:
        return score(lm, doc, cfg)
    except DataError as exc:
        return str(exc)


class TestOneSweepScoring:
    @settings(max_examples=40, deadline=None)
    @given(
        bodies=st.lists(rewritable_bodies, min_size=1, max_size=6),
        k=st.sampled_from([1, 2, 5]),
        mask_fraction=st.sampled_from([0.15, 0.3, 0.6]),
        seed=st.integers(0, 2**32),
        pool=st.sampled_from([SWEEP_LM.vocabulary, ODD_POOL]),
    )
    def test_scores_equal_per_text_oracle(self, bodies, k, mask_fraction, seed, pool):
        lm = SWEEP_LM
        cfg = zs.PerturbConfig(pool=pool, mask_fraction=mask_fraction, seed=seed, k=k)
        docs = [make_doc(b, doc_id=str(i)) for i, b in enumerate(bodies)]
        expected = [oracle_score(lm, d, cfg) for d in docs]
        before = lm.scoring_passes
        results = [package_score(lm, d, cfg) for d in docs]
        for result, want in zip(results, expected):
            # A wordless document fails with the oracle's message.
            assert repr(result) == repr(want)
        scored = sum(not isinstance(w, str) for w in expected)
        assert lm.scoring_passes - before == (k + 1) * scored

    @settings(max_examples=60, deadline=None)
    @given(body=sweep_bodies, k=st.integers(1, 6), seed=st.integers(0, 2**32),
           mask_fraction=st.floats(0.0, 1.0))
    def test_variants_equal_per_seed_perturbations(self, body, k, seed, mask_fraction):
        cfg = zs.PerturbConfig(pool=SWEEP_LM.vocabulary, mask_fraction=mask_fraction,
                               seed=seed, k=k)
        doc = make_doc(body)
        seeds = range(seed + 1, seed + k + 1)
        assert [perturbed_body(body, cfg, s) for s in seeds] == [
            oracle_perturb(doc, replace(cfg, seed=s)).body for s in seeds]
        assert perturbed_body(body, cfg, seed) == oracle_perturb(doc, cfg).body

    def test_failed_document_adds_no_pass(self):
        lm = SWEEP_LM
        cfg = zs.PerturbConfig(pool=build_vocab([". , ! ?"], min_count=1),
                               mask_fraction=0.5, seed=1, k=2)
        before = lm.scoring_passes
        assert package_score(lm, make_doc("a b c d.", doc_id="1"), cfg) == (
            "substitution pool contains no words")
        assert package_score(lm, make_doc("!!! ?", doc_id="2"), cfg) == (
            "document '2' has no word tokens")
        assert lm.scoring_passes == before


class TestTooFewWordsToRewrite:
    """A curvature score refuses, before any scoring pass, a document of
    which floor(mask_fraction * words) masks no word, naming the fewest
    words it would rewrite."""

    @settings(max_examples=300, deadline=None)
    @given(n_words=st.integers(1, 40), mask_fraction=st.floats(0.0, 1.0),
           k=st.sampled_from([1, 3]))
    def test_refused_exactly_when_no_word_is_masked(self, n_words, mask_fraction, k):
        lm = SWEEP_LM
        body = " ".join(SWEEP_WORDS[i % len(SWEEP_WORDS)] for i in range(n_words)) + "."
        cfg = zs.PerturbConfig(pool=lm.vocabulary, mask_fraction=mask_fraction, seed=3, k=k)
        before = lm.scoring_passes
        result = package_score(lm, make_doc(body, doc_id="7"), cfg)
        if math.floor(mask_fraction * n_words):
            assert not isinstance(result, str)
            assert lm.scoring_passes - before == k + 1
            return
        assert lm.scoring_passes == before
        fewest = zs._fewest_masked_words(mask_fraction)
        stated = "masks none" if fewest is None else f"needs at least {fewest}"
        assert result == (f"document '7' has {n_words} word tokens; curvature scoring at "
                          f"mask_fraction {mask_fraction} {stated}")
        if fewest is None:
            # No document of fewer than 2**53 words could be rewritten.
            assert math.floor(mask_fraction * 2**53) == 0
        else:
            assert math.floor(mask_fraction * fewest) >= 1
            assert math.floor(mask_fraction * (fewest - 1)) == 0

    @pytest.mark.parametrize("mask_fraction, fewest", [
        (0.15, 7), (0.3, 4), (1.0, 1), (0.0, None), (5e-324, None),
        # 1 / (1 / 161) is 161, but (1 / 161) * 161 rounds below 1.
        (1 / 161, 162),
    ])
    def test_fewest_masked_words(self, mask_fraction, fewest):
        assert zs._fewest_masked_words(mask_fraction) == fewest


class TestOneScoringRoute:
    @settings(max_examples=80, deadline=None)
    @given(bodies=st.lists(sweep_bodies, min_size=1, max_size=4))
    def test_per_token_log_probs_equal_per_text_oracle(self, bodies):
        """per_token_log_prob gives the oracle's per-text values bit for
        bit, its error message, and one pass per body; a wordless body fails
        the call before any pass."""
        lm = SWEEP_LM

        def outcome(score, *args):
            before = lm.scoring_passes
            try:
                result = score(lm, *args)
            except DataError as exc:
                result = str(exc)
            return repr(result), lm.scoring_passes - before

        docs = [make_doc(b, doc_id=str(i)) for i, b in enumerate(bodies)]
        for doc in docs:
            assert outcome(zs.per_token_log_prob, doc) == outcome(oracle_per_token_log_prob, doc)


class TestMixedCasePerturbation:
    @settings(max_examples=60, deadline=None)
    @given(
        words=st.lists(st.sampled_from(SWEEP_WORDS + ODD_CHUNKS
                                       + ["The", "A", "F", "ZZ", "tHe"]),
                       min_size=7, max_size=15)
        .filter(lambda words: len(word_tokens(" ".join(words))) >= 7),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32),
        mask_fraction=REWRITABLE_FRACTIONS,
    )
    def test_capitalized_words_draw_for_their_lowercase(self, words, k, seed, mask_fraction):
        body = " ".join(words) + "."
        cfg = zs.PerturbConfig(pool=SWEEP_LM.vocabulary, mask_fraction=mask_fraction,
                               seed=seed, k=k)
        seeds = range(seed + 1, seed + k + 1)
        assert [perturbed_body(body, cfg, s) for s in seeds] == [
            oracle_perturb(make_doc(body), replace(cfg, seed=s)).body for s in seeds]
        try:
            groups = zs._rewrite_groups(SWEEP_LM, make_doc(body), cfg, seeds)
        except DataError:
            assert SWEEP_LM._tokenized([body])[1] == []
            return
        assert groups == tokenized_rewrites(SWEEP_LM, body, cfg, seeds)


def tokenized_rewrites(lm, body, cfg, seeds):
    """The id sentences of *body* and of each of its oracle string rewrites."""
    doc = make_doc(body)
    return [lm._tokenized([b])[0]
            for b in [body, *(oracle_perturb(doc, replace(cfg, seed=s)).body for s in seeds)]]


class TestIdSpaceRewrites:
    """The curvature scorers patch word ids into the tokenized original;
    their ids must equal those of the tokenized string rewrites (their
    scores are pinned by TestOneSweepScoring, ODD_POOL included)."""

    @settings(max_examples=60, deadline=None)
    @given(body=rewritable_bodies, pool=st.sampled_from([SWEEP_LM.vocabulary, ODD_POOL]),
           k=st.integers(1, 6), seed=st.integers(0, 2**32),
           mask_fraction=REWRITABLE_FRACTIONS)
    def test_groups_equal_tokenized_rewrites(self, body, pool, k, seed, mask_fraction):
        cfg = zs.PerturbConfig(pool=pool, mask_fraction=mask_fraction, seed=seed, k=k)
        seeds = range(seed + 1, seed + k + 1)
        doc = make_doc(body)
        try:
            groups = zs._rewrite_groups(SWEEP_LM, doc, cfg, seeds)
        except DataError as exc:
            assert str(exc) == "document 'd1' has no word tokens"
            assert SWEEP_LM._tokenized([body])[1] == []
            return
        assert groups == tokenized_rewrites(SWEEP_LM, body, cfg, seeds)

    def test_resegmenting_draw_falls_back(self):
        # Every draw re-segments: the rewrites gain tokens, so no patch of
        # the original's ids could give them.
        pool = pool_of({"i̇stanbul": 2, "x y": 1, "a.b": 3})
        body = "the cat sat on a mat today."
        cfg = zs.PerturbConfig(pool=pool, mask_fraction=0.5, seed=0, k=1)
        assert all(cfg._sampler().patch_surface(w) is None for w in pool.frequencies
                   if w != UNK)
        seeds = range(1, 21)
        expected = tokenized_rewrites(SWEEP_LM, body, cfg, seeds)
        assert all(len(ids) > 8 for [ids] in expected[1:])
        assert zs._rewrite_groups(SWEEP_LM, make_doc(body), cfg, seeds) == expected

    def test_abbreviation_word_off_a_period_is_patched(self, monkeypatch):
        # "i", "no" and "e" are abbreviation words, but no chunk here ends
        # in a period, so every rewrite is a patch.
        body = "I said no to e and i, today! No one came?"
        cfg = zs.PerturbConfig(pool=pool_of({"no": 2, "i": 2, "e": 1, "cat": 1}),
                               mask_fraction=0.5, seed=0, k=1)
        seeds = range(1, 21)
        expected = tokenized_rewrites(SWEEP_LM, body, cfg, seeds)

        def no_fallback(*args):
            raise AssertionError("rewrite spliced")

        monkeypatch.setattr(zs, "splice_units", no_fallback)
        assert zs._rewrite_groups(SWEEP_LM, make_doc(body), cfg, seeds) == expected

    @pytest.mark.parametrize("body, pool", [
        # An abbreviation's word replaced: "cat. Lee" ends a sentence.
        ("Ask Dr. Lee about No. 5 today. It ends.", {"cat": 3, "dog": 2, "sun": 1}),
        # A word before a period replaced by one: "Dr." or "no." does not.
        ("The cat. Sat on a mat. Then done.", {"Dr": 1, "no": 1}),
    ], ids=["original", "drawn"])
    def test_abbreviation_word_falls_back(self, monkeypatch, body, pool):
        cfg = zs.PerturbConfig(pool=pool_of(pool), mask_fraction=1.0, seed=0, k=1)
        seeds = range(1, 21)
        expected = tokenized_rewrites(SWEEP_LM, body, cfg, seeds)
        # Every rewrite has another number of sentences than the original.
        assert all(len(sentences) != len(expected[0]) for sentences in expected[1:])
        draws = []
        draw = zs._SubstitutionSampler.draw

        def counted(sampler, rng, original):
            draws.append(original)
            return draw(sampler, rng, original)

        monkeypatch.setattr(zs._SubstitutionSampler, "draw", counted)
        assert zs._rewrite_groups(SWEEP_LM, make_doc(body), cfg, seeds) == expected
        # Each spliced rewrite draws its floor(1.0 * words) picks once.
        assert len(draws) == len(seeds) * len(word_tokens(body))


def oracle_slice_for(sampler, original):
    """The pool slice a draw for *original* picks from, found by two
    bisects on every call: the reference for _SubstitutionSampler._band."""
    f = sampler.freq_of.get(original)
    if f is None:
        return 0, len(sampler.words)
    lo = bisect_left(sampler.freqs, f / (2.0**zs.BAND_OCTAVES))
    hi = bisect_right(sampler.freqs, f * (2.0**zs.BAND_OCTAVES))
    if hi - lo < 2:
        return 0, len(sampler.words)
    return lo, hi


def oracle_cdf(sampler, lo, hi):
    weights = np.array(sampler.freqs[lo:hi], dtype=float)
    return memoryview(np.cumsum(weights / weights.sum()))


def oracle_draw(sampler, rng, original):
    lo, hi = oracle_slice_for(sampler, original)
    cdf = oracle_cdf(sampler, lo, hi)
    pick = original
    for _ in range(11):
        pick = sampler.words[lo + bisect_right(cdf, rng.random())]
        if pick != original:
            return pick
    return pick


BAND_WORDS = [f"w{i}" for i in range(12)]


class TestBandLookup:
    @settings(max_examples=80, deadline=None)
    @given(
        frequencies=st.dictionaries(st.sampled_from(BAND_WORDS), st.integers(0, 40),
                                    min_size=1).filter(lambda f: any(f.values())),
        originals=st.lists(st.sampled_from(BAND_WORDS + ["out", "w"]), min_size=1,
                           max_size=30),
        seed=st.integers(0, 2**32),
    )
    def test_draw_equals_per_draw_bisect_oracle(self, frequencies, originals, seed):
        """One cached band per frequency draws what a slice bisected for
        every draw does: the same picks from the same generator, for pool
        words, words of frequency 0 and words outside the pool."""
        sampler = zs._SubstitutionSampler(pool_of(frequencies))
        oracle = zs._SubstitutionSampler(pool_of(frequencies))
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for original in originals:
            assert sampler.draw(rng, original) == oracle_draw(oracle, oracle_rng, original)
        for original in originals:
            lo, cdf = sampler._band(original)
            want_lo, hi = oracle_slice_for(oracle, original)
            assert (lo, cdf.tolist()) == (want_lo, oracle_cdf(oracle, want_lo, hi).tolist())

    def test_one_band_per_frequency(self):
        sampler = zs._SubstitutionSampler(pool_of({"a": 4, "b": 4, "c": 8, "d": 1}))
        assert sampler._band("a") is sampler._band("b")
        # Outside the pool, and a band of the original alone: the whole pool.
        assert sampler._band("out") is sampler._band("other")
        assert [(lo, len(cdf)) for lo, cdf in map(sampler._band, ["out", "d"])] == [(0, 4)] * 2
        assert sampler._band("a") is not sampler._band("out")


def oracle_pool_order(pool):
    """The pool's words and frequencies as _SubstitutionSampler sorted
    them by a (frequency, word) key: the reference for its two-sort build."""
    items = sorted(((w, c) for w, c in pool.frequencies.items()
                    if w != UNK and any(ch.isalnum() for ch in w) and c > 0),
                   key=lambda wc: (wc[1], wc[0]))
    return [w for w, _ in items], [c for _, c in items]


def oracle_pool_generator(pool):
    """The pool's words and frequencies as _SubstitutionSampler built them
    with a generator testing each word in Python: the reference for its
    C-level filters."""
    freq = pool.frequencies
    words = sorted(w for w, c in freq.items()
                   if c > 0 and w != UNK and WORD_CHAR_RE.search(w) is not None)
    words.sort(key=freq.__getitem__)
    return words, [freq[w] for w in words]


# Besides surfaces that str.isalnum settles, some that fail it but hold a
# word character (an apostrophe, a period, an underscore, a combining mark
# beside a letter) and some that hold none (a combining mark alone).
POOL_SURFACES = st.one_of(st.text(max_size=3),
                          st.sampled_from(["a", "b", "ab", "B", "-", ",", "_", "x_", "İ", "ß",
                                           "é", "日本", "x1", "<unk>x", UNK.upper(), "don't",
                                           "a.b", "x_y", "e\u0301", "\u0301", "...", "__"]))


class TestSamplerPool:
    @settings(max_examples=200, deadline=None)
    @given(frequencies=st.dictionaries(POOL_SURFACES.filter(lambda w: w != UNK),
                                       st.integers(0, 4)),
           unk_count=st.integers(0, 4))
    def test_pool_order_equals_frequency_word_sort(self, frequencies, unk_count):
        surfaces = list(frequencies) + [UNK]
        pool = Vocabulary(word_to_id={w: i for i, w in enumerate(surfaces)},
                          frequencies={**frequencies, UNK: unk_count})
        words, freqs = oracle_pool_order(pool)
        assert oracle_pool_generator(pool) == (words, freqs)
        if not words:
            with pytest.raises(DataError):
                zs._SubstitutionSampler(pool)
            return
        sampler = zs._SubstitutionSampler(pool)
        assert (sampler.words, sampler.freqs) == (words, freqs)
        assert sampler.freq_of == dict(zip(words, freqs))


def _corrupt():
    def level_1_deleted(p):
        del p["counts"]["1"]

    def extra_level(p):
        p["counts"]["4"] = p["counts"]["3"]

    def no_counts(p):
        p["counts"] = {}

    def empty_level(p):
        p["counts"]["2"] = []

    def null_level(p):
        p["counts"]["2"] = None

    def short_row(p):
        p["counts"]["2"][0] = p["counts"]["2"][0][1:]

    def negative_count(p):
        p["counts"]["1"][0][-1] = -1.0

    def zero_count(p):
        p["counts"]["3"][0][-1] = 0.0

    def target_out_of_range(p):
        p["counts"]["2"][0][-2] = 999999

    def target_is_start(p):
        p["counts"]["1"][0][0] = -1

    def context_out_of_range(p):
        p["counts"]["3"][0][0] = p["end_id"]

    def fractional_id(p):
        p["counts"]["1"][0][0] = 0.5

    def end_id_mismatch(p):
        p["end_id"] += 1

    def repeated_ngram(p):
        p["counts"]["1"].append(p["counts"]["1"][0])

    def non_numeric_count(p):
        p["counts"]["1"][0][-1] = "many"

    def order_too_small(p):
        p["order"] = 1

    def order_past_levels(p):
        p["order"] += 1

    def discount_too_large(p):
        p["discount"] = 1.5

    def discount_zero(p):
        p["discount"] = 0

    # Numbers of another JSON type are refused, never converted.
    def order_fractional(p):
        p["order"] = 3.9

    def order_string(p):
        p["order"] = "3"

    def discount_string(p):
        p["discount"] = "0.75"

    def end_id_fractional(p):
        p["end_id"] += 0.5

    def word_id_fractional(p):
        p["vocabulary"]["word_to_id"]["a"] += 0.5

    def frequency_fractional(p):
        p["vocabulary"]["frequencies"]["a"] = 2.7

    def frequency_boolean(p):
        p["vocabulary"]["frequencies"]["a"] = True

    # Equal to an integer, but not a JSON integer.
    def word_id_boolean(p):
        p["vocabulary"]["word_to_id"]["a"] = bool(p["vocabulary"]["word_to_id"]["a"])

    def word_id_integral_float(p):
        p["vocabulary"]["word_to_id"]["a"] = float(p["vocabulary"]["word_to_id"]["a"])

    def frequency_string(p):
        p["vocabulary"]["frequencies"]["a"] = str(p["vocabulary"]["frequencies"]["a"])

    def frequency_null(p):
        p["vocabulary"]["frequencies"]["a"] = None

    def frequency_negative(p):
        p["vocabulary"]["frequencies"]["a"] = -5

    def frequency_missing(p):
        del p["vocabulary"]["frequencies"]["a"]

    def frequency_of_unknown_word(p):
        p["vocabulary"]["frequencies"]["zz"] = 1

    # Rows run together with a null between them: one row of the wrong
    # width, beside as many "], [" as nulls elsewhere in the file.
    def literal_nulls_balanced_by_a_note(p):
        rows = p["counts"]["1"]
        p["counts"]["1"] = [[x for row in rows for x in (*row, None)][:-1]]
        p["note"] = ["], ["] * (len(rows) - 1)

    def literal_nulls_balanced_by_a_word(p):
        # The "], [" in a vocabulary word, which both tables hold: an even
        # number of literal nulls, after a first row kept.
        rows = p["counts"]["1"]
        assert len(rows) % 2 == 0
        p["counts"]["1"] = [rows[0], [x for row in rows[1:] for x in (*row, None)][:-1]]
        word = "x" + "], [" * ((len(rows) - 2) // 2)
        for table in p["vocabulary"].values():
            table[word] = table.pop("a")

    return [*_strict_rows(), *_strict_fields(), literal_nulls_balanced_by_a_note,
            literal_nulls_balanced_by_a_word, level_1_deleted, extra_level, no_counts,
            empty_level, null_level, short_row, negative_count, zero_count, target_out_of_range,
            target_is_start, context_out_of_range, fractional_id, end_id_mismatch, repeated_ngram,
            non_numeric_count, order_too_small, order_past_levels, discount_too_large,
            discount_zero, order_fractional, order_string, discount_string, end_id_fractional,
            word_id_fractional, frequency_fractional, frequency_boolean, word_id_boolean,
            word_id_integral_float, frequency_string, frequency_null, frequency_negative,
            frequency_missing, frequency_of_unknown_word]


def _strict_rows():
    """Count rows whose ids are not JSON integers or whose count is not a
    JSON number, which the type scan of each column refuses. Each but
    id_null keeps the row's value (the rows of CORRUPT_TEXTS' model), so
    the list-per-row route, which converted the rows with np.asarray,
    loaded them."""

    def count_string(p):
        p["counts"]["1"][0][-1] = "2.0"  # [0, 2.0]

    def count_boolean(p):
        p["counts"]["1"][2][-1] = True  # [2, 1.0]

    def id_boolean(p):
        p["counts"]["1"][1][0] = True  # [1, 2.0]

    def id_float(p):
        p["counts"]["1"][1][0] = 1.0

    def id_null(p):
        p["counts"]["2"][0][0] = None

    return [count_string, count_boolean, id_boolean, id_float, id_null]


def _strict_fields():
    """Files whose rows all hold JSON numbers of the right kind but which
    load_lm refuses and the list-per-row route loaded: a key save_lm does
    not write, and a level whose counts, each positive and finite, sum past
    the float range (NGramLM's context totals would be inf)."""

    def unknown_key(p):
        p["note"] = "hello"

    def unknown_vocabulary_key(p):
        p["vocabulary"]["note"] = {}

    def count_sum_overflow(p):
        for row in p["counts"]["3"]:
            row[-1] = 1e308

    return [unknown_key, unknown_vocabulary_key, count_sum_overflow]


CORRUPT_TEXTS = ["a b c d.", "d a b c."] * 3
# The text load_lm gives for some _corrupt() cases: each rule of the JSON
# encoding, and the model's rules that only lm.json can break (a level
# count other than order, an empty level).
JSON_RULE_TEXT = {
    "level_1_deleted": "2 count levels for order 3",
    "null_level": "level 2 must be a list of 3-item rows",
    "short_row": "level 2 must be a list of 3-item rows",
    "fractional_id": "level 1 holds an id that is not a JSON integer",
    "non_numeric_count": "level 1 holds a count that is not a JSON number",
    "target_out_of_range": r"level 2 holds an id outside -1\.\.\d+",
    "word_id_fractional": "vocabulary word_to_id holds a value that is not a JSON integer",
    "frequency_of_unknown_word": "vocabulary frequencies must be of word_to_id's words",
    "unknown_key": "unknown key 'note'",
    "empty_level": r"level 2 is empty or holds a key outside \[0, base\*\*2\)",
    "order_past_levels": "3 count levels for order 4",
}


class TestLoadLmValidation:
    @pytest.mark.parametrize("mutate", _corrupt(), ids=lambda f: f.__name__)
    def test_corrupt_count_tables_rejected(self, tmp_path, mutate):
        lm = zs.train_kn_lm(CORRUPT_TEXTS, order=3, discount=0.75)
        path = tmp_path / "lm.json"
        zs.save_lm(lm, path)
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))
        rule = JSON_RULE_TEXT.get(mutate.__name__, "")
        with pytest.raises(DataError, match=f"corrupted LM field: {rule}"):
            zs.load_lm(path)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "lm.json"
        path.write_text("[1, 2]")
        with pytest.raises(DataError, match="LM file must hold a JSON object"):
            zs.load_lm(path)


# -- lm.json IO oracles --------------------------------------------------------
# save_lm and load_lm as they were before the rows were formatted from the
# packed arrays and read as flat lists: a Python list per row, json over the
# rows, and np.asarray over them on load. They pin the bytes save_lm writes
# and the files load_lm accepts.


def oracle_save_lm(lm, path):
    rows = {}
    for k, (keys, counts) in lm.grams.items():
        ids = keys[:, None] // zs._pack_powers(k, lm.base) % lm.base - 1
        rows[str(k)] = [gram + [c] for gram, c in zip(ids.tolist(), counts.tolist())]
    payload = {
        "schema_version": zs.LM_SCHEMA_VERSION,
        "order": lm.order,
        "discount": lm.discount,
        "end_id": lm.end_id,
        "vocabulary": {
            "word_to_id": lm.vocabulary.word_to_id,
            "frequencies": lm.vocabulary.frequencies,
        },
        "counts": rows,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def oracle_load_lm(path):
    payload = load_json(path)
    if not isinstance(payload, dict):
        raise DataError(f"{path}: LM file must hold a JSON object")
    version = payload.get("schema_version")
    if version != zs.LM_SCHEMA_VERSION:
        raise DataError(f"{path}: unsupported schema_version {version!r}")
    try:
        vocabulary = payload["vocabulary"]
        word_to_id = {w: json_int(i) for w, i in vocabulary["word_to_id"].items()}
        frequencies = {w: json_int(c) for w, c in vocabulary["frequencies"].items()}
        if frequencies.keys() != word_to_id.keys() or min(frequencies.values()) < 0:
            raise ValueError("vocabulary frequencies must be integers >= 0 for word_to_id's words")
        vocab = Vocabulary(word_to_id=word_to_id, frequencies=frequencies)
        order = json_int(payload["order"])
        discount = json_float(payload["discount"])
        end_id = json_int(payload["end_id"])
        zs.check_parameters({"order": order, "discount": discount})
        if end_id != vocab.size:
            raise ValueError(f"end_id {end_id} differs from the vocabulary size {vocab.size}")
        tables = payload["counts"]
        if sorted(tables) != sorted(str(k) for k in range(1, order + 1)):
            raise ValueError(f"count levels {sorted(tables)} are not 1..{order}")
        base = zs._pack_base(order, end_id)
        grams = {}
        for k in range(1, order + 1):
            table = oracle_check_count_rows(k, tables[str(k)], end_id)
            keys, first = np.unique(zs._pack(table[:, :-1].astype(np.int64) + 1, base),
                                    return_index=True)
            if len(keys) != len(table):
                raise ValueError(f"level {k} repeats an n-gram")
            grams[k] = (keys, table[first, -1])
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, DataError) as exc:
        raise DataError(f"{path}: corrupted LM field: {exc}") from exc
    return zs.NGramLM(order=order, discount=discount, vocabulary=vocab, grams=grams,
                      end_id=end_id)


def oracle_check_count_rows(level, rows, end_id):
    table = np.asarray(rows, dtype=float)
    if table.ndim != 2 or table.shape[0] == 0 or table.shape[1] != level + 1:
        raise ValueError(f"level {level} must be a non-empty list of {level + 1}-item rows")
    context, target, count = table[:, :-2], table[:, -2], table[:, -1]
    ids = table[:, :-1]
    if not (np.all(ids == np.floor(ids))
            and np.all((context >= zs.START_ID) & (context < end_id))
            and np.all((target >= 0) & (target <= end_id))):
        raise ValueError(f"level {level} holds an id outside the vocabulary")
    if not np.all(np.isfinite(count) & (count > 0)):
        raise ValueError(f"level {level} holds a count that is not positive and finite")
    return table


def saved_bytes(save, lm):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lm.json"
        save(lm, path)
        return path.read_bytes()


def loaded_or_refused(load, path):
    """*load*(path), or the DataError it raised."""
    try:
        return load(path)
    except DataError as exc:
        return exc


def assert_same_model(lm, other):
    assert (lm.order, lm.discount, lm.end_id) == (other.order, other.discount, other.end_id)
    assert lm.vocabulary == other.vocabulary
    for k in range(1, lm.order + 1):
        for array, other_array in zip(lm.grams[k] + lm.contexts[k],
                                      other.grams[k] + other.contexts[k]):
            assert array.dtype == other_array.dtype
            assert np.array_equal(array, other_array)


def strict_rows_violation(payload):
    """True when a count row of *payload* holds an id that is not a JSON
    integer or a count that is not a JSON number, or when a level's counts
    sum past the float range."""
    levels = payload["counts"].values()
    if any(any(type(i) is not int for i in row[:-1]) or type(row[-1]) not in (int, float)
           for rows in levels for row in rows):
        return True
    return any(math.isinf(sum(float(row[-1]) for row in rows)) for rows in levels)


LM_WORDS = st.sampled_from(["a", "b", "c", "the", "x1", "don't", "İstanbul", "é", ",", "!",
                            "?", ";"])
LM_CORPORA = st.lists(st.lists(LM_WORDS, min_size=1, max_size=10), min_size=1, max_size=8)
# One sentence of 11 symbols lets every order up to 11 train; order 11
# writes a level "10", which json's key order puts before "2".
LONG_SENTENCE = "a b c a b c a b c a."
LAYOUTS = {"default": {}, "compact": {"separators": (",", ":")}, "indent": {"indent": 1}}
ROW_VALUES = st.one_of(
    st.integers(-3, 12), st.sampled_from([0.5, 1.0, 2.5, -1.0, 1e308, float("inf"), float("nan")]),
    st.sampled_from(["1", "2.0", "many", "", True, False, None, [], [1], {}, {"a": 1}]),
)
EDITS = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 99), st.integers(0, 99), st.integers(0, 9),
              ROW_VALUES),
    st.tuples(st.sampled_from(["drop_row", "repeat_row", "pop"]), st.integers(0, 99),
              st.integers(0, 99)),
    st.tuples(st.just("append"), st.integers(0, 99), st.integers(0, 99), ROW_VALUES),
)
VOCABULARY_VALUES = st.one_of(st.integers(-2, 30),
                              st.sampled_from([True, False, 1.0, 2.5, "3", None, [], {}]))
IO_LM = zs.train_kn_lm(["the cat sat on the mat.", "a dog, a cat!", "the end?", LONG_SENTENCE],
                       order=3, discount=0.75)


def edited_payload(edits):
    """IO_LM's saved payload with *edits* made to its count rows."""
    payload = json.loads(saved_bytes(zs.save_lm, IO_LM))
    for op, level, row, *args in edits:
        rows = payload["counts"][str(1 + level % IO_LM.order)]
        if not rows:
            continue
        i = row % len(rows)
        if not rows[i] and op in ("set", "pop"):
            continue
        if op == "set":
            position, value = args
            rows[i][position % len(rows[i])] = value
        elif op == "drop_row":
            del rows[i]
        elif op == "repeat_row":
            rows.insert(i, list(rows[i]))
        elif op == "pop":
            rows[i].pop()
        else:
            rows[i].append(args[0])
    return payload


# Row and entry counts at and beside the edges of save_lm's blocks.
BLOCK_EDGES = [0, 1, 2, zs.ROW_BLOCK - 1, zs.ROW_BLOCK, zs.ROW_BLOCK + 1]
# Word stems of several scripts, a lone surrogate among them; json.dumps
# escapes every code point past ASCII.
WORD_STEMS = ["w", "é", "日本", "İstanbul", "don't", "\ud800", "𝔘", ","]


@st.composite
def streamed_models(draw, order):
    """What save_lm reads of an *order* model whose levels and vocabulary
    tables have row counts at and beside the block edges: sorted distinct
    keys within each level's key range and counts of several formats. A
    stand-in, so that a level may be empty; an order of 10 or more names a
    level "10", which json's key order puts before "2", and keeps the
    vocabulary small enough for its keys to pack."""
    sizes = [1, 7, 40] if order >= 10 else [1, 7] + [n - 1 for n in BLOCK_EDGES[3:]]
    n_words = draw(st.sampled_from(sizes))  # UNK makes one entry more
    # Bulk draws come from a seeded generator: hypothesis data would overrun.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = [f"{stem}{i}" for i, stem in enumerate(rng.choice(WORD_STEMS, n_words))] + [UNK]
    vocab = Vocabulary(word_to_id=dict(zip(words, rng.permutation(len(words)).tolist())),
                       frequencies=dict(zip(words, rng.integers(0, 10**6, len(words)).tolist())))
    base = vocab.size + 2
    grams = {}
    for k in range(1, order + 1):
        rows = draw(st.one_of(st.sampled_from(BLOCK_EDGES), st.integers(0, 30)))
        rows = min(rows, base**k)
        keys = np.sort(rng.choice(base**k, size=rows, replace=False)).astype(np.int64)
        counts = rng.choice([1.0, 2.0, 3.0, 0.5, 2.5, 1e16, 1e-5, 7.25e-300], size=rows)
        grams[k] = (keys, counts)
    return SimpleNamespace(order=order, discount=draw(st.floats(0.01, 0.99)), vocabulary=vocab,
                           grams=grams, end_id=vocab.size, base=base)


class TestLmJsonOracles:
    @settings(max_examples=60, deadline=None)
    @given(corpus=LM_CORPORA, order=st.sampled_from([2, 3, 4, 11]),
           discount=st.floats(min_value=0.01, max_value=0.99))
    def test_save_bytes_equal_oracle_for_trained_models(self, corpus, order, discount):
        lm = zs.train_kn_lm([" ".join(s) + "." for s in corpus] + [LONG_SENTENCE],
                            order=order, discount=discount)
        assert saved_bytes(zs.save_lm, lm) == saved_bytes(oracle_save_lm, lm)

    @pytest.mark.parametrize("order", [2, 3, 10, 11])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_streamed_bytes_equal_json_dumps_at_block_edges(self, order, data):
        lm = data.draw(streamed_models(order))
        assert saved_bytes(zs.save_lm, lm) == saved_bytes(oracle_save_lm, lm)

    def test_save_peak_memory_at_most_2_5_times_the_file(self, tmp_path):
        lm = zs.train_kn_lm(MEMORY_TEXTS, order=3, discount=0.75)
        peak = traced_peak(zs.save_lm, lm, tmp_path / "lm.json")
        size = (tmp_path / "lm.json").stat().st_size
        assert peak <= 2.5 * size, f"{peak / size:.2f} times the file"

    @settings(max_examples=60, deadline=None)
    @given(corpus=LM_CORPORA, order=st.sampled_from([2, 3, 11]),
           edits=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from([2.5, 1e16, 1e-5])),
                          min_size=1, max_size=6))
    def test_save_bytes_equal_oracle_for_loaded_models_with_edited_counts(
            self, corpus, order, edits):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "lm.json"
            zs.save_lm(zs.train_kn_lm([" ".join(s) + "." for s in corpus] + [LONG_SENTENCE],
                                      order=order), path)
            lm = zs.load_lm(path)
            for i, value in edits:
                counts = lm.grams[1 + i % order][1]
                counts[i % len(counts)] = value
            written = saved_bytes(zs.save_lm, lm)
            assert written == saved_bytes(oracle_save_lm, lm)
            path.write_bytes(written)
            assert_same_model(zs.load_lm(path), oracle_load_lm(path))

    @settings(max_examples=150, deadline=None)
    @given(edits=st.lists(EDITS, max_size=3), layout=st.sampled_from(sorted(LAYOUTS)))
    def test_load_accepts_and_refuses_as_oracle(self, edits, layout):
        """Whatever the layout, load_lm accepts the files the list-per-row
        route accepted, with equal tables, save those whose rows hold a
        value that is not a JSON number of the right kind (a string, a
        boolean, an integral float as id) or whose level counts sum past
        the float range, and refuses every other file: a row edited to
        another width or with a null in it is refused by its width or its
        column's type."""
        payload = edited_payload(edits)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "lm.json"
            path.write_text(json.dumps(payload, **LAYOUTS[layout]))
            lm = loaded_or_refused(zs.load_lm, path)
            with np.errstate(over="ignore"):
                oracle = loaded_or_refused(oracle_load_lm, path)
        if isinstance(lm, zs.NGramLM):
            assert isinstance(oracle, zs.NGramLM), oracle
            assert_same_model(lm, oracle)
        elif isinstance(oracle, zs.NGramLM):
            assert strict_rows_violation(payload)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("mutate", _corrupt(), ids=lambda f: f.__name__)
    def test_corrupt_files_refused_in_every_layout(self, tmp_path, layout, mutate):
        payload = json.loads(saved_bytes(zs.save_lm, zs.train_kn_lm(CORRUPT_TEXTS, order=3)))
        mutate(payload)
        path = tmp_path / "lm.json"
        path.write_text(json.dumps(payload, **LAYOUTS[layout]))
        with pytest.raises(DataError, match="corrupted LM field"):
            zs.load_lm(path)
        oracle_loads = {f.__name__ for f in (*_strict_rows(), *_strict_fields())} - {"id_null"}
        if mutate.__name__ in oracle_loads:
            with np.errstate(over="ignore"):
                assert isinstance(oracle_load_lm(path), zs.NGramLM)
        else:
            with pytest.raises(DataError, match="corrupted LM field"):
                oracle_load_lm(path)

    @settings(max_examples=100, deadline=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(["word_to_id", "frequencies"]),
                                     st.integers(0, 99), VOCABULARY_VALUES), max_size=3))
    def test_vocabulary_accepted_and_refused_as_oracle(self, edits):
        """One type scan per vocabulary table accepts and refuses what a
        json_int call per value did, and keeps the same dicts."""
        payload = json.loads(saved_bytes(zs.save_lm, IO_LM))
        for name, i, value in edits:
            table = payload["vocabulary"][name]
            table[sorted(table)[i % len(table)]] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "lm.json"
            path.write_text(json.dumps(payload))
            lm = loaded_or_refused(zs.load_lm, path)
            oracle = loaded_or_refused(oracle_load_lm, path)
        assert type(lm) is type(oracle)
        if isinstance(lm, zs.NGramLM):
            assert_same_model(lm, oracle)
            tables = (lm.vocabulary.word_to_id, lm.vocabulary.frequencies)
            assert all(type(v) is int for table in tables for v in table.values())

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_layouts_load_alike(self, tmp_path, layout):
        path = tmp_path / "lm.json"
        path.write_text(json.dumps(json.loads(saved_bytes(zs.save_lm, IO_LM)),
                                   **LAYOUTS[layout]))
        assert_same_model(zs.load_lm(path), IO_LM)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("word", ["x], [y", "x, null, y"])
    def test_row_break_in_a_vocabulary_word_loads_as_oracle(self, tmp_path, layout, word):
        """A vocabulary word holding "], [" (the row break of save_lm's
        layout) or ", null, " is a word like any other."""
        payload = json.loads(saved_bytes(zs.save_lm, IO_LM))
        for table in payload["vocabulary"].values():
            table[word] = table.pop("cat")
        path = tmp_path / "lm.json"
        path.write_text(json.dumps(payload, **LAYOUTS[layout]))
        lm = zs.load_lm(path)
        assert lm.vocabulary.word_to_id[word] >= 0
        assert_same_model(lm, oracle_load_lm(path))

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_literal_null_is_no_row_break(self, tmp_path, layout):
        # Level 1 as one list of values with a null between rows: one row
        # of the wrong width.
        payload = json.loads(saved_bytes(zs.save_lm, IO_LM))
        rows = payload["counts"]["1"]
        payload["counts"]["1"] = [[x for row in rows for x in (*row, None)][:-1]]
        path = tmp_path / "lm.json"
        path.write_text(json.dumps(payload, **LAYOUTS[layout]))
        with pytest.raises(DataError, match="level 1 must be a list of 2-item rows"):
            zs.load_lm(path)


# -- lm.bin, the binary copy of lm.json ------------------------------------------


def write_pair(lm, directory: Path, copy=None) -> Path:
    """save_lm(lm) to lm.json in *directory*, and save_lm_bin of *copy*
    (default *lm*) as its lm.bin; the lm.json path."""
    json_path = directory / "lm.json"
    zs.save_lm(lm, json_path)
    zs.save_lm_bin(lm if copy is None else copy, directory / "lm.bin", json_path)
    return json_path


def resealed(data: bytes) -> bytes:
    """*data* with its second digest made that of its bytes after the digests."""
    return data[:32] + hashlib.sha256(data[64:]).digest() + data[64:]


def assert_json_fallback(json_path: Path):
    """lm.bin beside *json_path* is missing or refused, and load_lm_fast
    gives what load_lm gives."""
    with pytest.raises((OSError, ValueError, DataError)):
        zs._read_lm_bin(json_path.with_suffix(".bin"), json_path)
    loaded = zs.load_lm_fast(json_path)
    assert_same_model(loaded, zs.load_lm(json_path))
    assert list(loaded.vocabulary.word_to_id.items()) == \
        list(zs.load_lm(json_path).vocabulary.word_to_id.items())


def edited_copy(lm, **fields):
    """What save_lm_bin reads of *lm*, with *fields* in place of its own:
    a model NGramLM itself might not build."""
    return SimpleNamespace(**{name: getattr(lm, name) for name in
                              ("order", "discount", "vocabulary", "grams", "end_id")} | fields)


def edited_grams(lm, k, edit):
    """lm.grams with level *k*'s (keys, counts) replaced by edit(keys, counts),
    given copies."""
    keys, counts = lm.grams[k]
    return {**lm.grams, k: edit(keys.copy(), counts.copy())}


def appended(key):
    """An edit that appends *key*(keys) with a count of 1."""
    return lambda keys, counts: (np.append(keys, key(keys)), np.append(counts, 1.0))


def first_key(key):
    """An edit that sets the first key to *key*(keys)."""
    return lambda keys, counts: (np.concatenate([[key(keys)], keys[1:]]), counts)


KEY_RANGE = r"level \d is empty or holds a key outside \[0, base\*\*\d\)"


class RepeatingCat(dict):
    """A word table whose words, iterated, name "cat" twice."""

    def __iter__(self):
        yield from super().__iter__()
        yield "cat"


class TestLmBin:
    @settings(max_examples=60, deadline=None)
    @given(corpus=LM_CORPORA, order=st.sampled_from([2, 3, 4]),
           discount=st.floats(min_value=0.01, max_value=0.99))
    def test_copy_loads_the_model_load_lm_loads(self, corpus, order, discount):
        """Field for field: bit-equal arrays of the same dtypes, vocabulary
        dicts equal and in lm.json's key order, no training perplexity and
        no scoring pass."""
        lm = zs.train_kn_lm([" ".join(s) + "." for s in corpus] + [LONG_SENTENCE, "zz ?"],
                            order=order, discount=discount)
        with tempfile.TemporaryDirectory() as tmp:
            json_path = write_pair(lm, Path(tmp))
            copy = zs._read_lm_bin(json_path.with_suffix(".bin"), json_path)
            loaded = zs.load_lm(json_path)
        assert_same_model(copy, loaded)
        assert np.array_equal(copy.unigram_probs, loaded.unigram_probs)
        for table in ("word_to_id", "frequencies"):
            items = list(getattr(copy.vocabulary, table).items())
            assert items == list(getattr(loaded.vocabulary, table).items())
            assert all(type(v) is int for _, v in items)
        assert copy.vocabulary.unk_id == loaded.vocabulary.unk_id
        assert (copy.train_perplexity, copy.scoring_passes) == (None, 0)

    def test_words_of_any_code_points_read_back(self, tmp_path):
        """Multi-byte, combining and lone-surrogate surfaces keep their code
        points, as json keeps them."""
        lm = zs.train_kn_lm(["a b.", "İstanbul é \ud800x 𝔘 a."], order=3)
        assert any("\ud800" in w for w in lm.vocabulary.word_to_id)
        json_path = write_pair(lm, tmp_path)
        copy = zs._read_lm_bin(json_path.with_suffix(".bin"), json_path)
        assert list(copy.vocabulary.word_to_id.items()) == \
            list(zs.load_lm(json_path).vocabulary.word_to_id.items())

    def test_load_lm_fast_reads_the_copy(self, tmp_path, monkeypatch):
        json_path = write_pair(IO_LM, tmp_path)
        expected = zs.load_lm(json_path)
        monkeypatch.setattr(zs, "load_lm", lambda path: pytest.fail("lm.json was parsed"))
        assert_same_model(zs.load_lm_fast(json_path), expected)

    @pytest.mark.parametrize("damage", [
        lambda p: p.unlink(),
        lambda p: p.write_bytes(b""),
        lambda p: p.write_bytes(p.read_bytes()[:100]),
        lambda p: p.write_bytes(p.read_bytes()[:-1]),
        lambda p: p.write_bytes(p.read_bytes() + b"\0"),
        lambda p: p.write_bytes(resealed(p.read_bytes() + bytes(8))),
        lambda p: p.write_bytes(resealed(p.read_bytes()[:-8])),
    ], ids=["missing", "empty", "first_100_bytes", "last_byte_cut", "byte_appended",
            "resealed_8_bytes_appended", "resealed_8_bytes_cut"])
    def test_missing_or_truncated_copy_falls_back(self, tmp_path, damage):
        json_path = write_pair(IO_LM, tmp_path)
        damage(json_path.with_suffix(".bin"))
        assert_json_fallback(json_path)

    def test_every_flipped_byte_falls_back(self, tmp_path):
        json_path = write_pair(IO_LM, tmp_path)
        path = json_path.with_suffix(".bin")
        data = path.read_bytes()
        for at in range(len(data)):
            path.write_bytes(data[:at] + bytes([data[at] ^ 0x10]) + data[at + 1:])
            with pytest.raises(ValueError, match="not the copy"):
                zs._read_lm_bin(path, json_path)
        path.write_bytes(data[:40] + bytes([data[40] ^ 1]) + data[41:])
        assert_json_fallback(json_path)

    def test_stale_copy_falls_back(self, tmp_path):
        """lm.json rewritten from another model beside the old lm.bin."""
        json_path = write_pair(IO_LM, tmp_path)
        zs.save_lm(zs.train_kn_lm(CORRUPT_TEXTS, order=3), json_path)
        assert_json_fallback(json_path)
        assert zs.load_lm_fast(json_path).vocabulary.size != IO_LM.vocabulary.size

    def test_copy_of_an_edited_lm_json_falls_back(self, tmp_path):
        json_path = write_pair(IO_LM, tmp_path)
        json_path.write_text(json_path.read_text().replace('"discount": 0.75',
                                                           '"discount": 0.5'))
        assert_json_fallback(json_path)
        assert zs.load_lm_fast(json_path).discount == 0.5

    @pytest.mark.parametrize("edit, refused", [
        # Keys one past the level's key range or below 0, each still sorted
        # and unique, or keys out of order: no lm.json packs to these (the
        # rules lm.json can break too are MODEL_RULES).
        (lambda lm: {"grams": edited_grams(lm, 2, appended(lambda k: lm.base**2 + 1))},
         KEY_RANGE),
        (lambda lm: {"grams": edited_grams(lm, 1, first_key(lambda k: -1))}, KEY_RANGE),
        (lambda lm: {"grams": edited_grams(lm, 3, lambda k, c: (k[::-1], c))},
         "level 3 repeats an n-gram or is out of key order"),
        (lambda lm: {"discount": float("nan")}, "discount must be"),
        (lambda lm: {"end_id": lm.end_id + 1, "vocabulary": SimpleNamespace(
            word_to_id=RepeatingCat(lm.vocabulary.word_to_id),
            frequencies=lm.vocabulary.frequencies)}, "a vocabulary word repeats"),
    ], ids=["past_key_range", "negative_key", "unsorted_keys", "discount_nan", "repeated_word"])
    @pytest.mark.filterwarnings("error")  # the fallback prints no numpy warning
    def test_copy_with_valid_digests_that_load_lm_would_refuse_falls_back(self, tmp_path,
                                                                          edit, refused):
        json_path = write_pair(IO_LM, tmp_path, copy=edited_copy(IO_LM, **edit(IO_LM)))
        with pytest.raises((ValueError, DataError), match=refused):
            zs._read_lm_bin(json_path.with_suffix(".bin"), json_path)
        assert_json_fallback(json_path)

    def test_header_sizes_at_odds_with_the_file_fall_back(self, tmp_path):
        json_path = write_pair(IO_LM, tmp_path)
        path = json_path.with_suffix(".bin")
        data = path.read_bytes()
        for field in range(4):  # order, end_id, words, text bytes
            at = 72 + 8 * field
            for value in (-1, 0, 2**62, int.from_bytes(data[at:at + 8], "little") + 1):
                path.write_bytes(resealed(data[:at] + value.to_bytes(8, "little", signed=True)
                                          + data[at + 8:]))
                with pytest.raises((ValueError, DataError)):
                    zs._read_lm_bin(path, json_path)
        path.write_bytes(resealed(data[:64] + b"MGTLM\0b1" + data[72:]))
        assert_json_fallback(json_path)

    def test_word_lengths_at_odds_with_the_text_fall_back(self, tmp_path):
        json_path = write_pair(IO_LM, tmp_path)
        path = json_path.with_suffix(".bin")
        data = path.read_bytes()
        n = IO_LM.vocabulary.size
        at = 64 + zs.LM_BIN_HEADER.size + 8 * IO_LM.order + 8 * (n - 1)  # the last length
        for change in (-1, 1):
            length = int.from_bytes(data[at:at + 8], "little") + change
            path.write_bytes(resealed(data[:at] + length.to_bytes(8, "little") + data[at + 8:]))
            with pytest.raises(ValueError, match="word lengths differ"):
                zs._read_lm_bin(path, json_path)
        assert_json_fallback(json_path)

    def test_rewrite_gives_the_same_bytes(self, tmp_path):
        first = write_pair(IO_LM, tmp_path).with_suffix(".bin").read_bytes()
        (tmp_path / "again").mkdir()
        assert write_pair(IO_LM, tmp_path / "again").with_suffix(".bin").read_bytes() == first


# -- one model contract for both encodings ---------------------------------------


def first(value):
    """A counts edit that sets the first count (the first row of the level
    in lm.json, whose rows are in key order) to *value*."""
    return lambda counts: np.concatenate([[value], counts[1:]])


def count_rule(k, edit, rule):
    """A MODEL_RULES row whose level-*k* counts are edit(counts)."""
    def edit_payload(p):
        rows = p["counts"][str(k)]
        for row, count in zip(rows, edit(np.array([row[-1] for row in rows])).tolist()):
            row[-1] = count

    def fields(lm):
        return {"grams": edited_grams(lm, k, lambda keys, counts: (keys, edit(counts)))}

    return edit_payload, fields, rule


def vocabulary_rule(edit, rule):
    """A MODEL_RULES row whose (word_to_id, frequencies) are edit(copies of both)."""
    def edit_payload(p):
        tables = p["vocabulary"]
        tables["word_to_id"], tables["frequencies"] = edit(tables["word_to_id"],
                                                           tables["frequencies"])

    def fields(lm):
        word_to_id, frequencies = edit(dict(lm.vocabulary.word_to_id),
                                       dict(lm.vocabulary.frequencies))
        return {"vocabulary": SimpleNamespace(word_to_id=word_to_id, frequencies=frequencies)}

    return edit_payload, fields, rule


def renamed_unk(*tables):
    return tuple({("<nounk>" if w == UNK else w): v for w, v in table.items()} for table in tables)


# Each rule of zeroshot._model_from_arrays broken once: as an edit of the
# lm.json payload, as the fields of an lm.bin copy (edited_copy) that break
# it alike, and the rule text both readers give.
MODEL_RULES = {
    "target_start": (
        lambda p: p["counts"]["2"][0].__setitem__(-2, zs.START_ID),
        lambda lm: {"grams": edited_grams(lm, 2, first_key(lambda k: k[0] - k[0] % lm.base))},
        "level 2 holds START as a target"),
    "context_end": (
        lambda p: p["counts"]["3"][0].__setitem__(0, p["end_id"]),
        lambda lm: {"grams": edited_grams(lm, 3, appended(
            lambda k: (lm.base - 1) * lm.base**2 + 1))},
        "level 3 holds END in a context"),
    "repeated_ngram": (
        lambda p: p["counts"]["1"].append(p["counts"]["1"][-1]),
        lambda lm: {"grams": edited_grams(lm, 1, appended(lambda k: k[-1]))},
        "level 1 repeats an n-gram or is out of key order"),
    "zero_count": count_rule(2, first(0.0), "level 2 holds a count that is not positive"),
    "negative_count": count_rule(2, first(-1.0), "level 2 holds a count that is not positive"),
    "nan_count": count_rule(1, first(np.nan), "level 1 holds a count that is not positive"),
    "inf_count": count_rule(3, first(np.inf), "level 3 holds a count that is not positive"),
    "count_sum_overflow": count_rule(3, lambda c: c * 0 + 1e308,
                                     "level 3 counts sum past the float range"),
    "ids_not_dense": vocabulary_rule(lambda w, f: (dict.fromkeys(w, 0), f),
                                     "vocabulary ids must be contiguous from 0"),
    "no_unk": vocabulary_rule(renamed_unk, "vocabulary must contain UNK"),
    "negative_frequency": vocabulary_rule(lambda w, f: (w, {**f, "a": -1}),
                                          "vocabulary frequencies must be >= 0"),
    "end_id_mismatch": (lambda p: p.__setitem__("end_id", p["end_id"] + 1),
                        lambda lm: {"end_id": lm.end_id + 1},
                        r"end_id \d+ differs from the vocabulary size \d+"),
    "order_1": (lambda p: p.__setitem__("order", 1),
                lambda lm: {"order": 1, "grams": {1: lm.grams[1]}},
                r"order must be at least 2, got 1"),
    "discount_1.5": (lambda p: p.__setitem__("discount", 1.5), lambda lm: {"discount": 1.5},
                     r"discount must be in \(0, 1\), got 1.5"),
}


class TestModelRules:
    """lm.json and lm.bin are two encodings of one model, and one function
    holds the model's rules: a rule broken in either encoding is refused
    with the same text, and load_lm_fast reads lm.json in place of a copy
    that breaks one."""

    @pytest.mark.parametrize("edit_payload, fields, rule", list(MODEL_RULES.values()),
                             ids=list(MODEL_RULES))
    @pytest.mark.filterwarnings("error")  # neither reader prints a numpy warning
    def test_both_readers_refuse_with_one_rule_text(self, tmp_path, edit_payload, fields,
                                                    rule):
        payload = json.loads(saved_bytes(zs.save_lm, IO_LM))
        edit_payload(payload)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=rule) as from_json:
            zs.load_lm(edited)
        json_path = write_pair(IO_LM, tmp_path, copy=edited_copy(IO_LM, **fields(IO_LM)))
        with pytest.raises(DataError, match=rule) as from_bin:
            zs._read_lm_bin(json_path.with_suffix(".bin"), json_path)
        assert str(from_json.value) == f"{edited}: corrupted LM field: {from_bin.value}"
        assert_json_fallback(json_path)
