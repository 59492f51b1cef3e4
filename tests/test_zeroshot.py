import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgtdetect import zeroshot as zs
from mgtdetect.errors import DataError, ModelFormatError
from mgtdetect.text_core import build_vocab, is_word_surface, tokenize

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
        assert lm.counts[2][(va, vb)] == 2
        assert lm.counts[2][(vb, va)] == 1
        assert lm.prob((va,), vb) == pytest.approx(0.8046875, abs=1e-9)
        assert lm.prob((vb,), va) == pytest.approx(0.484375, abs=1e-9)
        assert lm.prob((vb,), lm.end_id) == pytest.approx(0.359375, abs=1e-9)

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
            return lm.prob(ctx, tgt)

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
            total = sum(lm.prob(ctx, t) for t in range(lm.event_size))
            assert total == pytest.approx(1.0, abs=1e-6)
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
        ppl = zs.perplexity(lm, texts)
        assert 1.0 < ppl < 5.0
        assert ppl < lm.event_size  # uniform-model perplexity

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


def log_prob(lm, body):
    return lm.score_texts([body])[0]


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
        assert lm.score_texts(["a b c. b c a."])[1] == 10
        assert lm.score_texts(["a b c.", "b c a."])[:2] == (both, 10)

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
        assert lm.score_texts(["..."])[2] is False
        assert lm.score_texts(["... a"])[2] is True

    @settings(max_examples=60, deadline=None)
    @given(st.text(min_size=1, max_size=40))
    def test_word_flag_matches_word_surface_check(self, text):
        lm = zs.train_kn_lm(["a b c."] * 5, order=2, discount=0.75)
        expected = any(is_word_surface(t.surface) for t in tokenize(text))
        assert lm.score_texts([text])[2] == expected


def word_pool(texts):
    return build_vocab(texts, min_count=1)


class TestPerturb:
    POOL_TEXTS = ["apple banana cherry date elder fig grape melon peach plum"] * 3

    def test_mask_zero_is_identity(self):
        doc = make_doc("one two three.")
        cfg = zs.PerturbConfig(pool=word_pool(self.POOL_TEXTS), mask_fraction=0.0, seed=1, k=1)
        assert zs.perturb(doc, cfg).body == doc.body

    def test_floor_rule_replaces_exact_count(self):
        doc = make_doc("apple banana cherry date elder fig grape melon peach plum")
        cfg = zs.PerturbConfig(
            pool=word_pool(self.POOL_TEXTS), mask_fraction=0.3, seed=5, k=1,
            band_octaves=None,
        )
        out = zs.perturb(doc, cfg)
        orig = doc.body.split()
        new = out.body.split()
        assert len(new) == len(orig)
        assert sum(a != b for a, b in zip(orig, new)) == 3

    def test_deterministic(self):
        doc = make_doc("apple banana cherry date elder fig grape melon.")
        cfg = zs.PerturbConfig(pool=word_pool(self.POOL_TEXTS), mask_fraction=0.5, seed=9, k=1)
        assert zs.perturb(doc, cfg).body == zs.perturb(doc, cfg).body

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
        out = zs.perturb(doc, cfg)
        orig_tokens = tokenize(doc.body)
        new_tokens = tokenize(out.body)
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
        cfg = zs.PerturbConfig(pool=lm.vocabulary, mask_fraction=0.25, seed=4, k=1,
                               band_octaves=None)
        score = zs.single_revise_score(lm, doc, cfg)
        lp_orig = zs.per_token_log_prob(lm, doc)
        variant = zs.perturb(doc, zs.PerturbConfig(
            pool=lm.vocabulary, mask_fraction=0.25, seed=cfg.seed + 1, k=1,
            band_octaves=None,
        ))
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
    def test_above_threshold_is_machine(self):
        score = zs.CurvatureScore(d=2.0, logp_original=-1, logp_perturbed_mean=-2,
                                  logp_perturbed_std=0.5, k_used=3)
        assert zs.classify_curvature(score, threshold=1.0) == 1

    def test_boundary_ties_to_machine(self):
        score = zs.CurvatureScore(d=1.0, logp_original=-1, logp_perturbed_mean=-2,
                                  logp_perturbed_std=0.5, k_used=3)
        assert zs.classify_curvature(score, threshold=1.0) == 1

    def test_below_threshold_is_human(self):
        score = zs.CurvatureScore(d=0.2, logp_original=-1, logp_perturbed_mean=-2,
                                  logp_perturbed_std=0.5, k_used=3)
        assert zs.classify_curvature(score, threshold=1.0) == 0


class TestSamplingAndPersistence:
    def test_sampling_deterministic(self):
        lm = zs.train_kn_lm(["a b c d.", "b c d a.", "c d a b."] * 5,
                            order=3, discount=0.75)
        t1 = zs.sample_document(lm, seed=42, max_tokens=20, sentences=2)
        t2 = zs.sample_document(lm, seed=42, max_tokens=20, sentences=2)
        assert t1 == t2 and t1

    def test_save_load_round_trip(self, tmp_path):
        texts = ["a b c d.", "d a b c.", "c b a d."] * 4
        lm = zs.train_kn_lm(texts, order=3, discount=0.75)
        path = tmp_path / "lm.json"
        zs.save_lm(lm, path)
        loaded = zs.load_lm(path)
        for body in ("a b c d.", "zz c a.", "d d d."):
            doc = make_doc(body)
            assert loaded.score_texts([body]) == lm.score_texts([body])
            assert zs.per_token_log_prob(loaded, doc) == zs.per_token_log_prob(lm, doc)
        assert loaded.counts == lm.counts
        assert loaded.context_totals == lm.context_totals
        assert loaded.context_distinct == lm.context_distinct

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
        # A copy with another band needs, and gets, its own sampler.
        zs.perturb(make_doc(self.BODIES[0]), replace(cfg, band_octaves=None))
        assert len(built) == 2
        assert built[1][1] is None

    def test_wordless_pool_raises_only_when_a_word_is_replaced(self):
        pool = build_vocab([". , ! ?"], min_count=1)
        cfg = zs.PerturbConfig(pool=pool, mask_fraction=0.5, seed=1, k=1)
        assert zs.perturb(make_doc("a."), cfg).body == "a."  # floor(0.5) = 0
        with pytest.raises(DataError):
            zs.perturb(make_doc("a b c d."), cfg)
        with pytest.raises(DataError):
            zs.perturb(make_doc("a b c d."), cfg)


def _corrupt():
    def level_1_deleted(p):
        del p["counts"]["1"]

    def extra_level(p):
        p["counts"]["4"] = p["counts"]["3"]

    def no_counts(p):
        p["counts"] = {}

    def empty_level(p):
        p["counts"]["2"] = []

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

    return [level_1_deleted, extra_level, no_counts, empty_level, short_row,
            negative_count, zero_count, target_out_of_range, target_is_start,
            context_out_of_range, fractional_id, end_id_mismatch, repeated_ngram,
            non_numeric_count, order_too_small]


class TestLoadLmValidation:
    @pytest.mark.parametrize("mutate", _corrupt(), ids=lambda f: f.__name__)
    def test_corrupt_count_tables_rejected(self, tmp_path, mutate):
        lm = zs.train_kn_lm(["a b c d.", "d a b c."] * 3, order=3, discount=0.75)
        path = tmp_path / "lm.json"
        zs.save_lm(lm, path)
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError):
            zs.load_lm(path)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "lm.json"
        path.write_text("[1, 2]")
        with pytest.raises(ModelFormatError):
            zs.load_lm(path)
