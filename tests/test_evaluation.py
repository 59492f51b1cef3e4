import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgtdetect import classifiers, embeddings, evaluation, sections, zeroshot
from mgtdetect.errors import DataError
from mgtdetect.evaluation import (
    AdversarialTransform,
    adversarial_transform,
    auroc,
    metrics,
    robustness_report,
    youden_threshold,
)
from mgtdetect.ingest import DetectorScorer, Document, Label
from mgtdetect.text_core import token_spans, tokenize, word_tokens

from conftest import make_corpus, make_doc


def brute_force_auroc(scores, labels):
    """Exhaustive pairwise comparison: win 1, tie 0.5."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(
        1.0 if p > n else (0.5 if p == n else 0.0) for p in pos for n in neg
    )
    return wins / (len(pos) * len(neg))


class TestConfusion:
    def test_hand_count(self):
        cm = metrics([1, 1, 0], [0.0] * 3, [1, 1, 0])["confusion"]
        assert (cm["tp"], cm["tn"], cm["fp"], cm["fn"]) == (2, 1, 0, 0)

    def test_total_inversion(self):
        cm = metrics([0, 0, 1], [0.0] * 3, [1, 1, 0])["confusion"]
        assert (cm["tp"], cm["tn"]) == (0, 0)
        assert (cm["fp"], cm["fn"]) == (1, 2)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            metrics([], [], [])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            metrics([1], [0.0, 0.0], [1, 0])

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=2,
                          max_size=60).filter(lambda pairs: len({y for _, y in pairs}) == 2))
    def test_counts_and_ratios_match_their_definitions(self, pairs):
        predictions = [p for p, _ in pairs]
        labels = [y for _, y in pairs]
        report = metrics(predictions, [float(p) for p in predictions], labels)
        tp, fp, fn, tn = (pairs.count(cell) for cell in ((1, 1), (1, 0), (0, 1), (0, 0)))
        assert report["confusion"] == {"tp": tp, "fp": fp, "fn": fn, "tn": tn}
        assert report["n"] == len(pairs)
        assert report["precision"] == (tp / (tp + fp) if tp + fp else 0.0)
        assert report["recall"] == (tp / (tp + fn) if tp + fn else 0.0)
        assert report["f1"] == (2 * tp / (2 * tp + fp + fn) if tp else 0.0)
        assert report["accuracy"] == (tp + tn) / len(pairs)
        # F1 = 2PR / (P + R), and P + R = 0 exactly when tp = 0.
        assert report["flags"] == (["precision_zero_denominator"] * (tp + fp == 0)
                                   + ["recall_zero_denominator"] * (tp + fn == 0)
                                   + ["f1_zero_denominator"] * (tp == 0))


class TestMetrics:
    def test_f1_exact_for_symmetric_097(self):
        # tp=97, fp=3, fn=3 gives P = R = 0.97 and F1 = 194/200 = 0.97.
        predictions = [1] * 97 + [0] * 3 + [1] * 3 + [0] * 97
        scores = [1.0] * 100 + [0.0] * 100
        labels = [1] * 100 + [0] * 100
        report = metrics(predictions, scores, labels)
        assert report["precision"] == 0.97
        assert report["recall"] == 0.97
        assert report["f1"] == 0.97

    def test_perfect_separation_auroc(self):
        assert auroc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_overlapping_scores_match_brute_force(self):
        scores = [0.8, 0.2, 0.5]
        labels = [1, 1, 0]
        assert auroc(scores, labels) == brute_force_auroc(scores, labels) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(DataError, match="AUROC needs both classes in the labels"):
            auroc([0.1, 0.9], [1, 1])

    def test_any_label_but_1_is_human_in_every_metric(self):
        """A label other than 1 counts as Human in the confusion counts, the
        AUROC and the Youden point alike."""
        scores = [0.1, 0.9, 0.3, 0.8]
        report = metrics([0, 0, 1, 1], scores, [2, 0, 1, 1])
        assert report == metrics([0, 0, 1, 1], scores, [0, 0, 1, 1])
        assert report["auroc"] == 0.5
        assert youden_threshold(scores, [2, 0, 1, 1]) == youden_threshold(scores, [0, 0, 1, 1])

    def test_zero_denominators_flagged(self):
        report = metrics([0, 0, 0, 0], [0.1, 0.2, 0.3, 0.4], [1, 1, 0, 0])
        assert report["precision"] == 0.0
        assert report["f1"] == 0.0
        assert "precision_zero_denominator" in report["flags"]

    def test_accuracy_identity(self):
        report = metrics([1, 1, 1, 0, 1, 1, 0, 0, 0, 0], list(np.linspace(0, 1, 10)),
                         [1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        assert report["confusion"] == {"tp": 3, "fp": 2, "fn": 1, "tn": 4}
        assert report["accuracy"] == (3 + 4) / 10

    @settings(max_examples=200, deadline=None)
    @given(
        n_pos=st.integers(1, 25),
        n_neg=st.integers(1, 25),
        seed=st.integers(0, 10_000),
    )
    def test_rank_auroc_equals_brute_force(self, n_pos, n_neg, seed):
        rng = np.random.default_rng(seed)
        # Quantized scores so ties actually occur.
        scores = list(rng.integers(0, 8, size=n_pos + n_neg) / 7.0)
        labels = [1] * n_pos + [0] * n_neg
        assert abs(auroc(scores, labels) - brute_force_auroc(scores, labels)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_auroc_invariant_under_increasing_transforms(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=20)
        labels = [1] * 10 + [0] * 10
        base = auroc(list(scores), labels)
        assert auroc(list(3.0 * scores + 1.0), labels) == pytest.approx(base, abs=1e-12)
        assert auroc(list(np.tanh(scores)), labels) == pytest.approx(base, abs=1e-12)

    def test_f1_between_precision_and_recall(self):
        # tp=6, fn=1, fp=4, tn=9.
        report = metrics([1] * 6 + [0] + [1] * 4 + [0] * 9, list(np.linspace(0, 1, 20)),
                         [1] * 7 + [0] * 13)
        assert min(report["precision"], report["recall"]) <= report["f1"]
        assert report["f1"] <= max(report["precision"], report["recall"])


class TestYouden:
    def test_single_class_undefined(self):
        with pytest.raises(DataError, match="^threshold selection needs both classes$"):
            youden_threshold([0.1, 0.9], [0, 0])

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(4)
        scores = list(rng.normal(0, 1, 15)) + list(rng.normal(1.5, 1, 15))
        labels = [0] * 15 + [1] * 15

        best_j, best_t = -2.0, None
        for t in sorted(set(scores)):
            tpr = sum(s >= t for s, y in zip(scores, labels) if y == 1) / 15
            fpr = sum(s >= t for s, y in zip(scores, labels) if y == 0) / 15
            if tpr - fpr > best_j + 1e-12:
                best_j, best_t = tpr - fpr, t
        assert youden_threshold(scores, labels) == best_t

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(
            st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0]),
                      st.floats(min_value=-3, max_value=3)),
            st.sampled_from([0, 1]),
        ),
        min_size=2, max_size=60,
    ).filter(lambda rows: {y for _, y in rows} == {0, 1}))
    def test_sorted_sweep_equals_per_threshold_oracle(self, rows):
        scores = [s for s, _ in rows]
        labels = [y for _, y in rows]
        assert youden_threshold(scores, labels) == youden_per_threshold(scores, labels)


def average_ranks_tie_walk(scores):
    """1-based ranks with ties assigned their group average, by a Python
    tie walk: the rank-sum oracle of auroc."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def auroc_tie_walk(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    ranks = average_ranks_tie_walk(scores)
    rank_sum = float(np.sum(ranks[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class TestAverageRanks:
    TIED_ROWS = st.lists(
        st.tuples(
            st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, float("nan")]),
                      st.floats(min_value=-3, max_value=3)),
            st.sampled_from([0, 1]),
        ),
        min_size=2, max_size=80,
    ).filter(lambda rows: {y for _, y in rows} == {0, 1})

    @settings(max_examples=300, deadline=None)
    @given(TIED_ROWS)
    def test_ranks_and_auroc_equal_tie_walk(self, rows):
        scores = np.array([s for s, _ in rows])
        labels = [y for _, y in rows]
        assert auroc(scores, labels) == auroc_tie_walk(scores, labels)

    def test_large_heavily_tied_input(self):
        rng = np.random.default_rng(9)
        scores = rng.integers(0, 7, size=5000).astype(float)
        labels = rng.integers(0, 2, size=5000)
        assert auroc(scores, labels) == auroc_tie_walk(scores, labels)


def youden_per_threshold(scores, labels):
    """The O(n^2) form: a full scan of the scores for every distinct score."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    best_t = float("-inf")
    best_j = -np.inf
    for t in sorted(set(scores.tolist())):
        preds = scores >= t
        tpr = float(np.sum(preds & (labels == 1))) / n_pos
        fpr = float(np.sum(preds & (labels == 0))) / n_neg
        j = tpr - fpr
        if j > best_j + 1e-12:
            best_j = j
            best_t = t
    return best_t


_SPECIAL_SEQUENCES = ('\\"', "\\'", "/", "\\")


def oracle_adversarial_transform(doc: Document, transform: AdversarialTransform) -> Document:
    """The former adversarial_transform, one hand-written loop per kind,
    kept as an oracle."""
    rng = np.random.default_rng(transform.seed)
    body = doc.body
    if transform.kind == "special_chars":
        words = [(a, b) for a, b, w in token_spans(body) if w]
        m = int(math.floor(transform.intensity * len(words)))
        if m == 0:
            return doc
        chosen = sorted(int(i) for i in rng.choice(len(words), size=m, replace=False))
        pieces = []
        prev = 0
        for i in chosen:
            _, end = words[i]
            insert = _SPECIAL_SEQUENCES[int(rng.integers(0, len(_SPECIAL_SEQUENCES)))]
            pieces.append(body[prev:end])
            pieces.append(insert)
            prev = end
        pieces.append(body[prev:])
        new_body = "".join(pieces)
    elif transform.kind == "whitespace_noise":
        spaces = [i for i, ch in enumerate(body) if ch == " "]
        m = int(math.floor(transform.intensity * len(spaces)))
        if m == 0:
            return doc
        chosen = set(
            spaces[int(i)] for i in rng.choice(len(spaces), size=m, replace=False)
        )
        new_body = "".join(ch + " " if i in chosen else ch for i, ch in enumerate(body))
    elif transform.kind == "case_flip":
        letters = [i for i, ch in enumerate(body) if ch.isalpha()]
        m = int(math.floor(transform.intensity * len(letters)))
        if m == 0:
            return doc
        chosen = set(
            letters[int(i)] for i in rng.choice(len(letters), size=m, replace=False)
        )
        new_body = "".join(
            ch.swapcase() if i in chosen else ch for i, ch in enumerate(body)
        )
    else:  # pragma: no cover - guarded by AdversarialTransform
        raise DataError(f"unknown transform kind {transform.kind!r}")
    return Document(
        id=doc.id, body=new_body, label=doc.label, source_question=doc.source_question
    )


# Any text a Document holds (every character but the controls other than
# newline), mixed with words, runs of spaces and letters whose swapcase
# changes length.
_CONTROLS = "".join(chr(c) for c in [*range(0x0A), *range(0x0B, 0x20), *range(0x7F, 0xA0)])
attack_bodies = st.lists(
    st.one_of(
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=_CONTROLS),
                max_size=8),
        st.sampled_from(["ß", "ŉ", "ﬁ", "İ", " ", "  ", "   ", "word", "Word.", "\n"]),
    ),
    max_size=12,
).map("".join).filter(bool)


class TestAdversarialTransforms:
    @settings(max_examples=300, deadline=None)
    @given(body=attack_bodies,
           kind=st.sampled_from(["special_chars", "whitespace_noise", "case_flip"]),
           intensity=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**64 - 1))
    def test_equals_per_kind_oracle(self, body, kind, intensity, seed):
        doc = make_doc(body, label=Label.MACHINE)
        tf = AdversarialTransform(kind=kind, intensity=intensity, seed=seed)
        assert adversarial_transform(doc, tf) == oracle_adversarial_transform(doc, tf)

    @pytest.mark.parametrize("kind", ["special_chars", "whitespace_noise", "case_flip"])
    def test_no_unit_chosen_builds_no_generator(self, kind, monkeypatch):
        built = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or real(*a))
        # Fewer than 1 / 0.3 units of every kind: floor(0.3 * n) = 0.
        doc = make_doc("Ab c.")
        tf = AdversarialTransform(kind=kind, intensity=0.3, seed=5)
        assert adversarial_transform(doc, tf).body == doc.body
        assert built == []

    def test_intensity_zero_identity(self):
        doc = make_doc("Some plain text here.")
        for kind in ("special_chars", "whitespace_noise", "case_flip"):
            tf = AdversarialTransform(kind=kind, intensity=0.0, seed=1)
            assert adversarial_transform(doc, tf).body == doc.body

    def test_special_chars_exact_insertions(self):
        doc = make_doc("one two three four five six seven eight nine ten")
        tf = AdversarialTransform(kind="special_chars", intensity=0.2, seed=3)
        out = adversarial_transform(doc, tf)
        sequences = ('\\"', "\\'", "/", "\\")
        changed = [
            (orig, new)
            for orig, new in zip(doc.body.split(" "), out.body.split(" "))
            if orig != new
        ]
        # floor(0.2 * 10) = 2 insertion points, each one escaped sequence
        assert len(changed) == 2
        for orig, new in changed:
            assert new[: len(orig)] == orig
            assert new[len(orig):] in sequences
        assert word_tokens(out.body) == word_tokens(doc.body)

    def test_whitespace_noise_doubles_spaces(self):
        doc = make_doc("a b c d e")
        tf = AdversarialTransform(kind="whitespace_noise", intensity=1.0, seed=2)
        out = adversarial_transform(doc, tf)
        assert out.body.count(" ") == 8  # all four spaces doubled
        assert word_tokens(out.body) == word_tokens(doc.body)

    def test_case_flip_changes_exact_count(self):
        doc = make_doc("abcdefghij")
        tf = AdversarialTransform(kind="case_flip", intensity=0.5, seed=7)
        out = adversarial_transform(doc, tf)
        changed = sum(a != b for a, b in zip(doc.body, out.body))
        assert changed == 5

    def test_deterministic(self):
        doc = make_doc("Some plain text, with punctuation marks!")
        tf = AdversarialTransform(kind="special_chars", intensity=0.5, seed=11)
        assert adversarial_transform(doc, tf).body == adversarial_transform(doc, tf).body

    def test_label_preserved(self):
        doc = make_doc("text sample", label=Label.MACHINE)
        tf = AdversarialTransform(kind="case_flip", intensity=0.8, seed=0)
        assert adversarial_transform(doc, tf).label == Label.MACHINE

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError):
            AdversarialTransform(kind="homoglyphs", intensity=0.1, seed=0)

    def test_every_declared_kind_has_one_attack(self):
        """The config declares the kinds (sections.TRANSFORM_KINDS) apart
        from the attack code, which has one entry per kind, in that order."""
        assert tuple(evaluation._ATTACKS) == sections.TRANSFORM_KINDS


class TestRobustnessReport:
    def _corpus(self):
        return make_corpus(
            ["human one speaks.", "human two speaks."],
            ["machine one talks.", "machine two talks."],
        )

    def test_identity_transforms_have_zero_deltas(self):
        scorer = DetectorScorer(
            name="by-label",
            score_fn=lambda d: 1.0 if d.label == Label.MACHINE else 0.0,
            threshold=0.5,
        )
        transforms = [AdversarialTransform(kind="case_flip", intensity=0.0, seed=0)]
        report = robustness_report(scorer, self._corpus(), transforms)
        entry = report["transforms"]["case_flip@0.0"]
        assert all(v == 0.0 for v in entry["delta"].values())

    def test_constant_score_detector_gets_half_auroc(self):
        scorer = DetectorScorer(name="const", score_fn=lambda d: 0.5, threshold=0.5)
        transforms = [AdversarialTransform(kind="case_flip", intensity=0.5, seed=0)]
        report = robustness_report(scorer, self._corpus(), transforms)
        assert report["before"]["auroc"] == 0.5
        entry = report["transforms"]["case_flip@0.5"]
        assert all(v == 0.0 for v in entry["delta"].values())

    def test_surface_sensitive_scorer_records_deltas(self):
        # Scores depend on raw punctuation counts, so the special-chars
        # attack moves them; only the report shape is asserted.
        scorer = DetectorScorer(
            name="punct-counter",
            score_fn=lambda d: sum(not t.is_word for t in tokenize(d.body)) / 10.0,
            threshold=0.15,
        )
        transforms = [AdversarialTransform(kind="special_chars", intensity=0.5, seed=5)]
        report = robustness_report(scorer, self._corpus(), transforms)
        entry = report["transforms"]["special_chars@0.5"]
        assert set(entry["delta"]) == {"precision", "recall", "f1", "accuracy", "auroc"}
        assert all(np.isfinite(v) for v in entry["delta"].values())

    def test_single_class_rejected(self):
        scorer = DetectorScorer(name="c", score_fn=lambda d: 0.0, threshold=0.5)
        corpus = make_corpus(["only human."], [])
        with pytest.raises(DataError):
            robustness_report(scorer, corpus, [])

    def test_record_of_a_detector_whose_denominators_vanish(self):
        """Every document scored 0.0 under threshold 1.0: no Machine label,
        so precision and F1 have no denominator and all scores tie."""
        scorer = DetectorScorer(name="zero", score_fn=lambda d: 0.0, threshold=1.0)
        transforms = [AdversarialTransform(kind="case_flip", intensity=0.5, seed=0)]
        report = robustness_report(scorer, self._corpus(), transforms)
        assert json.dumps(report, sort_keys=True, indent=2) == ZERO_DENOMINATOR_RECORD


# The robustness.json entry of the detector that scores every document 0.0.
ZERO_DENOMINATOR_RECORD = """\
{
  "before": {
    "accuracy": 0.5,
    "auroc": 0.5,
    "confusion": {
      "fn": 2,
      "fp": 0,
      "tn": 2,
      "tp": 0
    },
    "f1": 0.0,
    "flags": [
      "precision_zero_denominator",
      "f1_zero_denominator"
    ],
    "n": 4,
    "precision": 0.0,
    "recall": 0.0
  },
  "transforms": {
    "case_flip@0.5": {
      "after": {
        "accuracy": 0.5,
        "auroc": 0.5,
        "confusion": {
          "fn": 2,
          "fp": 0,
          "tn": 2,
          "tp": 0
        },
        "f1": 0.0,
        "flags": [
          "precision_zero_denominator",
          "f1_zero_denominator"
        ],
        "n": 4,
        "precision": 0.0,
        "recall": 0.0
      },
      "before": {
        "accuracy": 0.5,
        "auroc": 0.5,
        "confusion": {
          "fn": 2,
          "fp": 0,
          "tn": 2,
          "tp": 0
        },
        "f1": 0.0,
        "flags": [
          "precision_zero_denominator",
          "f1_zero_denominator"
        ],
        "n": 4,
        "precision": 0.0,
        "recall": 0.0
      },
      "delta": {
        "accuracy": 0.0,
        "auroc": 0.0,
        "f1": 0.0,
        "precision": 0.0,
        "recall": 0.0
      },
      "intensity": 0.5,
      "kind": "case_flip"
    }
  }
}"""


# One detector of each family the attacks meet: an LM for detect_gpt and
# single_revise, and an svm over mean-pooled vectors of the LM's tokens, so
# that "/" and "\\", which special_chars inserts, have vectors too.
INVARIANCE_LM = zeroshot.train_kn_lm(
    ["The cat sat on the mat, e.g. a red mat.", "Dr. Smith's dog / cat \\ didn't sit!",
     "A dog and a cat? Yes, the cat.", "The end of the mat etc. is red."] * 2,
    order=3, discount=0.75)
INVARIANCE_EMB = embeddings.EmbeddingMatrix(
    vocabulary=INVARIANCE_LM.vocabulary, dim=4,
    input_vectors=np.random.default_rng(4).normal(size=(INVARIANCE_LM.vocabulary.size, 4)))
INVARIANCE_SVM = classifiers.SvmModel(weights=np.array([0.7, -1.3, 0.2, 2.1]), bias=0.1,
                                      lam=1e-3)
INVARIANCE_WORDS = ["the", "The", "cat", "MAT", "dog", "didn't", "Smith's", "e.g.", "Dr.",
                    "etc.", "i.e.", "red", "zz", ",", "!", "?", ".", " ", "\n"]


def curvature(body: str, k: int, seed: int) -> float:
    cfg = zeroshot.PerturbConfig(pool=INVARIANCE_LM.vocabulary, mask_fraction=0.3, seed=seed,
                                 k=k)
    score = zeroshot.detect_gpt_score if k > 1 else zeroshot.single_revise_score
    return score(INVARIANCE_LM, make_doc(body), cfg).d


def svm_score(body: str) -> float:
    return classifiers.predict(INVARIANCE_SVM,
                               embeddings.doc_vector(body, INVARIANCE_EMB).values)


def outcome(score, body: str) -> str:
    """repr of *score*(body), or the DataError it raises."""
    try:
        return repr(score(body))
    except DataError as exc:
        return f"DataError: {exc}"


def invariance_bodies(pieces: st.SearchStrategy) -> st.SearchStrategy:
    return st.lists(st.one_of(st.sampled_from(INVARIANCE_WORDS), pieces), max_size=14).map(
        " ".join).filter(bool)


_ASCII = "".join(chr(c) for c in range(0x20, 0x7F)) + "\n"


class TestInvariantAttacks:
    """Every detector reads text through the lowercasing, whitespace-blind
    tokenizer, and the classifier reads word tokens only: so whitespace_noise
    and case_flip on ASCII text leave every score as it was, and
    special_chars leaves the classifier's. These attacks measure tokenizer
    invariance, not robustness."""

    def _scores(self, body: str, seed: int) -> list[str]:
        return [outcome(lambda b: curvature(b, 4, seed), body),
                outcome(lambda b: curvature(b, 1, seed), body), outcome(svm_score, body)]

    @settings(max_examples=150, deadline=None)
    @given(body=invariance_bodies(attack_bodies), intensity=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32))
    def test_whitespace_noise_moves_no_score(self, body, intensity, seed):
        attacked = adversarial_transform(make_doc(body), AdversarialTransform(
            kind="whitespace_noise", intensity=intensity, seed=seed)).body
        assert self._scores(attacked, seed) == self._scores(body, seed)

    @settings(max_examples=150, deadline=None)
    @given(body=invariance_bodies(st.text(_ASCII, max_size=8)), intensity=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32))
    def test_case_flip_on_ascii_moves_no_score(self, body, intensity, seed):
        attacked = adversarial_transform(make_doc(body), AdversarialTransform(
            kind="case_flip", intensity=intensity, seed=seed)).body
        assert self._scores(attacked, seed) == self._scores(body, seed)

    @settings(max_examples=150, deadline=None)
    @given(body=invariance_bodies(attack_bodies), intensity=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32))
    def test_special_chars_moves_no_classifier_score(self, body, intensity, seed):
        attacked = adversarial_transform(make_doc(body), AdversarialTransform(
            kind="special_chars", intensity=intensity, seed=seed)).body
        assert outcome(svm_score, attacked) == outcome(svm_score, body)

    @pytest.mark.parametrize("word, before, after", [
        ("İstanbul", ["i̇stanbul"], ["i", "stanbul"]),
        ("ΟΔΟσ", ["οδοσ"], ["οδος"]),
        ("straße", ["straße"], ["strasse"]),
    ])
    def test_case_flip_retokenizes_outside_ascii(self, word, before, after):
        """swapcase can change what the tokenizer reads: İ becomes i plus a
        combining dot, a final Σ lowercases to ς, and ß becomes SS."""
        flip = AdversarialTransform(kind="case_flip", intensity=1.0, seed=0)
        assert word_tokens(word) == before
        assert word_tokens(adversarial_transform(make_doc(word), flip).body) == after

    def test_case_flip_moves_a_curvature_score(self):
        body = "The cat sat on İstanbul."
        flip = AdversarialTransform(kind="case_flip", intensity=1.0, seed=0)
        attacked = adversarial_transform(make_doc(body), flip).body
        assert attacked == "tHE CAT SAT ON i̇STANBUL."
        assert curvature(attacked, 1, 3) != curvature(body, 1, 3)
