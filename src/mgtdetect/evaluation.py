"""Detection metrics (precision/recall/F1/accuracy, Mann-Whitney AUROC),
seeded adversarial test-set transforms, and pre/post-attack robustness
reports. Positive class is Machine throughout.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Sequence

import numpy as np

from .errors import DataError
from .ingest import Corpus, DetectorScorer, Document, Label
from .sections import AdversarialTransform
from .text_core import rewrite_units, token_spans

# The scalar metrics of a metrics record, in record order.
METRIC_NAMES = ("precision", "recall", "f1", "accuracy", "auroc")

_SPECIAL_SEQUENCES = ('\\"', "\\'", "/", "\\")


def _roc(scores: Sequence[float], labels: Sequence[int], message: str):
    """One stable sort of *scores*: the distinct scores in increasing order
    (NaN never equals itself, so each NaN is its own), the positives (label
    1, Machine) and negatives (any other label, as in metrics) below each,
    and the two class sizes. DataError(*message*) unless both classes are
    present.
    """
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(scores, kind="stable")
    ranked, ranked_labels = scores[order], np.asarray(labels, dtype=int)[order]
    first = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    machine = ranked_labels == 1
    below_pos, below_neg = np.r_[0, np.cumsum(machine)], np.r_[0, np.cumsum(~machine)]
    n_pos, n_neg = int(below_pos[-1]), int(below_neg[-1])
    if n_pos == 0 or n_neg == 0:
        raise DataError(message)
    return ranked[first], below_pos[first], below_neg[first], n_pos, n_neg


def auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Mann-Whitney U / (n_pos * n_neg) over the tie groups g of _roc:
    U = sum(pos_g * neg_below_g) + sum(pos_g * neg_g) / 2, so tied scores
    count one half and U, a half-integer, is exact.
    """
    _, below_pos, below_neg, n_pos, n_neg = _roc(
        scores, labels, "AUROC needs both classes in the labels")
    pos, neg = np.diff(below_pos, append=n_pos), np.diff(below_neg, append=n_neg)
    return (int(pos @ below_neg) + int(pos @ neg) / 2.0) / (n_pos * n_neg)


def metrics(
    predictions: Sequence[int], scores: Sequence[float], labels: Sequence[int]
) -> dict:
    """The metrics.json entry of one scored set: precision, recall, f1,
    accuracy, Mann-Whitney AUROC, the confusion counts {tp, fp, fn, tn}, n and
    flags. A prediction or label of 1 is Machine, any other value Human.

    Zero-denominator metrics are defined as 0 and noted in ``flags``.
    """
    n = len(labels)
    if len(predictions) != n or len(scores) != n:
        raise DataError("predictions, scores and labels must have equal length")
    if n == 0:
        raise DataError("cannot measure an empty set")
    cells = Counter((p == 1, y == 1) for p, y in zip(predictions, labels))
    tp, fp, fn = cells[True, True], cells[True, False], cells[False, True]
    tn = n - tp - fp - fn
    flags: list[str] = []
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision = 0.0
        flags.append("precision_zero_denominator")
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall = 0.0
        flags.append("recall_zero_denominator")
    # Harmonic-mean identity 2tp/(2tp+fp+fn) keeps integer exactness. With
    # tp = 0, precision and recall are both 0, so 2PR/(P+R) has none.
    if tp > 0:
        f1 = 2 * tp / (2 * tp + fp + fn)
    else:
        f1 = 0.0
        flags.append("f1_zero_denominator")
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "accuracy": (tp + tn) / n,
        "auroc": auroc(scores, labels),
        "confusion": {"tp": tp, "fp": fp, "fn": fn, "tn": tn},
        "n": n,
        "flags": flags,
    }


def youden_threshold(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Threshold maximizing TPR - FPR over the label-at-or-above rule,
    breaking ties toward the smallest candidate. The candidates are the
    distinct scores, and the scores at or above one are those not below it.
    """
    candidates, below_pos, below_neg, n_pos, n_neg = _roc(
        scores, labels, "threshold selection needs both classes")
    j_values = (n_pos - below_pos) / n_pos - (n_neg - below_neg) / n_neg
    best_t = best_j = float("-inf")
    for t, j in zip(candidates.tolist(), j_values.tolist()):
        if j > best_j + 1e-12:
            best_t, best_j = t, j
    return best_t


# -- adversarial transforms --


# Each attack as (its units in a body, the replacement of one chosen unit),
# one per sections.TRANSFORM_KINDS name, in that order.
_ATTACKS = {
    # An insertion point after each word: one escaped quote or slash.
    "special_chars": (
        lambda body: [(b, b) for _, b, is_word in token_spans(body) if is_word],
        lambda rng, _: _SPECIAL_SEQUENCES[int(rng.integers(0, len(_SPECIAL_SEQUENCES)))],
    ),
    "whitespace_noise": (
        lambda body: [(i, i + 1) for i, ch in enumerate(body) if ch == " "],
        lambda rng, space: space * 2,
    ),
    # Each letter, case flipped (which may change its length: "ß" -> "SS").
    "case_flip": (
        lambda body: [(i, i + 1) for i, ch in enumerate(body) if ch.isalpha()],
        lambda rng, letter: letter.swapcase(),
    ),
}


def adversarial_transform(doc: Document, transform: AdversarialTransform) -> Document:
    """Seeded surface attack preserving the label: rewrite_units over the
    attack's units at the transform's intensity and seed.

    special_chars inserts backslash-escaped quotes and slashes after
    floor(intensity * word_count) words; whitespace_noise doubles that
    fraction of the spaces; case_flip flips that fraction of the letters.
    """
    units, replacement = _ATTACKS[transform.kind]
    body = rewrite_units(doc.body, units(doc.body), transform.intensity, transform.seed,
                         replacement)
    return replace(doc, body=body)


# -- robustness --


def evaluate(scorer: DetectorScorer, docs: Sequence[Document]) -> dict:
    """Score, label and measure *docs* against their own labels: the
    metrics record of the set."""
    labels = [1 if d.label == Label.MACHINE else 0 for d in docs]
    scores = [scorer.score_fn(d) for d in docs]
    return metrics([scorer.label(s) for s in scores], scores, labels)


def robustness_report(
    scorer: DetectorScorer,
    test: Corpus,
    transforms: Sequence[AdversarialTransform],
) -> dict:
    """{"before", "transforms"}, as robustness.json holds it per detector:
    the clean metrics once, then the metrics per transformed copy of the test
    set, with per-metric deltas (after minus before).
    """
    if test.class_counts[Label.HUMAN] == 0 or test.class_counts[Label.MACHINE] == 0:
        raise DataError("robustness evaluation needs both classes")
    before = evaluate(scorer, test.documents)
    per_transform: dict[str, dict] = {}
    for tf in transforms:
        after = evaluate(scorer, [adversarial_transform(d, tf) for d in test.documents])
        per_transform[f"{tf.kind}@{tf.intensity}"] = {
            "kind": tf.kind,
            "intensity": tf.intensity,
            "before": before,
            "after": after,
            "delta": {m: after[m] - before[m] for m in METRIC_NAMES},
        }
    return {"before": before, "transforms": per_transform}
