"""Detection metrics (precision/recall/F1/accuracy, rank-based AUROC),
seeded adversarial test-set transforms, and pre/post-attack robustness
reports. Positive class is Machine throughout.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DataError
from .ingest import Corpus, Document, Label
from .text_core import rewrite_units, token_spans

# The scalar metrics of a MetricsReport, in report order.
METRIC_NAMES = ("precision", "recall", "f1", "accuracy", "auroc")

_SPECIAL_SEQUENCES = ('\\"', "\\'", "/", "\\")


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise DataError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f1: float
    accuracy: float
    auroc: float
    confusion: ConfusionMatrix
    n: int
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class AdversarialTransform:
    kind: str
    intensity: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _ATTACKS:
            raise DataError(f"unknown transform kind {self.kind!r}")
        if not (0.0 <= self.intensity <= 1.0):
            raise DataError("intensity must lie in [0, 1]")


def confusion(predictions: Sequence[int], labels: Sequence[int]) -> ConfusionMatrix:
    """Counts with positive class = Machine (label 1)."""
    if len(predictions) != len(labels):
        raise DataError("predictions and labels must have equal length")
    if len(labels) == 0:
        raise DataError("cannot build a confusion matrix from empty inputs")
    tp = fp = fn = tn = 0
    for p, y in zip(predictions, labels):
        if y == 1:
            if p == 1:
                tp += 1
            else:
                fn += 1
        else:
            if p == 1:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Mann-Whitney rank statistic; tied scores count one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC needs both classes in the labels")
    ranks = _average_ranks(scores)
    rank_sum = float(np.sum(ranks[labels == 1]))
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned their group average.

    A group of equal scores spans sorted positions first..last and gets
    (first + last) / 2 + 1. NaN never equals itself, so each NaN is its
    own group.
    """
    order = np.argsort(scores, kind="stable")
    _, first, counts = np.unique(
        scores[order], return_index=True, return_counts=True, equal_nan=False
    )
    last = first + counts - 1
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, counts)
    return ranks


def metrics(
    cm: ConfusionMatrix, scores: Sequence[float], labels: Sequence[int]
) -> MetricsReport:
    """All scalar metrics from the confusion counts plus rank AUROC.

    Zero-denominator metrics are defined as 0 and noted in ``flags``.
    """
    if len(scores) != cm.total or len(labels) != cm.total:
        raise DataError("scores/labels length must match the confusion total")
    flags: list[str] = []
    if cm.tp + cm.fp > 0:
        precision = cm.tp / (cm.tp + cm.fp)
    else:
        precision = 0.0
        flags.append("precision_zero_denominator")
    if cm.tp + cm.fn > 0:
        recall = cm.tp / (cm.tp + cm.fn)
    else:
        recall = 0.0
        flags.append("recall_zero_denominator")
    # Harmonic-mean identity 2tp/(2tp+fp+fn) keeps integer exactness.
    if cm.tp > 0:
        f1 = 2 * cm.tp / (2 * cm.tp + cm.fp + cm.fn)
    else:
        f1 = 0.0
        if precision + recall == 0:
            flags.append("f1_zero_denominator")
    accuracy = (cm.tp + cm.tn) / cm.total
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=accuracy,
        auroc=auroc(scores, labels),
        confusion=cm,
        n=cm.total,
        flags=tuple(flags),
    )


def youden_threshold(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Threshold maximizing TPR - FPR over the label-at-or-above rule,
    breaking ties toward the smallest candidate.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("threshold selection needs both classes")
    # One sorted sweep: the candidates are the distinct scores, and the
    # scores at or above one are those from its first place in sorted order.
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    first = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    below_pos = np.r_[0, np.cumsum(labels[order] == 1)][first]
    below_neg = np.r_[0, np.cumsum(labels[order] == 0)][first]
    j_values = (n_pos - below_pos) / n_pos - (n_neg - below_neg) / n_neg
    best_t = float("-inf")
    best_j = -math.inf
    for t, j in zip(ranked[first].tolist(), j_values.tolist()):
        if j > best_j + 1e-12:
            best_j = j
            best_t = t
    return best_t


# -- adversarial transforms --


# Each attack as (its units in a body, the replacement of one chosen unit).
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


@dataclass(frozen=True)
class DetectorScorer:
    """Unified scoring interface: any detector reduced to a score
    function plus its decision threshold.
    """

    name: str
    score_fn: Callable[[Document], float]
    threshold: float

    def label(self, score: float) -> int:
        """1 (Machine) iff score >= threshold, so ties go to Machine."""
        return int(score >= self.threshold)

    def evaluate(self, docs: Sequence[Document]) -> MetricsReport:
        """Score, label and measure *docs* against their own labels."""
        labels = [1 if d.label == Label.MACHINE else 0 for d in docs]
        scores = [self.score_fn(d) for d in docs]
        return metrics(confusion([self.label(s) for s in scores], labels), scores, labels)


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
    before = asdict(scorer.evaluate(test.documents))
    per_transform: dict[str, dict] = {}
    for tf in transforms:
        after = asdict(scorer.evaluate([adversarial_transform(d, tf) for d in test.documents]))
        per_transform[f"{tf.kind}@{tf.intensity}"] = {
            "kind": tf.kind,
            "intensity": tf.intensity,
            "before": before,
            "after": after,
            "delta": {m: after[m] - before[m] for m in METRIC_NAMES},
        }
    return {"before": before, "transforms": per_transform}
