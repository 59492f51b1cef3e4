"""Contrastive corpus statistics: answer length, sentence length,
type-token ratio, Flesch-Kincaid grade, and dependency distance, with
per-class histograms and a comparison report that stats.json holds as
it is.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import DataError
from .ingest import Corpus, Document, Label, ParsedSentence
from .text_core import count_syllables, split_sentences, word_tokens

# Fixed bin edges per statistic so reports stay comparable across runs.
DEFAULT_BINS: dict[str, list[float]] = {
    "answer_length": [float(x) for x in range(0, 525, 25)],
    "sentence_length": [float(x) for x in range(0, 63, 3)],
    "ttr": [round(0.1 * i, 1) for i in range(0, 11)],
    "fkgl": [float(x) for x in range(-6, 33, 2)],
    "dependency_distance": [0.5 * i for i in range(0, 17)],
}


def answer_length(doc: Document) -> int:
    """Number of word tokens in the body."""
    return len(word_tokens(doc.body))


def mean_sentence_length(doc: Document) -> float:
    """Word tokens per sentence."""
    sentences = split_sentences(doc.body)
    if not sentences:
        raise DataError(f"document {doc.id!r} has no sentences")
    return len(word_tokens(doc.body)) / len(sentences)


def type_token_ratio(doc: Document) -> float:
    """Distinct word surfaces over total word tokens, in (0, 1]."""
    words = word_tokens(doc.body)
    if not words:
        raise DataError(f"document {doc.id!r} has no word tokens")
    return len(set(words)) / len(words)


def flesch_kincaid_grade(doc: Document) -> float:
    """0.39 * (words/sentences) + 11.8 * (syllables/words) - 15.59.

    May be negative; clamping would distort the distributions.
    """
    sentences = split_sentences(doc.body)
    words = word_tokens(doc.body)
    if not sentences or not words:
        raise DataError(f"document {doc.id!r} needs >= 1 sentence and word")
    syllables = sum(count_syllables(w) for w in words)
    return 0.39 * (len(words) / len(sentences)) + 11.8 * (syllables / len(words)) - 15.59


def mean_dependency_distance(sent: ParsedSentence) -> float:
    """Mean |position - head position| over non-root arcs, 1-based."""
    distances = [
        abs(pos - head)
        for pos, head in enumerate(sent.heads, start=1)
        if head != 0
    ]
    if not distances:
        raise DataError("sentence has no non-root arcs")
    return sum(distances) / len(distances)


def histogram(values: list[float], bin_edges: list[float]) -> dict:
    """{"edges", "counts", "underflow", "overflow"}: half-open bins
    [e_i, e_{i+1}) with the last bin closed; values outside the range are
    tallied as underflow/overflow.
    """
    if len(bin_edges) < 2:
        raise DataError("need at least 2 bin edges")
    if any(a >= b for a, b in zip(bin_edges, bin_edges[1:])):
        raise DataError("bin edges must be strictly ascending")
    counts = [0] * (len(bin_edges) - 1)
    underflow = overflow = 0
    lo, hi = bin_edges[0], bin_edges[-1]
    for v in values:
        if v < lo:
            underflow += 1
        elif v > hi:
            overflow += 1
        elif v == hi:
            counts[-1] += 1
        else:
            counts[bisect_right(bin_edges, v) - 1] += 1
    return {"edges": list(bin_edges), "counts": counts, "underflow": underflow,
            "overflow": overflow}


def _doc_values(corpus: Corpus, label: Label) -> dict[str, list[float]]:
    docs = corpus.by_label(label)
    return {
        "answer_length": [float(answer_length(d)) for d in docs],
        "sentence_length": [mean_sentence_length(d) for d in docs],
        "ttr": [type_token_ratio(d) for d in docs],
        "fkgl": [flesch_kincaid_grade(d) for d in docs],
    }


def corpus_report(
    corpus: Corpus,
    parses: dict[Label, list[ParsedSentence]] | None = None,
) -> dict[str, dict[str, dict]]:
    """Per class and per statistic: the mean of the per-document (or
    per-sentence) values and their histogram, binned at DEFAULT_BINS.

    The dependency-distance section appears only when *parses* supplies
    CoNLL-U sentences for each class.
    """
    if corpus.class_counts[Label.HUMAN] == 0 or corpus.class_counts[Label.MACHINE] == 0:
        raise DataError("corpus report needs documents of both classes")
    sections: dict[str, dict[str, dict]] = {}
    for label in (Label.HUMAN, Label.MACHINE):
        values = _doc_values(corpus, label)
        if parses is not None:
            sents = parses.get(label, [])
            values["dependency_distance"] = [
                mean_dependency_distance(s)
                for s in sents
                if any(h != 0 for h in s.heads)
            ]
        sections[label.value] = {
            stat: {"mean": sum(vals) / len(vals) if vals else 0.0,
                   "histogram": histogram(vals, DEFAULT_BINS[stat])}
            for stat, vals in values.items()
        }
    return sections
