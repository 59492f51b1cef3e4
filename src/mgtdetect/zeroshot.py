"""Zero-shot detection by probability curvature.

A document is scored under a smoothed n-gram language model standing in
for the source model p. Minor rewrites of model-generated text tend to
score lower under p than the original, while rewrites of human text move
either way; the normalized gap between the original log probability and
the mean over rewrites is the detection statistic d.

Two modes: the k-perturbation estimator (k+1 scoring passes) and the
single-revision fast path (2 scoring passes).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DataError, ModelFormatError
from .ingest import Document
from .text_core import (
    UNK,
    Token,
    Vocabulary,
    build_vocab,
    is_word_surface,
    split_sentences,
    token_spans,
    tokenize,
)

LM_SCHEMA_VERSION = 1
STD_GUARD = 1e-9

END = "</s>"  # predictable end-of-sentence symbol
START_ID = -1  # context-only padding id, never predicted


@dataclass
class NGramLM:
    """Interpolated Kneser-Ney n-gram model.

    The highest order keeps raw counts with absolute discounting; lower
    orders use continuation counts; the recursion bottoms out at the
    uniform distribution over the event space (vocabulary + UNK + END),
    so every conditional sums to one. The per-context totals and distinct
    continuation counts are derived from ``counts`` on construction.

    ``scoring_passes`` counts per_token_log_prob calls; the detectors' pass
    budget is asserted against it in tests.
    """

    order: int
    discount: float
    vocabulary: Vocabulary
    counts: dict[int, dict[tuple[int, ...], float]]
    end_id: int
    scoring_passes: int = 0
    context_totals: dict[int, dict[tuple[int, ...], float]] = field(init=False)
    context_distinct: dict[int, dict[tuple[int, ...], int]] = field(init=False)
    _dense_cache: dict[tuple[int, tuple[int, ...]], np.ndarray] = field(
        default_factory=dict, repr=False
    )
    _continuations: dict[int, dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        self.context_totals = {}
        self.context_distinct = {}
        for k in range(1, self.order + 1):
            totals: dict[tuple[int, ...], float] = {}
            distinct: dict[tuple[int, ...], int] = {}
            for gram, c in self.counts.get(k, {}).items():
                ctx = gram[:-1]
                totals[ctx] = totals.get(ctx, 0.0) + c
                distinct[ctx] = distinct.get(ctx, 0) + 1
            self.context_totals[k] = totals
            self.context_distinct[k] = distinct

    @property
    def event_size(self) -> int:
        # All predictable symbols: vocabulary ids (UNK included) plus END.
        return self.vocabulary.size + 1

    def score_texts(self, texts: Iterable[str]) -> tuple[float, int, bool]:
        """(sum of log P, number of predicted symbols, whether any token is
        a word) over the sentences of *texts*, with boundary padding and OOV
        tokens scored as UNK. Each text is tokenized once.
        """
        total = 0.0
        symbols = 0
        has_word = False
        for tokens in _sentence_tokens(texts):
            has_word = has_word or any(t.is_word for t in tokens)
            lp, n = self.sentence_log_prob([self.vocabulary.id_of(t.surface) for t in tokens])
            total += lp
            symbols += n
        return total, symbols, has_word

    def _padded(self, context: tuple[int, ...]) -> tuple[int, ...]:
        # The trailing order - 1 ids, left-padded with the start symbol.
        ctx = tuple(context)[-(self.order - 1):]
        return (START_ID,) * (self.order - 1 - len(ctx)) + ctx

    def prob(self, context: tuple[int, ...], target: int) -> float:
        """P(target | context) via the interpolated recursion."""
        return self._prob(self.order, self._padded(context), target)

    def distribution(self, context: tuple[int, ...]) -> np.ndarray:
        """Dense conditional distribution over the event space; the
        vectorized counterpart of prob(), cached per context.
        """
        return self._dense(self.order, self._padded(context)).copy()

    def _dense(self, level: int, context: tuple[int, ...]) -> np.ndarray:
        if level == 0:
            return np.full(self.event_size, 1.0 / self.event_size)
        if level == 1:
            context = ()
        key = (level, context)
        cached = self._dense_cache.get(key)
        if cached is not None:
            return cached
        total = self.context_totals[level].get(context, 0.0)
        if total <= 0.0:
            vec = self._dense(level - 1, context[1:])
        else:
            distinct = self.context_distinct[level][context]
            lam = self.discount * distinct / total
            vec = lam * self._dense(level - 1, context[1:])
            targets, counts = self._continuation_arrays(level, context)
            vec[targets] += np.maximum(counts - self.discount, 0.0) / total
        self._dense_cache[key] = vec
        return vec

    def _continuation_arrays(self, level: int, context: tuple[int, ...]):
        by_level = self._continuations.get(level)
        if by_level is None:
            grouped: dict[tuple[int, ...], list[tuple[int, float]]] = {}
            for g, c in self.counts[level].items():
                grouped.setdefault(g[:-1], []).append((g[-1], c))
            by_level = {
                ctx: (
                    np.array([t for t, _ in pairs], dtype=int),
                    np.array([c for _, c in pairs], dtype=float),
                )
                for ctx, pairs in grouped.items()
            }
            self._continuations[level] = by_level
        return by_level[context]

    def _prob(self, level: int, context: tuple[int, ...], target: int) -> float:
        if level == 1:
            context = ()
        if level == 0:
            return 1.0 / self.event_size
        totals = self.context_totals[level]
        total = totals.get(context, 0.0)
        if total <= 0.0:
            return self._prob(level - 1, context[1:], target)
        count = self.counts[level].get(context + (target,), 0.0)
        distinct = self.context_distinct[level][context]
        backoff_mass = self.discount * distinct / total
        cont = self._prob(level - 1, context[1:], target)
        return max(count - self.discount, 0.0) / total + backoff_mass * cont

    def sentence_log_prob(self, ids: list[int]) -> tuple[float, int]:
        """(sum of log P, number of predicted symbols) for one sentence."""
        context = [START_ID] * (self.order - 1)
        total = 0.0
        for target in ids + [self.end_id]:
            p = self._prob(self.order, tuple(context), target)
            total += math.log(p)
            context = context[1:] + [target]
        return total, len(ids) + 1


def _sentence_tokens(texts: Iterable[str]) -> Iterator[list[Token]]:
    """The tokens of each non-empty sentence of *texts*, in order."""
    for text in texts:
        for sent in split_sentences(text):
            tokens = tokenize(sent)
            if tokens:
                yield tokens


def train_kn_lm(texts: list[str], order: int = 3, discount: float = 0.75) -> NGramLM:
    """Count n-grams of all orders over start/end padded sentences and
    derive the continuation tables used below the top order.
    """
    if order < 2:
        raise DataError("order must be >= 2")
    if not (0.0 < discount < 1.0):
        raise DataError("discount must lie in (0, 1)")
    if not texts:
        raise DataError("cannot train a language model on an empty corpus")
    vocab = build_vocab(texts, min_count=1)
    end_id = vocab.size  # one past the vocabulary ids

    sentences = [[vocab.id_of(t.surface) for t in tokens]
                 for tokens in _sentence_tokens(texts)]
    if not sentences:
        raise DataError("corpus contains no tokens")
    longest = max(len(ids) for ids in sentences)
    if order > longest + 2:
        raise DataError(
            f"order {order} exceeds the longest sentence plus padding ({longest + 2})"
        )

    raw: dict[int, dict[tuple[int, ...], int]] = {k: {} for k in range(1, order + 1)}
    for ids in sentences:
        padded = [START_ID] * (order - 1) + ids + [end_id]
        for k in range(1, order + 1):
            table = raw[k]
            # Only n-grams ending at a predicted position count, so the
            # padding start symbols are contexts, never events.
            for end in range(order - 1, len(padded)):
                gram = tuple(padded[end - k + 1 : end + 1])
                table[gram] = table.get(gram, 0) + 1

    counts: dict[int, dict[tuple[int, ...], float]] = {}
    # Top order keeps raw counts.
    counts[order] = {g: float(c) for g, c in raw[order].items()}
    # Lower orders use continuation counts: how many distinct single-word
    # left extensions the (k+1)-gram tables contain.
    for k in range(1, order):
        cont: dict[tuple[int, ...], float] = {}
        for gram in raw[k + 1]:
            cont[gram[1:]] = cont.get(gram[1:], 0.0) + 1.0
        counts[k] = cont

    return NGramLM(order=order, discount=discount, vocabulary=vocab, counts=counts,
                   end_id=end_id)


def per_token_log_prob(lm: NGramLM, doc: Document) -> float:
    """Total log probability of the document normalized by the number of
    predicted symbols, so the statistic is comparable across document
    lengths.
    """
    total, symbols, has_word = lm.score_texts([doc.body])
    if not has_word:
        raise DataError(f"document {doc.id!r} has no word tokens")
    lm.scoring_passes += 1
    return total / symbols


def perplexity(lm: NGramLM, texts: list[str]) -> float:
    """exp(mean negative log probability per predicted symbol)."""
    total, symbols, _ = lm.score_texts(texts)
    if symbols == 0:
        raise DataError("no symbols to evaluate")
    return math.exp(-total / symbols)


@dataclass(frozen=True)
class PerturbConfig:
    """Controls the vocabulary-substitution rewriter.

    k >= 2 drives the multi-perturbation estimator; k = 1 the single
    revision. When band_octaves is set, substitutes are drawn from words
    within that many frequency octaves of the original.

    The substitution sampler is built on first use and shared with every
    copy made by dataclasses.replace, so all perturbations drawn through
    one config sort the pool once.
    """

    pool: Vocabulary
    mask_fraction: float = 0.15
    seed: int = 0
    k: int = 10
    band_octaves: float | None = 1.0
    _sampler_slot: list[_SubstitutionSampler] = field(
        default_factory=list, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not (0.0 <= self.mask_fraction <= 1.0):
            raise DataError("mask_fraction must lie in [0, 1]")
        if self.k < 1:
            raise DataError("k must be >= 1")

    def _sampler(self) -> _SubstitutionSampler:
        slot = self._sampler_slot
        # A copy with another pool or band needs a sampler of its own.
        if not slot or slot[0].pool is not self.pool or slot[0].band != self.band_octaves:
            slot[:] = [_SubstitutionSampler(self.pool, self.band_octaves)]
        return slot[0]


@dataclass(frozen=True)
class CurvatureScore:
    d: float
    logp_original: float
    logp_perturbed_mean: float
    logp_perturbed_std: float
    k_used: int

    def __post_init__(self) -> None:
        for v in (self.d, self.logp_original, self.logp_perturbed_mean,
                  self.logp_perturbed_std):
            if not math.isfinite(v):
                raise DataError("curvature score fields must be finite")


class _SubstitutionSampler:
    """Frequency-weighted word sampler with an optional octave band.

    Candidate words live in a frequency-sorted list, so a band of +/- b
    octaves around the original's frequency is one contiguous slice.
    """

    def __init__(self, pool: Vocabulary, band_octaves: float | None):
        self.pool = pool
        self.band = band_octaves
        items = sorted(
            ((w, c) for w, c in pool.frequencies.items()
             if w != UNK and is_word_surface(w) and c > 0),
            key=lambda wc: (wc[1], wc[0]),
        )
        if not items:
            raise DataError("substitution pool contains no words")
        self.words = [w for w, _ in items]
        self.freqs = [c for _, c in items]
        self.freq_of = dict(items)
        self._cdf_cache: dict[tuple[int, int], np.ndarray] = {}

    def _slice_for(self, original: str) -> tuple[int, int]:
        f = self.freq_of.get(original)
        if self.band is None or f is None:
            return 0, len(self.words)
        lo = bisect_left(self.freqs, f / (2.0**self.band))
        hi = bisect_right(self.freqs, f * (2.0**self.band))
        if hi - lo < 2:  # nothing besides (possibly) the original
            return 0, len(self.words)
        return lo, hi

    def _cdf(self, lo: int, hi: int) -> np.ndarray:
        key = (lo, hi)
        cdf = self._cdf_cache.get(key)
        if cdf is None:
            weights = np.array(self.freqs[lo:hi], dtype=float)
            cdf = np.cumsum(weights / weights.sum())
            self._cdf_cache[key] = cdf
        return cdf

    def draw(self, rng: np.random.Generator, original: str) -> str:
        lo, hi = self._slice_for(original)
        cdf = self._cdf(lo, hi)
        pick = original
        for _ in range(11):
            u = rng.random()
            pick = self.words[lo + int(np.searchsorted(cdf, u, side="right"))]
            if pick != original:
                return pick
        return pick


def perturb(doc: Document, cfg: PerturbConfig) -> Document:
    """Replace floor(mask_fraction * word_count) word tokens, chosen by
    seeded sampling without replacement, with pool draws. Punctuation and
    token count are preserved; identical (doc, cfg) gives identical output.
    """
    spans = token_spans(doc.body)
    word_positions = [i for i, (_, _, w) in enumerate(spans) if w]
    n_replace = int(math.floor(cfg.mask_fraction * len(word_positions)))
    if n_replace == 0:
        return doc
    rng = np.random.default_rng(cfg.seed)
    sampler = cfg._sampler()
    chosen = rng.choice(len(word_positions), size=n_replace, replace=False)
    chosen_positions = sorted(word_positions[int(i)] for i in chosen)
    pieces: list[str] = []
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


def curvature_stat(logp_original: float, perturbed: list[float]) -> tuple[float, float, float]:
    """(d, mean, std) of the perturbation discrepancy; std guard at
    STD_GUARD returns d = 0 for degenerate models.
    """
    arr = np.asarray(perturbed, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std())
    if std < STD_GUARD:
        return 0.0, mean, std
    return (logp_original - mean) / std, mean, std


def detect_gpt_score(lm: NGramLM, doc: Document, cfg: PerturbConfig) -> CurvatureScore:
    """k-perturbation discrepancy with per-token normalized log-probs.

    Perturbation i uses seed cfg.seed + i; exactly k + 1 scoring passes.
    """
    if cfg.k < 2:
        raise DataError("detect_gpt_score needs k >= 2")
    lp_orig = per_token_log_prob(lm, doc)
    perturbed = []
    for i in range(1, cfg.k + 1):
        variant = perturb(doc, replace(cfg, seed=cfg.seed + i))
        perturbed.append(per_token_log_prob(lm, variant))
    d, mean, std = curvature_stat(lp_orig, perturbed)
    return CurvatureScore(
        d=d,
        logp_original=lp_orig,
        logp_perturbed_mean=mean,
        logp_perturbed_std=std,
        k_used=cfg.k,
    )


def single_revise_score(lm: NGramLM, doc: Document, cfg: PerturbConfig) -> CurvatureScore:
    """One-revision fast path: d is the per-token log-prob drop of a
    single rewrite; exactly 2 scoring passes.
    """
    if cfg.k != 1:
        raise DataError("single_revise_score needs k = 1")
    lp_orig = per_token_log_prob(lm, doc)
    variant = perturb(doc, replace(cfg, seed=cfg.seed + 1))
    lp_pert = per_token_log_prob(lm, variant)
    return CurvatureScore(
        d=lp_orig - lp_pert,
        logp_original=lp_orig,
        logp_perturbed_mean=lp_pert,
        logp_perturbed_std=0.0,
        k_used=1,
    )


def classify_curvature(score: CurvatureScore, threshold: float) -> int:
    """1 (Machine) iff d >= threshold."""
    return int(score.d >= threshold)


def sample_document(lm: NGramLM, seed: int, max_tokens: int = 60,
                    sentences: int = 1) -> str:
    """Draw text from the model itself: ancestral sampling per sentence
    until END or the token cap. Surfaces are joined with spaces.
    """
    rng = np.random.default_rng(seed)
    id_to_surface = {i: s for s, i in lm.vocabulary.word_to_id.items()}
    out_sentences = []
    for _ in range(sentences):
        context = [START_ID] * (lm.order - 1)
        words: list[str] = []
        for _ in range(max_tokens):
            probs = lm.distribution(tuple(context))
            probs /= probs.sum()
            target = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
            if target == lm.end_id:
                break
            words.append(id_to_surface.get(target, UNK))
            context = context[1:] + [target]
        if words:
            out_sentences.append(" ".join(words) + ".")
    return " ".join(out_sentences)


# -- persistence --


def save_lm(lm: NGramLM, path: str | Path) -> None:
    """Binary-free JSON: count tables as [ngram ids..., count] rows."""
    payload = {
        "schema_version": LM_SCHEMA_VERSION,
        "order": lm.order,
        "discount": lm.discount,
        "end_id": lm.end_id,
        "vocabulary": {
            "word_to_id": lm.vocabulary.word_to_id,
            "frequencies": lm.vocabulary.frequencies,
        },
        "counts": {
            str(k): sorted([list(g) + [c] for g, c in table.items()])
            for k, table in lm.counts.items()
        },
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_lm(path: str | Path) -> NGramLM:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"{path}: unreadable LM file: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelFormatError(f"{path}: LM file must hold a JSON object")
    version = payload.get("schema_version")
    if version != LM_SCHEMA_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported schema_version {version!r}, expected {LM_SCHEMA_VERSION}"
        )
    try:
        vocab = Vocabulary(
            word_to_id={str(w): int(i) for w, i in payload["vocabulary"]["word_to_id"].items()},
            frequencies={str(w): int(c) for w, c in payload["vocabulary"]["frequencies"].items()},
        )
        order = int(payload["order"])
        discount = float(payload["discount"])
        end_id = int(payload["end_id"])
        if order < 2 or not (0.0 < discount < 1.0):
            raise ValueError(f"order {order} or discount {discount} out of range")
        if end_id != vocab.size:
            raise ValueError(f"end_id {end_id} differs from the vocabulary size {vocab.size}")
        tables = payload["counts"]
        if sorted(tables) != sorted(str(k) for k in range(1, order + 1)):
            raise ValueError(f"count levels {sorted(tables)} are not 1..{order}")
        counts: dict[int, dict[tuple[int, ...], float]] = {}
        for k in range(1, order + 1):
            rows = tables[str(k)]
            _check_count_rows(k, rows, end_id)
            counts[k] = {tuple(int(x) for x in row[:-1]): float(row[-1]) for row in rows}
            if len(counts[k]) != len(rows):
                raise ValueError(f"level {k} repeats an n-gram")
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, DataError) as exc:
        raise ModelFormatError(f"{path}: corrupted LM field: {exc}") from exc
    return NGramLM(order=order, discount=discount, vocabulary=vocab, counts=counts,
                   end_id=end_id)


def _check_count_rows(level: int, rows: list, end_id: int) -> None:
    """Raise ValueError unless *rows* is a non-empty table of
    [context ids..., target id, count] rows: context ids in [START_ID,
    end_id), the target in [0, end_id], integral ids, and a positive,
    finite count.
    """
    table = np.asarray(rows, dtype=float)
    if table.ndim != 2 or table.shape[0] == 0 or table.shape[1] != level + 1:
        raise ValueError(f"level {level} must be a non-empty list of {level + 1}-item rows")
    context, target, count = table[:, :-2], table[:, -2], table[:, -1]
    ids = table[:, :-1]
    if not (np.all(ids == np.floor(ids))
            and np.all((context >= START_ID) & (context < end_id))
            and np.all((target >= 0) & (target <= end_id))):
        raise ValueError(f"level {level} holds an id outside the vocabulary")
    if not np.all(np.isfinite(count) & (count > 0)):
        raise ValueError(f"level {level} holds a count that is not positive and finite")
