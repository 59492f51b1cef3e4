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
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    ModelFormatError,
    json_float,
    json_int,
    json_keys,
    parse_json,
    read_text,
)
from .ingest import Document
from .text_core import (
    ABBREVIATION_WORDS,
    UNK,
    WORD_CHAR_RE,
    Token,
    Vocabulary,
    period_chunk_words,
    rewrite_units,
    seeded_rewrites,
    split_sentences,
    token_spans,
    tokenize,
    vocab_from_counts,
)

LM_SCHEMA_VERSION = 1
# The keys save_lm writes, at the top level and under "vocabulary"; load_lm
# refuses any other.
LM_KEYS = ("counts", "discount", "end_id", "order", "schema_version", "vocabulary")
VOCABULARY_KEYS = ("frequencies", "word_to_id")
STD_GUARD = 1e-9

END = "</s>"  # predictable end-of-sentence symbol
START_ID = -1  # context-only padding id, never predicted
WordToken = tuple[int, int, str]  # a word token's sentence, position and surface


@dataclass(eq=False)
class NGramLM:
    """Interpolated Kneser-Ney n-gram model over packed n-gram keys.

    The highest order keeps raw counts with absolute discounting; lower
    orders use continuation counts; the recursion bottoms out at the
    uniform distribution over the event space (vocabulary + UNK + END),
    so every conditional sums to one.

    An n-gram is one int64 key: its ids shifted by one (START_ID becomes 0)
    are the digits of a base ``end_id + 2`` number, first id most
    significant, so key order is the order of the id lists. ``grams[k]``
    holds level k's sorted keys and their counts; ``contexts[k]``, derived
    on construction, the sorted unique context keys (key // base) with
    their count totals and back-off weights (discount times the number of
    distinct continuations, over the total); ``unigram_probs``, level 1's
    probability of every shifted id.

    ``scoring_passes`` counts the texts scored for a statistic, one pass
    per scored text (_log_probs_per_symbol adds them all, whether a
    text's ids came from tokenizing a string or from patching a
    tokenized original): one per per_token_log_prob call, k + 1 per
    detect_gpt_score call, 2 per single_revise_score call; the detectors'
    pass budget is asserted against it in tests. ``train_perplexity`` is
    the perplexity of the training texts, set by train_kn_lm from the
    windows it counted; None for a loaded model.
    """

    order: int
    discount: float
    vocabulary: Vocabulary
    grams: dict[int, tuple[np.ndarray, np.ndarray]]
    end_id: int
    scoring_passes: int = 0
    train_perplexity: float | None = None
    base: int = field(init=False, repr=False)
    contexts: dict[int, tuple[np.ndarray, ...]] = field(init=False, repr=False)
    unigram_probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.base = self.end_id + 2
        self.contexts = {}
        for k, (keys, counts) in self.grams.items():
            context_keys, starts, distinct = np.unique(keys // self.base, return_index=True,
                                                       return_counts=True)
            totals = np.add.reduceat(counts, starts)
            # Divided in place, so that no third array of this size is live
            # at the peak memory of train and detect.
            backoff = self.discount * distinct
            backoff /= totals
            self.contexts[k] = (context_keys, totals, backoff)
        # Level 1 has the one context 0, as every unigram key is below base,
        # and backs off to the uniform distribution. Its P(target) for every
        # shifted id, by the operations _probs's higher levels use: the
        # first step of each _probs walk is then one lookup.
        keys, counts = self.grams[1]
        [total], [backoff] = self.contexts[1][1:]
        self.unigram_probs = np.zeros(self.base)
        self.unigram_probs[keys] = np.maximum(counts - self.discount, 0.0)
        self.unigram_probs /= total
        self.unigram_probs += backoff * (1.0 / self.event_size)

    @property
    def event_size(self) -> int:
        # All predictable symbols: vocabulary ids (UNK included) plus END.
        return self.vocabulary.size + 1

    def _tokenized(self, texts: Iterable[str]) -> tuple[list[list[int]], list[WordToken]]:
        """The id list of each non-empty sentence of *texts* (OOV tokens as
        UNK), and each word token's (sentence, position, surface)."""
        sentences: list[list[int]] = []
        words: list[WordToken] = []
        for tokens in _sentence_tokens(texts):
            words += [(len(sentences), p, t.surface) for p, t in enumerate(tokens) if t.is_word]
            sentences.append([self.vocabulary.id_of(t.surface) for t in tokens])
        return sentences, words

    def _sweep(self, groups: list[list[list[int]]]) -> list[float]:
        """The sum of log P over each group of id sentences, from one
        _windows + _probs sweep over the rows of every group."""
        sentences = [ids for group in groups for ids in group]
        if not sentences:
            return [0.0] * len(groups)
        return _log_totals(self._probs(_windows(sentences, self.order, self.end_id)), groups)

    def prob(self, context: tuple[int, ...], target: int) -> float:
        """P(target | context) via the interpolated recursion."""
        return float(self._probs(self._rows(context, [target]))[0])

    def distribution(self, context: tuple[int, ...]) -> np.ndarray:
        """Dense conditional distribution over the event space; the
        vectorized counterpart of prob().
        """
        return self._probs(self._rows(context, np.arange(self.event_size)))

    def _rows(self, context: tuple[int, ...], targets) -> np.ndarray:
        # The trailing order - 1 context ids, left-padded with the start
        # symbol, then each target; all shifted by one.
        ctx = list(context)[-(self.order - 1):]
        ids = [START_ID] * (self.order - 1 - len(ctx)) + ctx
        rows = np.column_stack([np.tile(ids, (len(targets), 1)), targets]).astype(np.int64) + 1
        if rows.min() < 0 or rows.max() > self.end_id + 1:
            raise DataError(f"ids must lie in [{START_ID}, {self.end_id}]")
        return rows

    def _probs(self, windows: np.ndarray) -> np.ndarray:
        """P(target | context) for each row of *windows* (order - 1 shifted
        context ids, then the shifted target), walking the levels from 1 up:
        a level that has not seen the context passes the lower value through.
        """
        target = windows[:, -1]
        probs = self.unigram_probs[target]
        context = np.zeros(len(windows), dtype=np.int64)
        for k in range(2, self.order + 1):
            context += windows[:, -k] * self.base ** (k - 2)
            context_keys, totals, backoff = self.contexts[k]
            # Every total is positive, so an unseen context's stand-in row
            # computes a finite value that the last step drops.
            i = np.minimum(context_keys.searchsorted(context), len(context_keys) - 1)
            mixed = (self._discounted_counts(k, context * self.base + target) / totals[i]
                     + backoff[i] * probs)
            probs = np.where(context_keys[i] == context, mixed, probs)
        return probs

    def _discounted_counts(self, k: int, grams: np.ndarray) -> np.ndarray:
        """The count of each of level k's packed *grams* (0 for an n-gram
        the level has not seen) less the discount, floored at 0."""
        keys, counts = self.grams[k]
        j = np.minimum(keys.searchsorted(grams), len(keys) - 1)
        return np.maximum(np.where(keys[j] == grams, counts[j], 0.0) - self.discount, 0.0)


def _pack_powers(level: int, base: int) -> np.ndarray:
    """The place values of a *level*-digit key, most significant first."""
    return base ** np.arange(level - 1, -1, -1, dtype=np.int64)


def _pack(digits: np.ndarray, base: int) -> np.ndarray:
    """The packed key of each row of *digits*: shifted ids, first most significant."""
    return digits @ _pack_powers(digits.shape[1], base)


def _pack_base(order: int, end_id: int) -> int:
    """The key base; DataError when an order-gram key could pass int64."""
    base = end_id + 2
    if base**order > 2**63:
        raise DataError(f"order {order} over {end_id + 1} symbols exceeds the packed-key "
                        "limit (end_id + 2) ** order <= 2**63")
    return base


def _windows(sentences: list[list[int]], order: int, end_id: int) -> np.ndarray:
    """One row per predicted position of the START/END-padded *sentences*:
    the order - 1 context ids, then the target, all shifted by one."""
    seq: list[int] = []
    for ids in sentences:
        seq += [START_ID] * (order - 1) + ids + [end_id]
    shifted = np.array(seq, dtype=np.int64) + 1
    # START (shifted to 0) is never predicted; every other place is.
    targets = np.flatnonzero(shifted)
    return shifted[targets[:, None] + np.arange(1 - order, 1)]


def _symbols(sentences: list[list[int]]) -> int:
    """The predicted positions of *sentences*: each id and each END."""
    return sum(len(ids) + 1 for ids in sentences)


def _log_totals(probs: np.ndarray, groups: list[list[list[int]]]) -> list[float]:
    """Per group, the sum of log *probs*, whose rows are the len(ids) + 1
    predicted positions of each sentence of each group in turn: math.log
    and left-to-right sums per sentence, then over the group's sentences
    (np.log or np.sum could differ in the last bit). A group's total does
    not depend on the groups beside it.
    """
    values = probs.tolist()
    totals = []
    start = 0
    for sentences in groups:
        total = 0.0
        for ids in sentences:
            stop = start + len(ids) + 1
            sentence = 0.0
            for p in values[start:stop]:
                sentence += math.log(p)
            total += sentence
            start = stop
        totals.append(total)
    return totals


def _sentence_tokens(texts: Iterable[str]) -> Iterator[list[Token]]:
    """The tokens of each non-empty sentence of *texts*, in order."""
    for text in texts:
        for sent in split_sentences(text):
            tokens = tokenize(sent)
            if tokens:
                yield tokens


def check_kn_params(order: int, discount: float) -> None:
    """DataError unless train_kn_lm accepts *order* and *discount*."""
    if order < 2:
        raise DataError("order must be >= 2")
    if not (0.0 < discount < 1.0):
        raise DataError("discount must lie in (0, 1)")


def train_kn_lm(texts: list[str], order: int = 3, discount: float = 0.75) -> NGramLM:
    """Count n-grams of all orders over start/end padded sentences and
    derive the continuation tables used below the top order; one
    tokenization per sentence feeds the vocabulary, the counts and the
    training perplexity. DataError when (vocabulary size + 2) ** order
    passes 2**63, the packed-key limit.
    """
    check_kn_params(order, discount)
    if not texts:
        raise DataError("cannot train a language model on an empty corpus")
    tokenized = list(_sentence_tokens(texts))
    vocab = vocab_from_counts(Counter(t.surface for tokens in tokenized for t in tokens))
    end_id = vocab.size  # one past the vocabulary ids

    sentences = [[vocab.id_of(t.surface) for t in tokens] for tokens in tokenized]
    longest = max(len(ids) for ids in sentences)
    if order > longest + 2:
        raise DataError(
            f"order {order} exceeds the longest sentence plus padding ({longest + 2})"
        )

    base = _pack_base(order, end_id)
    # Only n-grams ending at a predicted position count, so the padding
    # start symbols are contexts, never events.
    windows = _windows(sentences, order, end_id)
    grams: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for k in range(2, order + 1):
        keys, raw = np.unique(_pack(windows[:, order - k:], base), return_counts=True)
        # Level k - 1 uses continuation counts: how many distinct one-id
        # left extensions of each (k-1)-gram the k-grams hold.
        suffixes, cont = np.unique(keys % base ** (k - 1), return_counts=True)
        grams[k - 1] = (suffixes, cont.astype(float))
    # Top order keeps raw counts.
    grams[order] = (keys, raw.astype(float))
    lm = NGramLM(order=order, discount=discount, vocabulary=vocab, grams=grams,
                 end_id=end_id)
    # One sweep over the training windows gives what perplexity(lm, texts)
    # computes, bit for bit, without tokenizing the texts again.
    [total] = _log_totals(lm._probs(windows), [sentences])
    lm.train_perplexity = math.exp(-total / len(windows))
    return lm


def per_token_log_prob(lm: NGramLM, doc: Document) -> float:
    """Total log probability of the document normalized by the number of
    predicted symbols, so the statistic is comparable across document
    lengths.
    """
    return _log_probs_per_symbol(lm, [_body_ids(lm, doc, doc.body)[0]])[0]


def perplexity(lm: NGramLM, texts: list[str]) -> float:
    """exp(mean negative log probability per predicted symbol)."""
    sentences, _ = lm._tokenized(texts)
    symbols = _symbols(sentences)
    if symbols == 0:
        raise DataError("no symbols to evaluate")
    [total] = lm._sweep([sentences])
    return math.exp(-total / symbols)


def _body_ids(lm: NGramLM, doc: Document, body: str) -> tuple[list[list[int]], list[WordToken]]:
    """lm._tokenized([body]); DataError when *body* has no word token."""
    sentences, words = lm._tokenized([body])
    if not words:
        raise DataError(f"document {doc.id!r} has no word tokens")
    return sentences, words


def _log_probs_per_symbol(lm: NGramLM, groups: list[list[list[int]]]) -> list[float]:
    """The log probability per predicted symbol of each group of id
    sentences, all scored in one sweep, one scoring pass added per group.
    The only code that adds to lm.scoring_passes.
    """
    totals = lm._sweep(groups)
    lm.scoring_passes += len(groups)
    return [total / _symbols(sentences) for total, sentences in zip(totals, groups)]


def check_perturb_params(mask_fraction: float, k: int) -> None:
    """DataError unless PerturbConfig accepts *mask_fraction* and *k*."""
    if not (0.0 <= mask_fraction <= 1.0):
        raise DataError("mask_fraction must lie in [0, 1]")
    if k < 1:
        raise DataError("k must be >= 1")


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
        check_perturb_params(self.mask_fraction, self.k)

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
        freq = pool.frequencies
        # The word surfaces but UNK, filtered at C speed, sorted by word,
        # then stably by frequency: the (frequency, word) order. Those of
        # frequency 0 lead and are cut.
        words = sorted(filter(WORD_CHAR_RE.search, filter(UNK.__ne__, freq)))
        words.sort(key=freq.__getitem__)
        freqs = list(map(freq.__getitem__, words))
        start = bisect_right(freqs, 0)
        self.words, self.freqs = words[start:], freqs[start:]
        if not self.words:
            raise DataError("substitution pool contains no words")
        self.freq_of = dict(zip(self.words, self.freqs))
        self._bands: dict[str, tuple[int, memoryview]] = {}
        self._freq_bands: dict[int | None, tuple[int, memoryview]] = {}
        self._patch_surfaces: dict[str, str | None] = {}

    def _band(self, original: str) -> tuple[int, memoryview]:
        """The first pool index and the CDF of the words drawn for
        *original*: those within band octaves of its frequency, else (no
        band, *original* not in the pool, or no other word in its band) the
        whole pool. Built once per frequency (None: the whole pool) and
        memoized per original, so that a draw makes one dict lookup."""
        band = self._bands.get(original)
        if band is None:
            f = None if self.band is None else self.freq_of.get(original)
            if f not in self._freq_bands:
                lo, hi = 0, len(self.words)
                if f is not None:
                    a = bisect_left(self.freqs, f / (2.0**self.band))
                    b = bisect_right(self.freqs, f * (2.0**self.band))
                    if b - a >= 2:
                        lo, hi = a, b
                # A memoryview of the float64 cumsum, so that bisect_right
                # finds the index np.searchsorted(side="right") would, at a
                # fraction of a scalar call's cost and with no copy.
                weights = np.array(self.freqs[lo:hi], dtype=float)
                self._freq_bands[f] = lo, memoryview(np.cumsum(weights / weights.sum()))
            band = self._bands[original] = self._freq_bands[f]
        return band

    def draw(self, rng: np.random.Generator, original: str) -> str:
        lo, cdf = self._band(original)
        pick = original
        for _ in range(11):
            pick = self.words[lo + bisect_right(cdf, rng.random())]
            if pick != original:
                return pick
        return pick

    def patch_surface(self, pick: str) -> str | None:
        """The token surface of *pick* when, spliced in place of a word,
        it is one word token whatever surrounds it; None otherwise.
        Memoized per drawn word.
        """
        if pick not in self._patch_surfaces:
            one_word = token_spans(pick) == [(0, len(pick), True)]
            self._patch_surfaces[pick] = pick.lower() if one_word else None
        return self._patch_surfaces[pick]


def perturb(doc: Document, cfg: PerturbConfig) -> Document:
    """Replace floor(mask_fraction * word_count) word tokens, chosen by
    seeded sampling without replacement, with pool draws spliced in as
    they are; every other character of the body is kept. A draw that
    tokenizes as one word keeps the token count; a pool surface that does
    not ("x y", or "i̇stanbul", whose combining dot is a punctuation
    token) adds tokens, and a draw beside a period can make or unmake an
    abbreviation and so move a sentence end. Identical (doc, cfg) gives
    identical output.
    """
    [body] = _perturbed_bodies(doc.body, cfg, [cfg.seed])
    return doc if body == doc.body else replace(doc, body=body)


def _perturbed_bodies(body: str, cfg: PerturbConfig, seeds: Iterable[int]) -> list[str]:
    """The body perturb() gives under each of *seeds* in turn: its word
    spans, found once, rewritten by rewrite_units, each chosen word
    replaced by a pool draw for its lowercased surface.
    """
    words = [(a, b) for a, b, is_word in token_spans(body) if is_word]

    def draw(rng: np.random.Generator, word: str) -> str:
        return cfg._sampler().draw(rng, word.lower())

    return [rewrite_units(body, words, cfg.mask_fraction, seed, draw) for seed in seeds]


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


def _rewrite_groups(lm: NGramLM, doc: Document, cfg: PerturbConfig,
                    seeds: Iterable[int]) -> list[list[list[int]]]:
    """The id sentences of doc's body, then of its rewrite under each of
    *seeds*: what tokenizing [doc.body, *_perturbed_bodies(doc.body, cfg,
    seeds)] gives, computed in id space. The body is tokenized once; each
    rewrite makes rewrite_units' draws through seeded_rewrites and patches
    each pick's id into a copy of the body's ids. A rewrite whose draws
    could re-segment the text is spliced and tokenized as a string
    instead: one with a pick that patch_surface refuses, or with a word
    in a chunk ending in "." whose original or pick is in
    ABBREVIATION_WORDS. DataError when the body has no word token.
    """
    sentences, words = _body_ids(lm, doc, doc.body)
    sampler = cfg._sampler()
    period_chunks: list[bool] = []  # period_chunk_words(doc.body), built on first need

    def draw(rng: np.random.Generator, i: int) -> str:
        return sampler.draw(rng, words[i][2])

    def resegments(i: int, surface: str | None) -> bool:
        if surface is None:
            return True
        if words[i][2] not in ABBREVIATION_WORDS and surface not in ABBREVIATION_WORDS:
            return False
        if not period_chunks:
            period_chunks[:] = period_chunk_words(doc.body)
        return period_chunks[i]

    groups = [sentences]
    for seed in seeds:
        patched = sentences.copy()
        for i, pick in seeded_rewrites(len(words), cfg.mask_fraction, seed, draw):
            surface = sampler.patch_surface(pick)
            if resegments(i, surface):
                [rewrite] = _perturbed_bodies(doc.body, cfg, [seed])
                patched, _ = _body_ids(lm, doc, rewrite)
                break
            s, p, _ = words[i]
            if patched[s] is sentences[s]:
                patched[s] = sentences[s].copy()
            patched[s][p] = lm.vocabulary.id_of(surface)
        groups.append(patched)
    return groups


def detect_gpt_score(lm: NGramLM, doc: Document, cfg: PerturbConfig) -> CurvatureScore:
    """k-perturbation discrepancy with per-token normalized log-probs.

    Perturbation i uses seed cfg.seed + i; exactly k + 1 scoring passes.
    """
    if cfg.k < 2:
        raise DataError("detect_gpt_score needs k >= 2")
    return _curvature_score(lm, doc, cfg)


def single_revise_score(lm: NGramLM, doc: Document, cfg: PerturbConfig) -> CurvatureScore:
    """One-revision fast path: d is the per-token log-prob drop of a
    single rewrite; exactly 2 scoring passes.
    """
    if cfg.k != 1:
        raise DataError("single_revise_score needs k = 1")
    return _curvature_score(lm, doc, cfg)


def _curvature_score(lm: NGramLM, doc: Document, cfg: PerturbConfig) -> CurvatureScore:
    """The original and its k rewrites, seeds cfg.seed + 1 .. cfg.seed + k,
    scored in one _log_probs_per_symbol call: k + 1 passes. d is
    curvature_stat's for k >= 2, and for k = 1 the plain drop from the
    original to the rewrite, with std 0.
    """
    seeds = range(cfg.seed + 1, cfg.seed + cfg.k + 1)
    lp_orig, *perturbed = _log_probs_per_symbol(lm, _rewrite_groups(lm, doc, cfg, seeds))
    if cfg.k == 1:
        [mean], std = perturbed, 0.0
        d = lp_orig - mean
    else:
        d, mean, std = curvature_stat(lp_orig, perturbed)
    return CurvatureScore(d=d, logp_original=lp_orig, logp_perturbed_mean=mean,
                          logp_perturbed_std=std, k_used=cfg.k)


def sample_document(lm: NGramLM, seed: int, max_tokens: int = 60,
                    sentences: int = 1) -> str:
    """Draw text from the model itself: ancestral sampling per sentence
    until END or the token cap. Surfaces are joined with spaces.
    """
    rng = np.random.default_rng(seed)
    id_to_surface = {i: s for s, i in lm.vocabulary.word_to_id.items()}
    # Each context's cumulative distribution, computed on first use.
    cdfs: dict[tuple[int, ...], np.ndarray] = {}
    out_sentences = []
    for _ in range(sentences):
        context = [START_ID] * (lm.order - 1)
        words: list[str] = []
        for _ in range(max_tokens):
            key = tuple(context)
            cdf = cdfs.get(key)
            if cdf is None:
                probs = lm.distribution(key)
                cdf = cdfs[key] = np.cumsum(probs / probs.sum())
            target = int(np.searchsorted(cdf, rng.random(), side="right"))
            if target == lm.end_id:
                break
            words.append(id_to_surface.get(target, UNK))
            context = context[1:] + [target]
        if words:
            out_sentences.append(" ".join(words) + ".")
    return " ".join(out_sentences)


# -- persistence --


def save_lm(lm: NGramLM, path: str | Path) -> None:
    """Binary-free JSON: count tables as [ngram ids..., count] rows.

    The bytes are those of json.dumps(payload, sort_keys=True), with each
    level's rows formatted straight from the packed arrays: one string per
    id and one per distinct count (as json.dumps formats it), gathered by
    column into one cell per value and joined once with ", ". The cells
    of the first column open a row with "[" and those of the count column
    close it with "]", so that rows are joined by "], [". "counts" sorts
    before every other key, so it opens the object json.dumps writes for
    the rest of the payload.
    """
    ids = [str(i) for i in range(START_ID, lm.end_id + 1)]  # indexed by shifted id
    opening = np.array(["[" + s for s in ids], dtype=object)
    inner = np.array(ids, dtype=object)
    levels = []
    for name in sorted(map(str, lm.grams)):  # json's key order: "10" before "2"
        k = int(name)
        keys, counts = lm.grams[k]
        digits = keys[:, None] // _pack_powers(k, lm.base) % lm.base
        distinct, which = np.unique(counts, return_inverse=True)
        closing = [s + "]" for s in json.dumps(distinct.tolist())[1:-1].split(", ")]
        cells = np.empty((len(keys), k + 1), dtype=object)
        cells[:, 0] = opening[digits[:, 0]]
        cells[:, 1:k] = inner[digits[:, 1:]]
        cells[:, k] = np.array(closing, dtype=object)[which]
        levels.append(f'"{name}": [{", ".join(cells.ravel().tolist())}]')
    rest = json.dumps({
        "schema_version": LM_SCHEMA_VERSION,
        "order": lm.order,
        "discount": lm.discount,
        "end_id": lm.end_id,
        "vocabulary": {
            "word_to_id": lm.vocabulary.word_to_id,
            "frequencies": lm.vocabulary.frequencies,
        },
    }, sort_keys=True)
    text = '{"counts": {' + ", ".join(levels) + "}, " + rest[1:]
    Path(path).write_text(text, encoding="utf-8")


ROW_BREAK = "], ["  # between two rows of a level, as save_lm writes them


def load_lm(path: str | Path) -> NGramLM:
    """The model save_lm wrote to *path*; ModelFormatError when the file
    is not such a model.

    Before the one json.loads, every ROW_BREAK becomes ", null, ", so that
    a level decodes as flat lists of numbers with a null between rows, not
    as a list per row (_check_count_rows cuts them). The file may hold no
    key save_lm does not write (LM_KEYS, VOCABULARY_KEYS) and no vocabulary
    word holding ", null, ", so every ROW_BREAK left sits in a count table:
    the nulls found there must equal the replacements made, and a literal
    null in a table refuses the file.
    """
    text = read_text(path, ModelFormatError)
    breaks = text.count(ROW_BREAK)
    payload = parse_json(text.replace(ROW_BREAK, ", null, "), str(path), ModelFormatError)
    del text  # freed before the tables are built
    if not isinstance(payload, dict):
        raise ModelFormatError(f"{path}: LM file must hold a JSON object")
    version = payload.get("schema_version")
    if version != LM_SCHEMA_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported schema_version {version!r}, expected {LM_SCHEMA_VERSION}"
        )
    try:
        json_keys(payload, LM_KEYS)
        vocabulary = json_keys(payload["vocabulary"], VOCABULARY_KEYS, "vocabulary")
        word_to_id, frequencies = vocabulary["word_to_id"], vocabulary["frequencies"]
        for name, table in vocabulary.items():
            # One type scan per table: every value a JSON integer.
            if not set(map(type, table.values())) <= {int}:
                raise ValueError(f"vocabulary {name} holds a value that is not a JSON integer")
        if frequencies.keys() != word_to_id.keys() or min(frequencies.values()) < 0:
            raise ValueError("vocabulary frequencies must be integers >= 0 for word_to_id's words")
        if ", null, " in "\n".join(word_to_id):  # no match spans two words
            raise ValueError(f"a vocabulary word holds {ROW_BREAK!r} or ', null, '")
        vocab = Vocabulary(word_to_id=word_to_id, frequencies=frequencies)
        order = json_int(payload["order"])
        discount = json_float(payload["discount"])
        end_id = json_int(payload["end_id"])
        check_kn_params(order, discount)
        if end_id != vocab.size:
            raise ValueError(f"end_id {end_id} differs from the vocabulary size {vocab.size}")
        tables = payload["counts"]
        if sorted(tables) != sorted(str(k) for k in range(1, order + 1)):
            raise ValueError(f"count levels {sorted(tables)} are not 1..{order}")
        base = _pack_base(order, end_id)
        grams: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        found = 0
        for k in range(1, order + 1):
            table, level_breaks = _check_count_rows(k, tables[str(k)], end_id)
            found += level_breaks
            keys, first = np.unique(_pack(table[:, :-1].astype(np.int64) + 1, base),
                                    return_index=True)
            if len(keys) != len(table):
                raise ValueError(f"level {k} repeats an n-gram")
            grams[k] = (keys, table[first, -1])
        if found != breaks:
            raise ValueError(f"the count tables hold {found} row breaks, the file "
                             f"{breaks} {ROW_BREAK!r}")
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, DataError) as exc:
        raise ModelFormatError(f"{path}: corrupted LM field: {exc}") from exc
    return NGramLM(order=order, discount=discount, vocabulary=vocab, grams=grams,
                   end_id=end_id)


def _check_count_rows(level: int, segments: list, end_id: int) -> tuple[np.ndarray, int]:
    """Level *level*'s rows as a float table, and the row breaks (nulls)
    found between them. *segments* is the level as load_lm decodes it:
    lists of row values with a null between rows, one list for the layout
    save_lm writes and one per row for a layout with no ROW_BREAK (compact
    or indented JSON). ValueError unless the rows are a non-empty table of
    [context ids..., target id, count] rows: JSON integer ids, context ids
    in [START_ID, end_id), the target in [0, end_id], and a positive,
    finite JSON number as count.
    """
    width = level + 1
    flat: list = []  # each row's values, then a null
    for values in segments:
        if type(values) is not list:
            raise ValueError(f"level {level} must be a list of rows")
        flat += values
        flat.append(None)
    rows, ragged = divmod(len(flat), width + 1)
    # The rows' columns, and the nulls that end them.
    *columns, nulls = (flat[j::width + 1] for j in range(width + 1))
    kinds = [set(map(type, column)) for column in columns]
    if (rows == 0 or ragged or nulls.count(None) != rows
            or any(type(None) in kind for kind in kinds)):
        raise ValueError(f"level {level} must be a non-empty list of {width}-item rows")
    if any(kind != {int} for kind in kinds[:-1]):
        raise ValueError(f"level {level} holds an id that is not a JSON integer")
    if not kinds[-1] <= {int, float}:
        raise ValueError(f"level {level} holds a count that is not a JSON number")
    table = np.array(columns, dtype=float).T
    context, target, count = table[:, :-2], table[:, -2], table[:, -1]
    if not (np.all((context >= START_ID) & (context < end_id))
            and np.all((target >= 0) & (target <= end_id))):
        raise ValueError(f"level {level} holds an id outside the vocabulary")
    if not np.all(np.isfinite(count) & (count > 0)):
        raise ValueError(f"level {level} holds a count that is not positive and finite")
    with np.errstate(over="ignore"):
        total = count.sum()
    if not np.isfinite(total):  # a context's total would overflow in NGramLM
        raise ValueError(f"level {level} counts sum past the float range")
    return table, rows - len(segments)
