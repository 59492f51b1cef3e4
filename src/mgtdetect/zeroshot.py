"""Zero-shot detection by probability curvature.

A document is scored under a smoothed n-gram language model standing in
for the source model p. Minor rewrites of model-generated text tend to
score lower under p than the original, while rewrites of human text move
either way; the normalized gap between the original log probability and
the mean over rewrites is the detection statistic d.

Two methods, one row each of SCORES: the k-perturbation estimator
(k+1 scoring passes) and the single-revision fast path (2 scoring passes).
Their config declarations (keys, defaults, ranges and numbers of rewrites)
are in sections.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import (
    DataError,
    json_float,
    json_int,
    json_keys,
    parse_json,
    read_text,
)
from .ingest import DetectorScorer, Document
from .sections import METHODS, check_parameters
from .text_core import (
    ABBREVIATION_WORDS,
    UNK,
    WORD_CHAR_RE,
    Vocabulary,
    period_chunk_words,
    seeded_rewrites,
    splice_units,
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
# lm.bin, the binary copy that save_lm writes beside lm.json: after the two
# SHA-256 digests, the magic, then order, end_id, the number of words, the
# vocabulary text's byte length and discount (_save_lm_bin has the rest).
LM_BIN_MAGIC = b"mgtlm\x00b1"
LM_BIN_HEADER = struct.Struct("<8s4qd")
STD_GUARD = 1e-9
# The rows that save_lm writes (count rows, vocabulary entries) and that
# train_kn_lm scores and _log_totals converts to floats, at a time: their
# memory stays within a fixed multiple of a block, not of the model.
ROW_BLOCK = 1 << 12
BAND_OCTAVES = 1.0  # substitutes lie within this many octaves of the original's frequency

END = "</s>"  # predictable end-of-sentence symbol
START_ID = -1  # context-only padding id, never predicted
WordToken = tuple[int, int, str]  # a word token's sentence, position and surface

# Each zero-shot method's curvature score, called by its module name so that
# a wrapper set on that name sees the call: one row for each row of
# sections.METHODS, which holds the method's number of rewrites.
SCORES = {
    "detect_gpt": lambda lm, doc, cfg: detect_gpt_score(lm, doc, cfg),
    "single_revise": lambda lm, doc, cfg: single_revise_score(lm, doc, cfg),
}


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
    the perplexity of the training texts, exp(mean negative log P per
    predicted symbol), set by train_kn_lm from the windows it counted;
    None for a loaded model.
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
            # The keys are sorted, so each context's n-grams are one run.
            context = keys // self.base
            starts = np.flatnonzero(np.diff(context, prepend=-1))
            context_keys, distinct = context[starts], np.diff(starts, append=len(keys))
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
            words += [(len(sentences), p, s) for p, s in enumerate(tokens) if s[0].isalnum()]
            sentences.append([self.vocabulary.id_of(s) for s in tokens])
        return sentences, words

    def distribution(self, context: tuple[int, ...]) -> np.ndarray:
        """Dense conditional distribution P(target | context) over the
        event space, via the interpolated recursion."""
        # The trailing order - 1 context ids, left-padded with the start
        # symbol, then each target; all shifted by one.
        ctx = list(context)[-(self.order - 1):]
        ids = [START_ID] * (self.order - 1 - len(ctx)) + ctx
        targets = np.arange(self.event_size)
        rows = np.column_stack([np.tile(ids, (len(targets), 1)), targets]).astype(np.int64) + 1
        if rows.min() < 0 or rows.max() > self.end_id + 1:
            raise DataError(f"ids must lie in [{START_ID}, {self.end_id}]")
        return self._probs(rows)

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


def _unpack(keys: np.ndarray, level: int, base: int) -> np.ndarray:
    """The digits of each of the *level*-digit *keys*, a row per key: _pack's inverse."""
    return keys[:, None] // _pack_powers(level, base) % base


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
    # START (shifted to 0) is never predicted; every other place is. The
    # rows are filled a column at a time, so that no index array of their
    # size is built.
    targets = np.flatnonzero(shifted)
    windows = np.empty((len(targets), order), dtype=np.int64)
    for j in range(order):
        windows[:, j] = shifted[targets + (j + 1 - order)]
    return windows


def _positions(sentences: list[list[int]]) -> list[int]:
    """The predicted positions of each of *sentences*: each id and the END."""
    return [len(ids) + 1 for ids in sentences]


def _log_totals(probs: np.ndarray, groups: list[list[int]]) -> list[float]:
    """Per group, the sum of log *probs*, whose rows are the predicted
    positions of each sentence of each group in turn, a group listing how
    many each of its sentences has (_positions): math.log and
    left-to-right sums per sentence, then over the group's sentences
    (np.log or np.sum could differ in the last bit). A group's total does
    not depend on the groups beside it. *probs* become floats ROW_BLOCK
    rows at a time, so that no list of all of them is built. DataError
    when a probability is 0, as back-off products over a loaded model's
    counts can underflow to.
    """
    values = chain.from_iterable(probs[start:start + ROW_BLOCK].tolist()
                                 for start in range(0, len(probs), ROW_BLOCK))
    totals = []
    try:
        for positions in groups:
            total = 0.0
            for n in positions:
                sentence = 0.0
                for p in islice(values, n):
                    sentence += math.log(p)
                total += sentence
            totals.append(total)
    except ValueError:  # math.log(0.0)
        raise DataError("a predicted symbol has probability 0 under the language model") from None
    return totals


def _sentence_tokens(texts: Iterable[str]) -> Iterator[list[str]]:
    """The token surfaces of each non-empty sentence of *texts*, in order."""
    for text in texts:
        for sent in split_sentences(text):
            tokens = tokenize(sent)
            if tokens:
                yield tokens


def train_kn_lm(texts: list[str], order: int = 3, discount: float = 0.75) -> NGramLM:
    """Count n-grams of all orders over start/end padded sentences and
    derive the continuation tables used below the top order; one
    tokenization per sentence feeds the vocabulary, the counts and the
    training perplexity. DataError when (vocabulary size + 2) ** order
    passes 2**63, the packed-key limit.
    """
    check_parameters({"order": order, "discount": discount})
    if not texts:
        raise DataError("cannot train a language model on an empty corpus")
    # Only surfaces are made, and each sentence's surfaces go as its ids
    # replace them: no surface but the vocabulary's is held past this point.
    sentences = list(_sentence_tokens(texts))
    vocab = vocab_from_counts(Counter(chain.from_iterable(sentences)))
    end_id = vocab.size  # one past the vocabulary ids
    id_of = vocab.word_to_id.__getitem__  # every surface was counted
    for i, surfaces in enumerate(sentences):
        sentences[i] = list(map(id_of, surfaces))

    longest = max(len(ids) for ids in sentences)
    if order > longest + 2:
        raise DataError(
            f"order {order} exceeds the longest sentence plus padding ({longest + 2})"
        )

    base = _pack_base(order, end_id)
    # Only n-grams ending at a predicted position count, so the padding
    # start symbols are contexts, never events. Each window is one top-order
    # key; the inverse maps every window to its distinct key.
    keys, inverse, raw = np.unique(_pack(_windows(sentences, order, end_id), base),
                                   return_inverse=True, return_counts=True)
    positions = _positions(sentences)
    del sentences  # from here on, only how many rows each sentence has
    # Top order keeps raw counts. Level k - 1 uses continuation counts: how
    # many distinct one-id left extensions of each (k-1)-gram the k-grams
    # hold. The distinct k-grams are the k-id suffixes of the distinct
    # top-order keys, so each level comes from the distinct keys above it.
    grams = {order: (keys, raw.astype(float))}
    for k in range(order, 1, -1):
        suffixes, cont = np.unique(grams[k][0] % base ** (k - 1), return_counts=True)
        grams[k - 1] = (suffixes, cont.astype(float))
    lm = NGramLM(order=order, discount=discount, vocabulary=vocab, grams=grams,
                 end_id=end_id)
    # The training perplexity with no second tokenization of the texts:
    # each distinct window is scored once, its key unpacked to a row, in
    # key order and ROW_BLOCK rows at a time, and the inverse puts the
    # probabilities back in window order.
    distinct = np.concatenate([lm._probs(_unpack(keys[start:start + ROW_BLOCK], order, base))
                               for start in range(0, len(keys), ROW_BLOCK)])
    [total] = _log_totals(distinct[inverse], [positions])
    lm.train_perplexity = math.exp(-total / len(inverse))
    return lm


def per_token_log_prob(lm: NGramLM, doc: Document) -> float:
    """Total log probability of the document normalized by the number of
    predicted symbols, so the statistic is comparable across document
    lengths.
    """
    return _log_probs_per_symbol(lm, [_body_ids(lm, doc, doc.body)[0]])[0]


def _body_ids(lm: NGramLM, doc: Document, body: str) -> tuple[list[list[int]], list[WordToken]]:
    """lm._tokenized([body]); DataError when *body* has no word token."""
    sentences, words = lm._tokenized([body])
    if not words:
        raise DataError(f"document {doc.id!r} has no word tokens")
    return sentences, words


def _log_probs_per_symbol(lm: NGramLM, groups: list[list[list[int]]]) -> list[float]:
    """The log probability per predicted symbol of each group of id
    sentences, all scored in one _windows + _probs sweep over the rows of
    every group, one scoring pass added per group. The only code that adds
    to lm.scoring_passes.
    """
    sentences = [ids for group in groups for ids in group]
    positions = [_positions(group) for group in groups]
    totals = _log_totals(lm._probs(_windows(sentences, lm.order, lm.end_id)), positions)
    lm.scoring_passes += len(groups)
    return [total / sum(n) for total, n in zip(totals, positions)]


@dataclass(frozen=True)
class PerturbConfig:
    """Controls the vocabulary-substitution rewriter.

    k is the number of rewrites, held to each method's rule by its score.
    Substitutes are drawn from the pool words within BAND_OCTAVES
    frequency octaves of the original.

    The substitution sampler is built on first use and shared with every
    copy made by dataclasses.replace, so all perturbations drawn through
    one config sort the pool once.
    """

    pool: Vocabulary
    mask_fraction: float = 0.15
    seed: int = 0
    k: int = 10
    _sampler_slot: list[_SubstitutionSampler] = field(
        default_factory=list, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        check_parameters({"mask_fraction": self.mask_fraction})

    def _sampler(self) -> _SubstitutionSampler:
        slot = self._sampler_slot
        # A copy with another pool needs a sampler of its own.
        if not slot or slot[0].pool is not self.pool:
            slot[:] = [_SubstitutionSampler(self.pool)]
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
    """Frequency-weighted word sampler over an octave band.

    Candidate words live in a frequency-sorted list, so the band of
    +/- BAND_OCTAVES around the original's frequency is one contiguous
    slice.
    """

    def __init__(self, pool: Vocabulary):
        self.pool = pool
        freq = pool.frequencies
        # The surfaces but UNK that hold a word character, sorted by word,
        # then stably by frequency: the (frequency, word) order. Those of
        # frequency 0 lead and are cut. str.isalnum settles most surfaces,
        # at a fraction of the regex's cost; it is true for a surface all
        # of whose characters WORD_CHAR_RE matches, so the regex is asked
        # only about the rest.
        words = sorted(w for w in freq
                       if w != UNK and (w.isalnum() or WORD_CHAR_RE.search(w)))
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
        *original*: those within BAND_OCTAVES of its frequency, else
        (*original* not in the pool, or no other word in its band) the
        whole pool. Built once per frequency (None: the whole pool) and
        memoized per original, so that a draw makes one dict lookup."""
        band = self._bands.get(original)
        if band is None:
            f = self.freq_of.get(original)
            if f not in self._freq_bands:
                lo, hi = 0, len(self.words)
                if f is not None:
                    a = bisect_left(self.freqs, f / (2.0**BAND_OCTAVES))
                    b = bisect_right(self.freqs, f * (2.0**BAND_OCTAVES))
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


def _fewest_masked_words(fraction: float) -> int | None:
    """The fewest words of which floor(fraction * words) masks one: ceil(1 /
    fraction), or a count next to it where the roundings settle it so. None
    at fraction 0, and where that count passes 2**53, past which floats no
    longer tell one count from the next."""
    if fraction == 0 or 1 / fraction > 2**53:
        return None
    n = math.ceil(1 / fraction)
    return next((m for m in (n - 1, n, n + 1) if math.floor(fraction * m)), None)


def _rewrite_groups(lm: NGramLM, doc: Document, cfg: PerturbConfig,
                    seeds: Iterable[int]) -> list[list[list[int]]]:
    """The id sentences of doc's body, then of its rewrite under each of
    *seeds*: the body with the spans of floor(mask_fraction * words) of its
    word tokens spliced over (splice_units) by the picks of one
    seeded_rewrites call, each drawn for its word's lowercase, then
    tokenized. The body is tokenized once, and each pick's id is patched
    into a copy of its ids, unless a pick could re-segment the text: one
    that patch_surface refuses, or a word in a chunk ending in "." whose
    original or pick is in ABBREVIATION_WORDS. Such a rewrite's picks are
    spliced and the text tokenized. DataError when the body has no word
    token, or too few for floor(mask_fraction * words) to mask one.
    """
    sentences, words = _body_ids(lm, doc, doc.body)
    if math.floor(cfg.mask_fraction * len(words)) == 0:
        fewest = _fewest_masked_words(cfg.mask_fraction)
        raise DataError(f"document {doc.id!r} has {len(words)} word tokens; curvature scoring "
                        f"at mask_fraction {cfg.mask_fraction} "
                        + (f"needs at least {fewest}" if fewest else "masks none"))
    sampler = cfg._sampler()
    # period_chunk_words(doc.body) and the body's word spans, built on first need.
    period_chunks: list[bool] = []
    spans: list[tuple[int, int]] = []

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
        rewrites = seeded_rewrites(len(words), cfg.mask_fraction, seed, draw)
        patched = sentences.copy()
        for i, pick in rewrites:
            surface = sampler.patch_surface(pick)
            if resegments(i, surface):
                if not spans:
                    spans[:] = [(a, b) for a, b, is_word in token_spans(doc.body) if is_word]
                patched, _ = _body_ids(lm, doc, splice_units(doc.body, spans, rewrites))
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
    check_parameters({"k": cfg.k})
    return _curvature_score(lm, doc, cfg)


def single_revise_score(lm: NGramLM, doc: Document, cfg: PerturbConfig) -> CurvatureScore:
    """One-revision fast path: d is the per-token log-prob drop of a
    single rewrite; exactly 2 scoring passes.
    """
    if cfg.k != 1:
        raise DataError("single_revise_score needs k = 1")
    return _curvature_score(lm, doc, cfg)


def scorers(lm: NGramLM, methods: Iterable[str], section: dict,
            seed: int) -> list[DetectorScorer]:
    """The scorer of each of *methods*, named by it: its SCORES curvature
    d under *lm* with its METHODS number of rewrites, the section's
    mask_fraction and *seed*, cut at the section's threshold. All share one base config,
    and so one substitution sampler."""
    base = PerturbConfig(pool=lm.vocabulary, mask_fraction=section["mask_fraction"], seed=seed)

    def scorer(method: str) -> DetectorScorer:
        k, curvature = METHODS[method], SCORES[method]
        cfg = replace(base, k=section["k"] if k is None else k)
        return DetectorScorer(method, lambda doc: curvature(lm, doc, cfg).d, section["threshold"])

    return [scorer(m) for m in methods]


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
    """lm.json at *path*, count tables as [ngram ids..., count] rows, then
    its binary copy for load_lm_fast at path.with_suffix(".bin") (_save_lm_bin).

    The lm.json bytes are those of json.dumps(payload, sort_keys=True),
    written straight to the file in blocks of at most ROW_BLOCK count rows
    or vocabulary entries, so that no whole level, table or text is built.
    LM_KEYS and VOCABULARY_KEYS are in json's key order, so "counts"
    opens the object and "vocabulary" closes it.
    """
    vocab = lm.vocabulary
    words = sorted(vocab.word_to_id)  # json's key order
    scalars = json.dumps({"discount": lm.discount, "end_id": lm.end_id, "order": lm.order,
                          "schema_version": LM_SCHEMA_VERSION})
    ids = [str(i) for i in range(START_ID, lm.end_id + 1)]  # indexed by shifted id
    opening = np.array(["[" + s for s in ids], dtype=object)
    inner = np.array(ids, dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"counts": {')
        for n, name in enumerate(sorted(map(str, lm.grams))):  # json's order: "10" before "2"
            fh.write(f'{", " if n else ""}"{name}": [')
            _write_joined(fh, _row_blocks(lm, int(name), opening, inner))
            fh.write("]")
        fh.write("}, " + scalars[1:-1] + ', "vocabulary": {"frequencies": {')
        _write_joined(fh, _entry_blocks(words, vocab.frequencies))
        fh.write('}, "word_to_id": {')
        _write_joined(fh, _entry_blocks(words, vocab.word_to_id))
        fh.write("}}}")
    _save_lm_bin(lm, Path(path).with_suffix(".bin"), path)


def _write_joined(fh: TextIO, blocks: Iterable[str]) -> None:
    """Write *blocks* to *fh* separated by ", ", as json.dumps separates items."""
    for i, block in enumerate(blocks):
        if i:
            fh.write(", ")
        fh.write(block)


def _row_blocks(lm: NGramLM, k: int, opening: np.ndarray, inner: np.ndarray) -> Iterator[str]:
    """Level k's count rows as json.dumps writes them, ROW_BLOCK rows a
    block, formatted straight from the packed arrays: the text of each id
    (*opening* a row with "[" in the first column, *inner* after it,
    both indexed by shifted id) and one string per distinct count of the
    block (as json.dumps formats it), gathered by column into one cell
    per value and joined once with ", ". The cells of the count column
    close their row with "]", so that rows are joined by "], [".
    """
    keys, counts = lm.grams[k]
    for start in range(0, len(keys), ROW_BLOCK):
        digits = _unpack(keys[start:start + ROW_BLOCK], k, lm.base)
        distinct, which = np.unique(counts[start:start + ROW_BLOCK], return_inverse=True)
        closing = [s + "]" for s in json.dumps(distinct.tolist())[1:-1].split(", ")]
        cells = np.empty((len(digits), k + 1), dtype=object)
        cells[:, 0] = opening[digits[:, 0]]
        cells[:, 1:k] = inner[digits[:, 1:]]
        cells[:, k] = np.array(closing, dtype=object)[which]
        yield ", ".join(cells.ravel().tolist())


def _entry_blocks(words: list[str], table: dict[str, int]) -> Iterator[str]:
    """The entries of *table* for *words* in turn, as json.dumps writes
    them between the braces, ROW_BLOCK entries a block."""
    for start in range(0, len(words), ROW_BLOCK):
        yield json.dumps({w: table[w] for w in words[start:start + ROW_BLOCK]})[1:-1]


def load_lm(path: str | Path) -> NGramLM:
    """The model save_lm wrote to *path*; DataError when the file
    is not such a model.

    Here only what belongs to the JSON encoding is checked: the keys
    save_lm writes (LM_KEYS, VOCABULARY_KEYS) and no other, the schema
    version, JSON integers for order, end_id, every word id and frequency,
    frequencies for word_to_id's words and no other, JSON numbers for
    discount and every count, and levels "1".."n" of rows that pack into
    keys (_packed_rows). _model_from_arrays checks the model itself.
    """
    payload = parse_json(read_text(path), str(path))
    if not isinstance(payload, dict):
        raise DataError(f"{path}: LM file must hold a JSON object")
    version = payload.get("schema_version")
    if version != LM_SCHEMA_VERSION:
        raise DataError(
            f"{path}: unsupported schema_version {version!r}, expected {LM_SCHEMA_VERSION}"
        )
    try:
        json_keys(payload, LM_KEYS)
        vocabulary = json_keys(payload["vocabulary"], VOCABULARY_KEYS, "vocabulary")
        for name, table in vocabulary.items():
            # One type scan per table: every value a JSON integer.
            if not set(map(type, table.values())) <= {int}:
                raise ValueError(f"vocabulary {name} holds a value that is not a JSON integer")
        word_to_id, frequencies = vocabulary["word_to_id"], vocabulary["frequencies"]
        if frequencies.keys() != word_to_id.keys():
            raise ValueError("vocabulary frequencies must be of word_to_id's words")
        order = json_int(payload["order"])
        discount = json_float(payload["discount"])
        end_id = json_int(payload["end_id"])
        tables = payload["counts"]
        return _model_from_arrays(
            order, discount, end_id, list(word_to_id), list(word_to_id.values()),
            [frequencies[w] for w in word_to_id], len(tables),
            (_packed_rows(k, tables.get(str(k)), end_id) for k in range(1, len(tables) + 1)))
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, DataError) as exc:
        raise DataError(f"{path}: corrupted LM field: {exc}") from exc


def _packed_rows(level: int, rows: list, end_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Level *level* of an lm.json as (keys, counts), sorted by key (a
    repeated n-gram stays, for _model_from_arrays to refuse). ValueError
    unless *rows* is a list of [context ids..., target id, count] rows of
    level + 1 items: JSON integer ids in START_ID..end_id, so that each
    shifted id is one digit of the key base end_id + 2, and a JSON number
    as count."""
    if not (type(rows) is list and set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {level + 1}):
        raise ValueError(f"level {level} must be a list of {level + 1}-item rows")
    ids = list(chain.from_iterable(rows))
    counts = ids[level::level + 1]
    del ids[level::level + 1]  # the ids, row by row
    if not set(map(type, ids)) <= {int}:
        raise ValueError(f"level {level} holds an id that is not a JSON integer")
    if not set(map(type, counts)) <= {int, float}:
        raise ValueError(f"level {level} holds a count that is not a JSON number")
    if ids and not (START_ID <= min(ids) and max(ids) <= end_id):
        raise ValueError(f"level {level} holds an id outside {START_ID}..{end_id}")
    keys = _pack(np.array(ids, dtype=np.int64).reshape(-1, level) + 1, end_id + 2)
    by_key = np.argsort(keys, kind="stable")
    return keys[by_key], np.array(counts, dtype=float)[by_key]


def _model_from_arrays(order: int, discount: float, end_id: int, words: list[str],
                       ids: list[int], frequencies: list[int], n_levels: int,
                       levels: Iterable[tuple[np.ndarray, np.ndarray]]) -> NGramLM:
    """The NGramLM that load_lm and load_lm_fast read, built only when the
    parts keep every rule of the model; DataError naming the first rule
    they break, in this order:

    - order >= 2 and discount in (0, 1) (check_parameters), and *n_levels*
      equal to order, so that nothing is sized by order first;
    - distinct *words*, whose *ids* are dense from 0 with UNK among the
      words (Vocabulary) and whose *frequencies* are >= 0, and end_id the
      vocabulary size;
    - (end_id + 2) ** order within the packed-key limit (_pack_base);
    - per level k of *levels*, drawn only now, so that a reader may pack
      its keys for a base these rules have bounded: keys non-empty,
      k-digit (in [0, base**k)) and strictly increasing, so no n-gram
      repeats; END in no context and START never a target; counts
      positive and finite, with a finite sum, so that no context total
      overflows in NGramLM.
    """
    check_parameters({"order": order, "discount": discount})
    if n_levels != order:
        raise DataError(f"{n_levels} count levels for order {order}")
    word_to_id = dict(zip(words, ids))
    if len(word_to_id) != len(words):
        raise DataError("a vocabulary word repeats")
    vocab = Vocabulary(word_to_id=word_to_id, frequencies=dict(zip(words, frequencies)))
    if min(frequencies) < 0:
        raise DataError("vocabulary frequencies must be >= 0")
    if end_id != vocab.size:
        raise DataError(f"end_id {end_id} differs from the vocabulary size {vocab.size}")
    base = _pack_base(order, end_id)
    grams: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for k, (keys, counts) in enumerate(levels, start=1):
        if not (len(keys) and keys[0] >= 0 and int(keys[-1]) < base**k):
            raise DataError(f"level {k} is empty or holds a key outside [0, base**{k})")
        if not np.all(keys[1:] > keys[:-1]):
            raise DataError(f"level {k} repeats an n-gram or is out of key order")
        digits = _unpack(keys, k, base)
        if not np.all(digits[:, :-1] <= end_id):
            raise DataError(f"level {k} holds END in a context")
        if not np.all(digits[:, -1] >= 1):
            raise DataError(f"level {k} holds START as a target")
        if not np.all(np.isfinite(counts) & (counts > 0)):
            raise DataError(f"level {k} holds a count that is not positive and finite")
        with np.errstate(over="ignore"):
            total = counts.sum()
        if not np.isfinite(total):
            raise DataError(f"level {k} counts sum past the float range")
        grams[k] = (keys, counts)
    return NGramLM(order=order, discount=discount, vocabulary=vocab, grams=grams,
                   end_id=end_id)


def _sha256_file(path: str | Path) -> bytes:
    """The SHA-256 digest of the bytes of the file at *path*, read by blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(partial(fh.read, 1 << 20), b""):
            digest.update(block)
    return digest.digest()


def _save_lm_bin(lm: NGramLM, path: str | Path, json_path: str | Path) -> None:
    """Write lm.bin, the binary copy of the lm.json that save_lm wrote for
    *lm* at *json_path*, for load_lm_fast to read in its place.

    Every number is little-endian. The file is the SHA-256 of lm.json's
    bytes, the SHA-256 of every byte after the two digests, then:
    LM_BIN_HEADER (LM_BIN_MAGIC, order, end_id, the number of words n,
    the byte length of the vocabulary text, discount); each level's row
    count (int64); each word's length in code points, id and frequency
    (int64, n each); the vocabulary text, the words joined in lm.json's
    key order and UTF-8 encoded (lone surrogates as they are), zero-padded
    to a multiple of 8 bytes; then per level from 1 up its keys (int64)
    and its counts (float64). The blocks are written and hashed one at a
    time, so no copy of the whole file is built.
    """
    vocab = lm.vocabulary
    words = sorted(vocab.word_to_id)  # json.dumps(sort_keys=True)'s order
    text = "".join(words).encode("utf-8", "surrogatepass")
    levels = range(1, lm.order + 1)
    blocks = [
        LM_BIN_HEADER.pack(LM_BIN_MAGIC, lm.order, lm.end_id, len(words), len(text),
                           lm.discount),
        np.array([len(lm.grams[k][0]) for k in levels], dtype="<i8"),
        np.array([len(w) for w in words], dtype="<i8"),
        np.array([vocab.word_to_id[w] for w in words], dtype="<i8"),
        np.array([vocab.frequencies[w] for w in words], dtype="<i8"),
        text + bytes(-len(text) % 8),
    ]
    for k in levels:
        keys, counts = lm.grams[k]
        blocks += [np.ascontiguousarray(keys, dtype="<i8"),
                   np.ascontiguousarray(counts, dtype="<f8")]
    body = hashlib.sha256()
    with open(path, "wb") as fh:
        fh.write(bytes(64))  # the digests, written last
        for block in blocks:
            fh.write(block)
            body.update(block)
        fh.seek(0)
        fh.write(_sha256_file(json_path) + body.digest())


def load_lm_fast(path: str | Path) -> NGramLM:
    """The model in the lm.json at *path*: read from save_lm's copy at
    path.with_suffix(".bin") when that is current and whole, else by load_lm(path).

    lm.bin is read only when its first digest is that of lm.json's bytes,
    its second that of its own bytes after the digests, and _read_lm_bin
    finds its layout whole and the model's rules kept. A missing,
    truncated, edited or stale lm.bin is not an error: load_lm reads
    lm.json and refuses it or not, as when no lm.bin is there.
    """
    path = Path(path)
    try:
        return _read_lm_bin(path.with_suffix(".bin"), path)
    except (OSError, ValueError, struct.error, DataError):
        return load_lm(path)


def _read_lm_bin(path: Path, json_path: Path) -> NGramLM:
    """The model _save_lm_bin wrote to *path* as the copy of *json_path*.
    ValueError unless both digests match and the file has _save_lm_bin's
    layout: the magic, every size as the header gives it, and word
    lengths that cut the vocabulary text into words; then
    DataError unless _model_from_arrays finds every rule of the model kept."""
    with open(path, "rb") as fh:
        data = bytearray(fh.read())  # writable, as the arrays built on it are
    if (data[:32] != _sha256_file(json_path)
            or data[32:64] != hashlib.sha256(memoryview(data)[64:]).digest()):
        raise ValueError(f"{path} is not the copy of {json_path}")
    magic, order, end_id, n_words, n_text, discount = LM_BIN_HEADER.unpack_from(data, 64)
    at = 64 + LM_BIN_HEADER.size
    if magic != LM_BIN_MAGIC:
        raise ValueError(f"{path}: not an lm.bin file")
    if n_words < 1 or n_text < 0 or not 1 <= order <= (len(data) - at) // 8:
        raise ValueError(f"{path}: header out of range")

    def take(dtype: str, count: int) -> np.ndarray:
        nonlocal at
        array = np.frombuffer(data, dtype=dtype, count=count, offset=at)
        at += array.nbytes
        return array

    rows = take("<i8", order).tolist()
    size = at + 24 * n_words + n_text + -n_text % 8 + 16 * sum(rows)
    if min(rows) < 1 or size != len(data):
        raise ValueError(f"{path}: sizes differ from the header")
    lengths, ids, frequencies = take("<i8", n_words), take("<i8", n_words), take("<i8", n_words)
    text = data[at:at + n_text].decode("utf-8", "surrogatepass")
    at += n_text + -n_text % 8
    # A word has no more code points than bytes, so the sums cannot wrap.
    if not (0 <= lengths.min() and lengths.max() <= n_text):
        raise ValueError(f"{path}: word lengths out of range")
    ends = np.cumsum(lengths).tolist()
    if ends[-1] != len(text):
        raise ValueError(f"{path}: word lengths differ from the vocabulary text")
    words = [text[a:b] for a, b in zip([0, *ends], ends)]
    return _model_from_arrays(order, discount, end_id, words, ids.tolist(), frequencies.tolist(),
                              order, ((take("<i8", n), take("<f8", n)) for n in rows))
