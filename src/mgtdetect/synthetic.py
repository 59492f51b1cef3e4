"""Seeded synthetic text sources for experiments and fixtures: random
trigram chains that play the role of distinct "authors", plus word-shuffle
helpers. Everything is deterministic given its seeds; no built-in hash()
anywhere (it is salted per process).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .sections import stable_seed  # SHA-256 over the parts joined by '/'
from .text_core import word_tokens

if TYPE_CHECKING:
    from .ingest import Document
    from .zeroshot import NGramLM


class TrigramSource:
    """Random sparse trigram chain over a fixed word list.

    Each (w-2, w-1) state owns a small seeded set of continuations with
    Dirichlet weights, so two sources with different seeds induce
    different co-occurrence structure over the same vocabulary.
    """

    def __init__(self, words: list[str], seed: int, branching: int = 4):
        if len(words) < branching + 1:
            raise ValueError("need more words than the branching factor")
        self.words = list(words)
        self.seed = seed
        self.branching = branching
        # A source-specific frequency skew so class unigram profiles differ.
        rng = np.random.default_rng(stable_seed(seed, "unigram"))
        ranks = rng.permutation(len(words)) + 1
        weights = 1.0 / ranks
        self._unigram = weights / weights.sum()
        self._state_cache: dict[tuple[str, str], tuple[list[str], np.ndarray]] = {}

    def _state_dist(self, state: tuple[str, str]) -> tuple[list[str], np.ndarray]:
        hit = self._state_cache.get(state)
        if hit is not None:
            return hit
        rng = np.random.default_rng(stable_seed(self.seed, state[0], state[1]))
        idx = rng.choice(len(self.words), size=self.branching, replace=False,
                         p=self._unigram)
        probs = rng.dirichlet(np.full(self.branching, 0.8))
        out = ([self.words[i] for i in idx], np.cumsum(probs))
        self._state_cache[state] = out
        return out

    def sentence(self, rng: np.random.Generator, min_len: int = 8,
                 max_len: int = 18) -> str:
        length = int(rng.integers(min_len, max_len + 1))
        state = ("<s>", "<s>")
        tokens: list[str] = []
        for _ in range(length):
            words, cdf = self._state_dist(state)
            pick = words[int(np.searchsorted(cdf, rng.random(), side="right"))]
            tokens.append(pick)
            state = (state[1], pick)
        return " ".join(tokens) + "."

    def document(self, rng: np.random.Generator, sentences: int = 3,
                 min_len: int = 8, max_len: int = 18) -> str:
        return " ".join(self.sentence(rng, min_len, max_len) for _ in range(sentences))


DEFAULT_WORDS = [
    f"w{chr(ord('a') + i // 26)}{chr(ord('a') + i % 26)}" for i in range(60)
]


def two_source_corpus(
    n_per_class: int,
    seed: int,
    words: list[str] | None = None,
    sentences: int = 3,
) -> tuple[list[str], list[str]]:
    """(human_texts, machine_texts) from two differently seeded sources
    over the same word list.
    """
    words = words or DEFAULT_WORDS
    human_src = TrigramSource(words, seed=stable_seed(seed, "human"))
    machine_src = TrigramSource(words, seed=stable_seed(seed, "machine"))
    rng_h = np.random.default_rng(stable_seed(seed, "draws", "human"))
    rng_m = np.random.default_rng(stable_seed(seed, "draws", "machine"))
    human = [human_src.document(rng_h, sentences) for _ in range(n_per_class)]
    machine = [machine_src.document(rng_m, sentences) for _ in range(n_per_class)]
    return human, machine


def write_hc3_file(path: str | Path, n_lines: int, seed: int) -> None:
    """Synthetic HC3-style JSONL: one question per line with one trigram
    human and one machine answer over DEFAULT_WORDS.
    """
    human_src = TrigramSource(DEFAULT_WORDS, seed=stable_seed(seed, "human"))
    machine_src = TrigramSource(DEFAULT_WORDS, seed=stable_seed(seed, "machine"))
    rng = np.random.default_rng(stable_seed(seed, "hc3"))
    with Path(path).open("w", encoding="utf-8") as fh:
        for i in range(n_lines):
            record = {
                "question": f"question {i}",
                "human_answers": [human_src.document(rng, sentences=2)],
                "chatgpt_answers": [machine_src.document(rng, sentences=2)],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def shuffle_words(text: str, seed: int) -> str:
    """Word-salad variant: word tokens shuffled, terminal period kept."""
    words = word_tokens(text)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(words))
    return " ".join(words[i] for i in order) + "."


def curvature_bench(paragraphs: list[str], seed: int, n_docs: int,
                    n_sentences: int) -> tuple[NGramLM, list[Document], list[int]]:
    """An order-3 LM on *n_sentences* sentences of a trigram source over the
    words of *paragraphs*; *n_docs* documents of 10 or more words sampled
    from it (Machine, label 1), then *n_docs* shuffled *paragraphs* (Human, 0)."""
    from . import zeroshot  # here, so that importing synthetic loads neither
    from .ingest import Document, Label

    vocab = sorted({w for t in paragraphs for w in word_tokens(t)})
    source = TrigramSource(vocab, seed=stable_seed(seed, "machine-source"))
    rng = np.random.default_rng(stable_seed(seed, "machine-sentences"))
    sentences = [source.sentence(rng, 8, 18) for _ in range(n_sentences)]
    lm = zeroshot.train_kn_lm(sentences, order=3, discount=0.75)

    sampled, i = [], 0
    while len(sampled) < n_docs:
        text = zeroshot.sample_document(lm, seed=stable_seed(seed, "sample", i),
                                        max_tokens=30, sentences=2)
        i += 1
        if len(text.split()) >= 10:
            sampled.append(text)
    shuffled = [shuffle_words(paragraphs[j % len(paragraphs)], stable_seed(seed, "shuffle", j))
                for j in range(n_docs)]
    docs = [Document(id=f"m{j}", body=t, label=Label.MACHINE) for j, t in enumerate(sampled)]
    docs += [Document(id=f"h{j}", body=t, label=Label.HUMAN) for j, t in enumerate(shuffled)]
    return lm, docs, [1] * n_docs + [0] * n_docs
