"""Seeded inputs for the benchmark workloads.

Each workload has two fixed text sources, its "authors"; the seed draws the
documents. Every input is a pure function of the seed and the scale, so two
runs with one seed feed the program identical bytes, and the amount of work
varies little from seed to seed. The program only ever sees the files
written here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mgtdetect.synthetic import DEFAULT_WORDS, TrigramSource, stable_seed

SOURCES_SEED = 7  # the default seed of scripts/run_synthetic_experiment.py
SPLIT = {"train": 0.8, "val": 0.1, "test": 0.1}
ZEROSHOT = {
    "order": 3, "discount": 0.75, "k": 10, "mask_fraction": 0.15,
    "methods": ["detect_gpt", "single_revise"],
}
SKIPGRAM_EPOCHS = 3


@dataclass(frozen=True)
class Scale:
    desk_lines: int  # HC3 lines; each yields one human and one machine answer
    wide_words: int  # size of the word list the wide sources draw from
    wide_lines: int
    # Per workload: labelled documents given to `detect`, half of each class,
    # and the number of detect inputs (chunks) they are split into.
    heldout: dict[str, int]
    chunks: dict[str, int]


SCALES = {
    "full": Scale(desk_lines=100, wide_words=24_000, wide_lines=3_000,
                  heldout={"desk": 48, "wide": 16}, chunks={"desk": 1, "wide": 4}),
    # For the smoke test: every code path, a few seconds per workload.
    "tiny": Scale(desk_lines=40, wide_words=600, wide_lines=120,
                  heldout={"desk": 4, "wide": 4}, chunks={"desk": 1, "wide": 2}),
}


@dataclass(frozen=True)
class Chunk:
    path: Path  # one document per line, for `detect`
    labels: tuple[int, ...]  # 1 = machine, per line


@dataclass(frozen=True)
class Inputs:
    config: Path
    chunks: tuple[Chunk, ...]
    docs: int  # documents in the HC3 file
    tokens: int  # word tokens in the HC3 file
    types: int  # distinct word types in the HC3 file


def desk_config(seed: int) -> dict:
    """The scripts/run_synthetic_experiment.py configuration."""
    return {
        "seed": seed,
        "output_dir": "out",
        "dataset": {"hc3_path": "data.jsonl"},
        "split": SPLIT,
        "embeddings": {
            "source": "train", "dim": 32, "window": 3, "negatives": 5,
            "epochs": SKIPGRAM_EPOCHS, "learning_rate": 0.05, "min_count": 2,
            "subsample": 0.01,
        },
        "classifier": {"family": "svm", "lambda": 1e-3, "epochs": 40},
        "zeroshot": ZEROSHOT,
        "transforms": [
            {"kind": "special_chars", "intensity": 0.1},
            {"kind": "whitespace_noise", "intensity": 0.3},
            {"kind": "case_flip", "intensity": 0.3},
        ],
    }


def wide_config(seed: int) -> dict:
    """Zero-shot only: no classifier, so embeddings and classifiers idle."""
    return {
        "seed": seed,
        "output_dir": "out",
        "dataset": {"hc3_path": "data.jsonl"},
        "split": SPLIT,
        "zeroshot": ZEROSHOT,
    }


def _write(workdir: Path, config: dict, human: list[str], machine: list[str],
           heldout: int, chunks: int) -> Inputs:
    """data.jsonl from the first documents of each class, the last `heldout`
    split into `chunks` files of alternating human and machine lines."""
    n = len(human) - heldout // 2
    with (workdir / "data.jsonl").open("w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(json.dumps({"question": f"question {i}", "human_answers": [human[i]],
                                 "chatgpt_answers": [machine[i]]}, sort_keys=True) + "\n")
    lines = [doc for pair in zip(human[n:], machine[n:]) for doc in pair]
    size = len(lines) // chunks
    parts = []
    for c in range(chunks):
        path = workdir / f"chunk{c}.txt"
        path.write_text("\n".join(lines[c * size:(c + 1) * size]) + "\n", encoding="utf-8")
        parts.append(Chunk(path, tuple(i % 2 for i in range(c * size, (c + 1) * size))))
    (workdir / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    words = [w.lower() for doc in human[:n] + machine[:n] for w in doc.replace(".", " ").split()]
    return Inputs(workdir / "config.json", tuple(parts), 2 * n, len(words), len(set(words)))


def make_desk(workdir: Path, seed: int, scale: Scale, heldout: int, chunks: int) -> Inputs:
    """The synthetic experiment's corpus: two sparse trigram sources over
    the 60 words of DEFAULT_WORDS, two-sentence answers."""
    human = TrigramSource(DEFAULT_WORDS, seed=stable_seed(SOURCES_SEED, "human"))
    machine = TrigramSource(DEFAULT_WORDS, seed=stable_seed(SOURCES_SEED, "machine"))
    rng = np.random.default_rng(stable_seed(seed, "desk", "draws"))
    n = scale.desk_lines + heldout // 2
    pairs = [(human.document(rng, sentences=2), machine.document(rng, sentences=2))
             for _ in range(n)]
    return _write(workdir, desk_config(seed), [h for h, _ in pairs], [m for _, m in pairs],
                  heldout, chunks)


_CONSONANTS = "bdfghklmnprstvz"
_VOWELS = "aeiou"


class WideSource:
    """A first-order word chain over a large word list.

    Each word owns `branching` seeded successors with Dirichlet weights; with
    probability `jump` the next word is instead uniform over the list. The
    jumps spread mass over every word, so a few tokens per type reach nearly
    the whole list (a sparse trigram chain with a Zipf unigram does not).
    Sentences are generated side by side, one numpy step per position.
    """

    def __init__(self, words: list[str], seed: int, jump: float, branching: int = 4):
        rng = np.random.default_rng(seed)
        n = len(words)
        self.words = np.array(words)
        self.jump = jump
        self.succ = rng.integers(0, n, size=(n, branching))
        self.cdf = np.cumsum(rng.dirichlet(np.full(branching, 0.8), size=n), axis=1)

    def sentences(self, rng: np.random.Generator, count: int,
                  min_len: int = 8, max_len: int = 16) -> list[str]:
        n = len(self.words)
        lengths = rng.integers(min_len, max_len + 1, size=count)
        ids = np.empty((count, max_len), dtype=np.int64)
        ids[:, 0] = rng.integers(0, n, size=count)
        for t in range(1, max_len):
            prev = ids[:, t - 1]
            branch = (rng.random(count)[:, None] > self.cdf[prev]).sum(axis=1)
            follow = self.succ[prev, np.minimum(branch, self.succ.shape[1] - 1)]
            uniform = rng.integers(0, n, size=count)
            ids[:, t] = np.where(rng.random(count) < self.jump, uniform, follow)
        return [" ".join(self.words[row[:k]]) + "." for row, k in zip(ids, lengths)]

    def documents(self, rng: np.random.Generator, count: int, sentences: int = 2) -> list[str]:
        flat = self.sentences(rng, count * sentences)
        return [" ".join(flat[i * sentences:(i + 1) * sentences]) for i in range(count)]


def wide_words(count: int) -> list[str]:
    """`count` distinct three-syllable pseudo-words; none is an abbreviation
    the sentence splitter guards, so every period ends a sentence."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    s = len(syllables)
    rng = np.random.default_rng(stable_seed(SOURCES_SEED, "wide", "words"))
    picks = rng.choice(s ** 3, size=count, replace=False)
    return [syllables[p // (s * s)] + syllables[(p // s) % s] + syllables[p % s]
            for p in picks.tolist()]


def make_wide(workdir: Path, seed: int, scale: Scale, heldout: int, chunks: int) -> Inputs:
    """Two chains over one large word list: the machine chain follows its
    successors more often than the human one, so an LM trained on machine
    text separates the classes."""
    words = wide_words(scale.wide_words)
    human = WideSource(words, stable_seed(SOURCES_SEED, "wide", "human"), jump=0.6)
    machine = WideSource(words, stable_seed(SOURCES_SEED, "wide", "machine"), jump=0.1)
    rng = np.random.default_rng(stable_seed(seed, "wide", "draws"))
    n = scale.wide_lines + heldout // 2
    return _write(workdir, wide_config(seed), human.documents(rng, n),
                  machine.documents(rng, n), heldout, chunks)
