"""Deterministic tokenization, sentence segmentation, syllable counting,
and vocabulary construction shared by every downstream module.

Word tokens are lowercased at tokenization time; original casing survives
only in ``Document.body`` so the adversarial transforms can still see it.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import DataError

if TYPE_CHECKING:
    import numpy as np

UNK = "<unk>"

# One scan: letters/digits form words, with apostrophes word-internal
# only, so a lone quote stays punctuation; every other non-space character
# is its own punctuation token. ``\S`` and str.isspace agree on every code
# point. A word starts with a letter or digit and a punctuation token is
# one other character, so a token is a word exactly when its first
# character passes str.isalnum. So is its lowercase surface: the lowercase
# of every code point starts with a letter or digit exactly when the code
# point is one.
_WORD = r"[^\W_]+(?:['’][^\W_]+)*"
_TOKEN_RE = re.compile(rf"{_WORD}|\S")

# One letter or digit: ``[^\W_]`` matches exactly the code points for
# which str.isalnum is true.
WORD_CHAR_RE = re.compile(r"[^\W_]")

# A sentence terminator followed by whitespace or the end of the text.
_SENTENCE_END_RE = re.compile(r"[.!?](?!\S)")

_VOWELS = set("aeiouy")

# Trailing-word guards for sentence splitting, all lowercase with the
# final period included.
_ABBREVIATIONS = {
    "mr.", "mrs.", "ms.", "dr.", "prof.", "sr.", "jr.", "st.",
    "e.g.", "i.e.", "etc.", "vs.", "cf.", "fig.", "al.", "no.",
}


def token_spans(text: str) -> list[tuple[int, int, bool]]:
    """Return (start, end, is_word) spans covering every token in *text*.

    Word spans come from the word regex; every other non-space character
    is its own punctuation span. Spans are disjoint and ordered.
    """
    return [(*m.span(), text[m.start()].isalnum()) for m in _TOKEN_RE.finditer(text)]


def tokenize(text: str) -> list[str]:
    """Segment *text* into lowercased word and punctuation surfaces, in
    order; a surface s is a word exactly when s[0].isalnum(). Each token is
    lowercased on its own: lowercasing the whole text first could split a
    word ("İ") or change a letter by its neighbours (a final "Σ")."""
    return [token.lower() for token in _TOKEN_RE.findall(text)]


# The word surfaces of _ABBREVIATIONS. split_sentences reads only the
# whitespace chunks that end in "."; one whose lowercase is an abbreviation
# holds no other word. So replacing a word token by one word token cannot
# move a sentence end unless the word's chunk ends in "." and the old or
# the new lowercase is in this set.
ABBREVIATION_WORDS = frozenset(
    s for a in _ABBREVIATIONS for s in tokenize(a) if s[0].isalnum()
)

_CHUNK_REST_RE = re.compile(r"\S*")


def period_chunk_words(text: str) -> list[bool]:
    """For each word token of *text*, in order, whether the whitespace
    chunk holding it ends in a period."""
    return [text[_CHUNK_REST_RE.match(text, b).end() - 1] == "."
            for _, b, is_word in token_spans(text) if is_word]


def word_tokens(text: str) -> list[str]:
    """Lowercased word surfaces only, in order."""
    return [s for s in tokenize(text) if s[0].isalnum()]


def seeded_rewrites(n: int, fraction: float, seed: int,
                    replace: Callable[[np.random.Generator, int], str]) -> list[tuple[int, str]]:
    """The seeded draw contract of rewrite_units: (index, replacement) for
    floor(fraction * n) of n units, chosen by one seeded draw without
    replacement, each in increasing index order paired with replace(rng,
    index) from the same generator. When no unit is chosen, no generator
    is built.
    """
    m = math.floor(fraction * n)
    if m == 0:
        return []
    import numpy as np  # here, so that ingest and stats, which tokenize, run without numpy

    rng = np.random.default_rng(seed)
    return [(i, replace(rng, i)) for i in sorted(rng.choice(n, size=m, replace=False).tolist())]


def splice_units(text: str, units: Sequence[tuple[int, int]],
                 rewrites: Sequence[tuple[int, str]]) -> str:
    """*text* with each (index, replacement) of *rewrites*, in increasing
    index order, written over units[index]. *units* are disjoint (start,
    end) spans in text order; an empty span is an insertion point.
    """
    pieces: list[str] = []
    prev = 0
    for i, new in rewrites:
        a, b = units[i]
        pieces.append(text[prev:a])
        pieces.append(new)
        prev = b
    pieces.append(text[prev:])
    return "".join(pieces)


def rewrite_units(text: str, units: Sequence[tuple[int, int]], fraction: float,
                  seed: int, replace: Callable[[np.random.Generator, str], str]) -> str:
    """*text* with floor(fraction * len(units)) of its units rewritten:
    seeded_rewrites chooses the units and draws, in text order, each
    replacement as replace(rng, text[start:end]); splice_units writes them
    in. When no unit is chosen, *text* comes back as it is.
    """
    return splice_units(text, units, seeded_rewrites(
        len(units), fraction, seed, lambda rng, i: replace(rng, text[units[i][0]:units[i][1]])))


def split_sentences(text: str) -> list[str]:
    """Split on ``.``, ``!``, ``?`` followed by space-or-end, guarding a
    small abbreviation list. Delimiters are retained; no empty sentences.
    """
    sentences: list[str] = []
    start = 0
    for m in _SENTENCE_END_RE.finditer(text):
        i = m.start()
        if m[0] == ".":
            # Walk back to the preceding whitespace to recover the word the
            # period is attached to, dots included ("e.g." ends two chunks).
            j = i
            while j > 0 and not text[j - 1].isspace():
                j -= 1
            if text[j : i + 1].lower() in _ABBREVIATIONS:
                continue
        chunk = text[start : i + 1].strip()
        if chunk:
            sentences.append(chunk)
        start = i + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def count_syllables(word: str) -> int:
    """Heuristic syllable count: maximal vowel groups (a,e,i,o,u,y), minus
    one for a terminal silent 'e' when more than one group, floor 1.
    """
    w = word.lower()
    groups = 0
    in_group = False
    for ch in w:
        if ch in _VOWELS:
            if not in_group:
                groups += 1
                in_group = True
        else:
            in_group = False
    if groups > 1 and w.endswith("e"):
        groups -= 1
    return max(groups, 1)


@dataclass(frozen=True)
class Vocabulary:
    """Token surface -> contiguous integer id, with corpus frequencies.

    Ids are a bijection onto [0, size); UNK is always present, last.
    ``frequencies[UNK]`` aggregates every occurrence below min_count.
    """

    word_to_id: dict[str, int]
    frequencies: dict[str, int]
    unk_id: int = field(init=False)

    def __post_init__(self) -> None:
        # n values that hold each of 0 .. n-1 are those ids exactly once.
        if not set(self.word_to_id.values()).issuperset(range(len(self.word_to_id))):
            raise DataError("vocabulary ids must be contiguous from 0")
        if UNK not in self.word_to_id:
            raise DataError("vocabulary must contain UNK")
        object.__setattr__(self, "unk_id", self.word_to_id[UNK])

    @property
    def size(self) -> int:
        return len(self.word_to_id)

    def id_of(self, surface: str) -> int:
        """Id of *surface*, or the UNK id when out of vocabulary."""
        return self.word_to_id.get(surface, self.unk_id)

    def surfaces(self) -> list[str]:
        """All surfaces ordered by id."""
        out = [""] * self.size
        for w, i in self.word_to_id.items():
            out[i] = w
        return out


def build_vocab(texts: list[str], min_count: int = 1) -> Vocabulary:
    """Count every token surface in *texts* and build the vocabulary from
    the counts (vocab_from_counts). Punctuation marks are counted as
    ordinary surfaces.
    """
    return vocab_from_counts(
        Counter(s for text in texts for s in tokenize(text)), min_count
    )


def vocab_from_counts(counts: dict[str, int], min_count: int = 1) -> Vocabulary:
    """Surfaces with frequency >= min_count get ids ordered by (frequency
    desc, surface asc); all others fold into UNK.
    """
    if min_count < 1:
        raise DataError("min_count must be >= 1")
    if not counts:
        raise DataError("cannot build a vocabulary from an empty corpus")
    # By surface, then stably by count descending: (frequency desc, surface
    # asc) with no Python key built per word.
    kept = sorted(w for w, c in counts.items() if c >= min_count)
    kept.sort(key=counts.__getitem__, reverse=True)
    word_to_id = {w: i for i, w in enumerate(kept)}
    word_to_id[UNK] = len(kept)
    frequencies = {w: counts[w] for w in kept}
    frequencies[UNK] = sum(c for w, c in counts.items() if w not in word_to_id)
    return Vocabulary(word_to_id=word_to_id, frequencies=frequencies)
