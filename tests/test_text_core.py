import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgtdetect.errors import DataError
from mgtdetect.text_core import (
    UNK,
    WORD_CHAR_RE,
    Vocabulary,
    build_vocab,
    count_syllables,
    period_chunk_words,
    rewrite_units,
    split_sentences,
    token_spans,
    tokenize,
    vocab_from_counts,
)

# Every code point but the surrogates, in order.
ALL_CHARS = "".join(chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c < 0xE000)

# Full-Unicode text mixed with the characters and words the splitter and the
# tokenizer treat specially.
SPECIAL = st.sampled_from([".", "!", "?", " ", "\t", "\n", "\u2003", "'", "’", "_",
                           "Dr.", "e.g.", "No.", "ETC.", "x.y", "İ", "Ⓐ", "ß"])
MIXED_TEXT = st.lists(st.one_of(st.text(max_size=8), SPECIAL), max_size=30).map("".join)
# Pieces whose lowercase depends on how much text is lowercased at once:
# "İ" lowercases to two code points, the second a combining mark that is no
# word character; "Σ" lowercases to "ς" at the end of a word and to "σ"
# before a letter, even across an apostrophe or a period. Apostrophes sit
# inside and at the edges of words, combining marks after letters and alone.
CASE_PIECES = st.sampled_from(["İ", "İstanbul", "ΟΔΟΣ", "Σ", "ΑΣ.Β", "ΑΣ'Β", "ΑΣ’", "'Σ",
                               "don't", "'tis", "rock'", "’n’", "e\u0301", "\u0301",
                               "\u0307", "_", "a_b", "ß", "ǅ", " ", ".", "'", "’"])
CASE_TEXT = st.lists(st.one_of(st.text(max_size=6), CASE_PIECES), max_size=30).map("".join)


# The per-character implementations the single regex scans replaced, kept
# as oracles.
_ORACLE_WORD_RE = re.compile(r"[^\W_]+(?:['’][^\W_]+)*", re.UNICODE)
_ORACLE_ABBREVIATIONS = {
    "mr.", "mrs.", "ms.", "dr.", "prof.", "sr.", "jr.", "st.",
    "e.g.", "i.e.", "etc.", "vs.", "cf.", "fig.", "al.", "no.",
}


def oracle_is_word_surface(surface):
    return any(ch.isalnum() for ch in surface)


def oracle_token_spans(text):
    spans = []
    pos = 0
    for m in _ORACLE_WORD_RE.finditer(text):
        for i in range(pos, m.start()):
            if not text[i].isspace():
                spans.append((i, i + 1, False))
        spans.append((m.start(), m.end(), True))
        pos = m.end()
    for i in range(pos, len(text)):
        if not text[i].isspace():
            spans.append((i, i + 1, False))
    return spans


def oracle_tokenize(text):
    return [(text[a:b].lower(), w) for a, b, w in oracle_token_spans(text)]


def flagged(text):
    """tokenize(text) with each surface's word flag, read as its callers
    read it: from the surface's first character."""
    return [(s, s[0].isalnum()) for s in tokenize(text)]


def oracle_split_sentences(text):
    sentences = []
    start = 0
    for i, ch in enumerate(text):
        if ch not in ".!?":
            continue
        if i + 1 < len(text) and not text[i + 1].isspace():
            continue
        if ch == ".":
            j = i
            while j > 0 and not text[j - 1].isspace():
                j -= 1
            if text[j : i + 1].lower() in _ORACLE_ABBREVIATIONS:
                continue
        chunk = text[start : i + 1].strip()
        if chunk:
            sentences.append(chunk)
        start = i + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


class TestOracles:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), MIXED_TEXT))
    def test_scans_match_per_character_oracles(self, text):
        assert token_spans(text) == oracle_token_spans(text)
        assert flagged(text) == oracle_tokenize(text)
        assert split_sentences(text) == oracle_split_sentences(text)

    def test_every_code_point(self):
        assert token_spans(ALL_CHARS) == oracle_token_spans(ALL_CHARS)
        assert flagged(ALL_CHARS) == oracle_tokenize(ALL_CHARS)
        # Each code point starts a token: the word flag is read from its
        # lowercase's first character.
        spaced = " ".join(ALL_CHARS)
        assert token_spans(spaced) == oracle_token_spans(spaced)
        assert flagged(spaced) == oracle_tokenize(spaced)
        # Each terminator is followed by one code point.
        dotted = ".".join(ALL_CHARS)
        assert split_sentences(dotted) == oracle_split_sentences(dotted)
        # Each abbreviation is preceded by one code point: only whitespace
        # keeps it an abbreviation. The last whitespace code point is U+3000.
        guarded = "".join(f"{c}Dr. " for c in ALL_CHARS[:0x3001])
        assert split_sentences(guarded) == oracle_split_sentences(guarded)

    def test_space_class_is_isspace_on_every_code_point(self):
        space = re.compile(r"\s")
        assert all(bool(space.match(chr(c))) == chr(c).isspace()
                   for c in range(sys.maxunicode + 1))

    def test_word_surface_is_the_alnum_test_on_every_code_point(self):
        assert all((WORD_CHAR_RE.search(chr(c)) is not None) == oracle_is_word_surface(chr(c))
                   for c in range(sys.maxunicode + 1))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), MIXED_TEXT))
    def test_word_surface_matches_oracle(self, text):
        assert (WORD_CHAR_RE.search(text) is not None) == oracle_is_word_surface(text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), MIXED_TEXT))
    def test_sentence_tokens_concatenate_to_text_tokens(self, text):
        # Counting the vocabulary over sentence tokens relies on this.
        joined = [t for sentence in split_sentences(text) for t in tokenize(sentence)]
        assert joined == tokenize(text)



class TestTokenize:
    def test_words_and_punctuation(self):
        assert flagged("Hello, world!") == [
            ("hello", True), (",", False), ("world", True), ("!", False),
        ]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_internal_apostrophe_stays_in_word(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_lone_apostrophe_is_punctuation(self):
        assert flagged("a ' b") == [
            ("a", True), ("'", False), ("b", True),
        ]

    @given(st.text(alphabet=st.characters(max_codepoint=0x7F), max_size=80))
    def test_word_surfaces_preserve_input_order(self, text):
        surfaces = [s for s in tokenize(text) if s[0].isalnum()]
        lowered = text.lower()
        pos = 0
        for s in surfaces:
            found = lowered.find(s, pos)
            assert found >= pos
            pos = found + len(s)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), CASE_TEXT))
    def test_surfaces_are_the_spans_lowercased_alone(self, text):
        assert flagged(text) == oracle_tokenize(text)

    def test_tokenize_lowercases_each_token_alone(self):
        # Lowercasing the whole text would give "i", "\u0307" and "ασ", ".", "β".
        assert tokenize("İ ΑΣ.Β") == ["i\u0307", "ας", ".", "β"]

    @given(st.text(max_size=80))
    def test_spans_cover_disjoint_ranges(self, text):
        spans = token_spans(text)
        for (a1, b1, _), (a2, _, _) in zip(spans, spans[1:]):
            assert a1 < b1 <= a2


class TestSplitSentences:
    def test_splits_on_terminator_plus_space(self):
        assert split_sentences("A b. C d!") == ["A b.", "C d!"]

    def test_single_segment_without_terminator(self):
        assert split_sentences("no terminator") == ["no terminator"]

    def test_abbreviation_guard(self):
        assert split_sentences("See Dr. Smith. Then go.") == [
            "See Dr. Smith.", "Then go.",
        ]

    def test_eg_guard(self):
        assert split_sentences("Use tools, e.g. hammers. Then rest.") == [
            "Use tools, e.g. hammers.", "Then rest.",
        ]

    def test_question_and_bang_run(self):
        assert split_sentences("Really?! Yes.") == ["Really?!", "Yes."]


class TestCountSyllables:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("detection", 3),  # groups e / e / io
            ("the", 1),  # one group, floor at 1
            ("queue", 1),  # single group ueue
            ("make", 1),  # a, e then terminal silent e
            ("free", 1),  # one group ee, no subtraction at count 1
            ("rhythm", 1),  # y is a vowel here
        ],
    )
    def test_examples(self, word, expected):
        assert count_syllables(word) == expected

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz'", min_size=1, max_size=20))
    def test_at_least_one(self, word):
        assert count_syllables(word) >= 1


class TestBuildVocab:
    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocab(["a a b"], min_count=1)
        assert vocab.word_to_id == {"a": 0, "b": 1, UNK: 2}

    def test_min_count_threshold(self):
        vocab = build_vocab(["a a b"], min_count=2)
        assert vocab.word_to_id == {"a": 0, UNK: 1}
        assert vocab.frequencies[UNK] == 1  # the dropped b

    def test_threshold_dominates(self):
        vocab = build_vocab(["a a b"], min_count=10)
        assert vocab.word_to_id == {UNK: 0}

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocab([""], min_count=1)

    def test_punctuation_counts_as_surface(self):
        vocab = build_vocab(["a, a, b"], min_count=1)
        assert "," in vocab.word_to_id

    def test_ids_stable_across_runs(self):
        texts = ["b a c a b", "c c a"]
        v1 = build_vocab(texts, min_count=1)
        v2 = build_vocab(texts, min_count=1)
        assert v1.word_to_id == v2.word_to_id

    def test_vocab_from_counts_matches_build_vocab(self):
        texts = ["b a c a b!", "c c a, d"]
        counts = {"a": 3, "b": 2, "c": 3, "!": 1, ",": 1, "d": 1}
        for min_count in (1, 2, 4):
            built = build_vocab(texts, min_count=min_count)
            direct = vocab_from_counts(counts, min_count)
            assert direct.word_to_id == built.word_to_id
            assert direct.frequencies == built.frequencies
        with pytest.raises(DataError):
            vocab_from_counts({}, 1)
        with pytest.raises(DataError):
            vocab_from_counts(counts, 0)

    @settings(max_examples=200, deadline=None)
    @given(counts=st.dictionaries(st.one_of(st.text(min_size=1, max_size=3),
                                            st.sampled_from(["a", "b", "B", "İ", "é", "e\u0301"])),
                                  st.integers(1, 4), min_size=1, max_size=40),
           min_count=st.integers(1, 5), data=st.data())
    def test_vocab_order_is_the_count_then_surface_key(self, counts, min_count, data):
        # Few distinct counts, so most words tie; the dict's order is shuffled.
        counts = dict(data.draw(st.permutations(list(counts.items()))))
        kept = sorted((w for w, c in counts.items() if c >= min_count),
                      key=lambda w: (-counts[w], w))
        vocab = vocab_from_counts(counts, min_count)
        assert list(vocab.word_to_id.items()) == [*zip(kept, range(len(kept))), (UNK, len(kept))]
        assert list(vocab.frequencies.items()) == [
            *((w, counts[w]) for w in kept),
            (UNK, sum(c for c in counts.values() if c < min_count))]

    def test_id_of_falls_back_to_unk(self):
        vocab = build_vocab(["a a b"], min_count=2)
        assert vocab.id_of("zzz") == vocab.unk_id

    @settings(max_examples=150, deadline=None)
    @given(ids=st.one_of(
        st.lists(st.integers(-2, 6), min_size=1, max_size=6),
        st.integers(1, 6).flatmap(lambda n: st.permutations(range(n))),
    ))
    def test_ids_accepted_exactly_when_sorted_they_are_a_range(self, ids):
        words = [UNK] + [f"w{i}" for i in range(len(ids) - 1)]
        word_to_id = dict(zip(words, ids))
        frequencies = dict.fromkeys(words, 1)
        if sorted(ids) == list(range(len(ids))):
            assert Vocabulary(word_to_id, frequencies).unk_id == ids[0]
        else:
            with pytest.raises(DataError, match="^vocabulary ids must be contiguous from 0$"):
                Vocabulary(word_to_id, frequencies)


class TestPeriodChunkWords:
    def test_example(self):
        # Dr | Lee's | e g | x y | z
        assert period_chunk_words("Dr. Lee's e.g. x.y z") == [
            True, False, True, True, False, False, False]

    @settings(max_examples=300)
    @given(text=MIXED_TEXT)
    def test_matches_a_scan_to_the_next_space(self, text):
        expected = []
        for _, end, is_word in token_spans(text):
            if is_word:
                while end < len(text) and not text[end].isspace():
                    end += 1
                expected.append(text[end - 1] == ".")
        assert period_chunk_words(text) == expected


class TestRewriteUnits:
    @staticmethod
    def tagged(rng, unit):
        """A replacement that shows its unit and the generator's next draw."""
        return f"<{unit}:{rng.random()!r}>"

    @settings(max_examples=200)
    @given(n=st.integers(0, 30), fraction=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**64 - 1))
    def test_draw_contract(self, n, fraction, seed):
        letters = [chr(97 + i % 26) for i in range(n)]
        text = "-".join(letters)
        units = [(2 * i, 2 * i + 1) for i in range(n)]
        expected = text
        m = math.floor(fraction * n)
        if m:
            rng = np.random.default_rng(seed)
            chosen = set(rng.choice(n, size=m, replace=False).tolist())
            expected = "-".join(self.tagged(rng, u) if i in chosen else u
                                for i, u in enumerate(letters))
        assert rewrite_units(text, units, fraction, seed, self.tagged) == expected

    def test_splices_length_changing_and_empty_units(self):
        units = [(0, 0), (1, 2), (3, 3)]
        assert rewrite_units("abc", units, 1.0, 0, lambda rng, u: f"[{u.upper()}]") == (
            "[]a[B]c[]")

    def test_no_unit_chosen_builds_no_generator(self, monkeypatch):
        built, called = [], []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or real(*a))
        for units, fraction in (([], 1.0), ([(0, 1)] * 3, 0.33), ([(0, 1)], 0.0)):
            assert rewrite_units("abc", units, fraction, 1,
                                 lambda rng, u: called.append(u) or u) == "abc"
        assert built == [] and called == []
