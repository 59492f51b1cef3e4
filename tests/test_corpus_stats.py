import pytest
from hypothesis import given, strategies as st

from mgtdetect.corpus_stats import (
    answer_length,
    corpus_report,
    flesch_kincaid_grade,
    histogram,
    mean_dependency_distance,
    mean_sentence_length,
    type_token_ratio,
)
from mgtdetect.errors import DataError
from mgtdetect.ingest import Label, ParsedSentence

from conftest import make_corpus, make_doc


class TestAnswerLength:
    def test_hand_count(self):
        assert answer_length(make_doc("the cat sat")) == 3

    def test_punctuation_only(self):
        assert answer_length(make_doc("!!!")) == 0

    def test_punctuation_excluded(self):
        assert answer_length(make_doc("a b, c")) == 3


class TestMeanSentenceLength:
    def test_hand_count(self):
        assert mean_sentence_length(make_doc("A b. C d e.")) == pytest.approx(2.5)

    def test_single_word(self):
        assert mean_sentence_length(make_doc("Hi.")) == pytest.approx(1.0)

    def test_no_terminator_is_one_segment(self):
        assert mean_sentence_length(make_doc("x y")) == pytest.approx(2.0)


class TestTypeTokenRatio:
    def test_hand_count(self):
        assert type_token_ratio(make_doc("the cat sat on the mat")) == pytest.approx(5 / 6)

    def test_all_distinct_upper_bound(self):
        assert type_token_ratio(make_doc("one two three")) == pytest.approx(1.0)

    def test_repetition(self):
        assert type_token_ratio(make_doc("a a a a")) == pytest.approx(0.25)

    def test_no_words_errors(self):
        with pytest.raises(DataError):
            type_token_ratio(make_doc("..."))

    @given(st.lists(st.sampled_from(["ax", "bx", "cx", "dx"]), min_size=1, max_size=10))
    def test_unity_iff_all_distinct(self, words):
        ttr = type_token_ratio(make_doc(" ".join(words)))
        assert 0.0 < ttr <= 1.0
        assert (ttr == 1.0) == (len(set(words)) == len(words))


class TestFleschKincaid:
    def test_ten_words_fourteen_syllables(self):
        # the(1) cat(1) sat(1) on(1) mat(1) robot(2) paper(2) window(2)
        # sunset(2) now(1) = 14 syllables, 10 words, 1 sentence:
        # 0.39*10 + 11.8*1.4 - 15.59 = 4.83
        doc = make_doc("the cat sat on mat robot paper window sunset now.")
        expected = 0.39 * 10 + 11.8 * (14 / 10) - 15.59
        assert flesch_kincaid_grade(doc) == pytest.approx(expected, abs=1e-9)
        assert flesch_kincaid_grade(doc) == pytest.approx(4.83, abs=1e-9)

    def test_one_word_one_syllable(self):
        # 0.39*1 + 11.8*1 - 15.59 = -3.4
        assert flesch_kincaid_grade(make_doc("the.")) == pytest.approx(-3.4, abs=1e-9)

    def test_ratio_invariance_under_duplication(self):
        body = "A cat sat on the mat. Another cat slept near the door."
        doc, doubled = make_doc(body), make_doc(body + " " + body)
        assert flesch_kincaid_grade(doubled) == pytest.approx(
            flesch_kincaid_grade(doc), abs=1e-12
        )


class TestMeanDependencyDistance:
    def test_hand_counts(self):
        assert mean_dependency_distance(
            ParsedSentence(("a", "b", "c"), (2, 0, 2))
        ) == pytest.approx(1.0)
        assert mean_dependency_distance(
            ParsedSentence(("a", "b"), (2, 0))
        ) == pytest.approx(1.0)
        assert mean_dependency_distance(
            ParsedSentence(("a", "b", "c"), (3, 3, 0))
        ) == pytest.approx(1.5)

    def test_all_root_errors(self):
        with pytest.raises(DataError):
            mean_dependency_distance(ParsedSentence(("a",), (0,)))

    def test_self_head_rejected(self):
        with pytest.raises(DataError):
            ParsedSentence(("a", "b"), (1, 0))

    def test_minimum_arc_length_is_one(self):
        sent = ParsedSentence(("a", "b", "c", "d"), (2, 0, 2, 3))
        assert mean_dependency_distance(sent) >= 1.0


class TestHistogram:
    def test_hand_binning(self):
        h = histogram([1, 2, 3], [0, 2, 4])
        assert h["counts"] == [1, 2]

    def test_empty_values(self):
        h = histogram([], [0, 1, 2])
        assert h["counts"] == [0, 0]

    def test_last_edge_closed(self):
        h = histogram([4.0], [0, 2, 4])
        assert h["counts"] == [0, 1]
        assert h["overflow"] == 0

    def test_out_of_range_tallies(self):
        h = histogram([-1, 5], [0, 2, 4])
        assert h["counts"] == [0, 0]
        assert (h["underflow"], h["overflow"]) == (1, 1)

    def test_unordered_edges_error(self):
        with pytest.raises(DataError):
            histogram([1], [0, 0, 1])

    @given(
        st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False), max_size=60)
    )
    def test_conservation(self, values):
        h = histogram(values, [-5.0, 0.0, 5.0])
        assert sum(h["counts"]) + h["underflow"] + h["overflow"] == len(values)


class TestCorpusReport:
    def test_verbatim_duplicates_give_identical_distributions(self):
        texts = ["A cat sat. It slept.", "Dogs bark loudly at night."]
        report = corpus_report(make_corpus(texts, texts))
        assert report["human"] == report["machine"]

    def test_doubled_bodies_double_mean_length(self):
        human = ["a cat sat here.", "dogs bark at night."]
        machine = [t + " " + t for t in human]
        report = corpus_report(make_corpus(human, machine))
        assert report["machine"]["answer_length"]["mean"] == pytest.approx(
            2 * report["human"]["answer_length"]["mean"]
        )

    def test_dependency_section_only_with_parses(self):
        corpus = make_corpus(["a b c."], ["d e f."])
        without = corpus_report(corpus)
        assert "dependency_distance" not in without["human"]
        parses = {
            Label.HUMAN: [ParsedSentence(("a", "b"), (2, 0))],
            Label.MACHINE: [ParsedSentence(("c", "d"), (2, 0))],
        }
        with_parses = corpus_report(corpus, parses=parses)
        assert "dependency_distance" in with_parses["human"]

    @pytest.mark.parametrize("machine", [None, [ParsedSentence(("c", "d"), (0, 0))]],
                             ids=["no_parses", "root_only"])
    def test_class_without_dependency_distance_has_null_mean(self, machine):
        """A class with no dependency-distance value reads a null mean, not
        0.0 over zero sentences, and keeps its empty histogram."""
        parses = {Label.HUMAN: [ParsedSentence(("a", "b"), (2, 0))]}
        if machine is not None:
            parses[Label.MACHINE] = machine
        report = corpus_report(make_corpus(["a b c."], ["d e f."]), parses=parses)
        assert report["human"]["dependency_distance"]["mean"] == 1.0
        section = report["machine"]["dependency_distance"]
        assert section["mean"] is None
        assert section["histogram"]["counts"] == [0] * 16
        assert (section["histogram"]["underflow"], section["histogram"]["overflow"]) == (0, 0)

    def test_single_class_corpus_rejected(self):
        with pytest.raises(DataError):
            corpus_report(make_corpus(["only human."], []))
