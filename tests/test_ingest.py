import hashlib
import json
import math
import sys
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from mgtdetect.errors import DataError, EmptyDocument
from mgtdetect.ingest import (
    Corpus,
    Document,
    Label,
    SplitSpec,
    load_conllu,
    load_hc3,
    normalize,
    split,
)

from conftest import make_corpus


# Every code point but the surrogates, in order.
ALL_CHARS = "".join(chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c < 0xE000)


# The per-character implementations the regex scans replaced, kept as
# oracles.
def oracle_normalize(raw):
    text = unicodedata.normalize("NFC", raw).replace("\xa0", " ")
    cleaned = []
    for ch in text:
        if ch in {"\u200b", "\u200c", "\u200d", "\ufeff", "\u2060"}:
            continue
        if unicodedata.category(ch) in ("Cc", "Cf") and not ch.isspace():
            continue
        cleaned.append(ch)
    collapsed = " ".join("".join(cleaned).split())
    if not collapsed:
        raise EmptyDocument("text is empty after normalization")
    return collapsed


def oracle_control_chars(body):
    return [ch for ch in body if unicodedata.category(ch) == "Cc" and ch != "\n"]


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DataError, EmptyDocument) as exc:
        return type(exc), str(exc)


def document_outcome(body):
    return outcome(lambda: Document(id="d", body=body, label=Label.HUMAN).body)


class TestOracles:
    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_scans_match_per_character_oracles(self, raw):
        assert outcome(normalize, raw) == outcome(oracle_normalize, raw)
        controls = oracle_control_chars(raw)
        if not raw:
            expected = (EmptyDocument, "document 'd' has an empty body")
        elif controls:
            expected = (DataError, f"document 'd' contains control character {controls[0]!r}")
        else:
            expected = raw
        assert document_outcome(raw) == expected

    def test_every_code_point(self):
        assert normalize(ALL_CHARS) == oracle_normalize(ALL_CHARS)
        controls = oracle_control_chars(ALL_CHARS)
        assert len(controls) == 64  # U+0000-U+001F and U+007F-U+009F, minus "\n"
        for ch in controls:
            assert document_outcome(f"a{ch}b") == (
                DataError, f"document 'd' contains control character {ch!r}"
            )
        clean = "".join(ch for ch in ALL_CHARS if ch not in set(controls))
        assert document_outcome(clean) == clean


class TestNormalize:
    def test_nbsp_and_whitespace_collapse(self):
        assert normalize("  a b  ") == "a b"

    def test_identity_on_clean_input(self):
        assert normalize("abc") == "abc"

    def test_empty_after_normalization(self):
        with pytest.raises(EmptyDocument):
            normalize("​ \t")

    def test_zero_width_removed(self):
        assert normalize("a​b") == "ab"

    def test_control_chars_removed(self):
        assert normalize("a\x07b\nc") == "ab c"

    @given(st.text(max_size=120))
    def test_idempotent(self, raw):
        try:
            once = normalize(raw)
        except EmptyDocument:
            return
        assert normalize(once) == once


class TestLoadHc3:
    def test_mapping_rule(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"question":"q","human_answers":["a"],"chatgpt_answers":["b","c"]}\n'
        )
        corpus = load_hc3(path)
        assert len(corpus) == 3
        assert corpus.class_counts == {Label.HUMAN: 1, Label.MACHINE: 2}
        assert [d.id for d in corpus.documents] == ["1-h1", "1-m1", "1-m2"]
        assert corpus.documents[0].source_question == "q"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        corpus = load_hc3(path)
        assert len(corpus) == 0
        assert corpus.class_counts == {Label.HUMAN: 0, Label.MACHINE: 0}

    def test_no_human_answers(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"question":"q","human_answers":[],"chatgpt_answers":["b"]}\n')
        corpus = load_hc3(path)
        assert corpus.class_counts == {Label.HUMAN: 0, Label.MACHINE: 1}

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"question":"q","human_answers":["a"],"chatgpt_answers":["b"]}\n'
            "{broken\n"
        )
        with pytest.raises(DataError, match="line 2"):
            load_hc3(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"question":"q","human_answers":["a"]}\n')
        with pytest.raises(DataError, match="chatgpt_answers"):
            load_hc3(path)

    def test_empty_answers_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"question":"q","human_answers":["​"],"chatgpt_answers":["ok"]}\n'
        )
        corpus = load_hc3(path)
        assert corpus.class_counts == {Label.HUMAN: 0, Label.MACHINE: 1}

    def test_document_count_identity(self, fixtures_dir):
        corpus = load_hc3(fixtures_dir / "hc3_sample.jsonl")
        with (fixtures_dir / "hc3_sample.jsonl").open() as fh:
            expected = sum(
                len(rec["human_answers"]) + len(rec["chatgpt_answers"])
                for rec in map(json.loads, fh)
            )
        assert len(corpus) == expected


class TestSplit:
    def _corpus(self, n_per_class):
        return make_corpus(
            [f"human text {i}" for i in range(n_per_class)],
            [f"machine text {i}" for i in range(n_per_class)],
        )

    def test_floor_rule_and_stratification(self):
        corpus = self._corpus(50)
        spec = SplitSpec(0.8, 0.1, 0.1, seed=7)
        train, val, test = split(corpus, spec)
        assert (len(train), len(val), len(test)) == (80, 10, 10)
        for part in (train, val, test):
            assert part.class_counts[Label.HUMAN] == part.class_counts[Label.MACHINE]

    def test_deterministic(self):
        corpus = self._corpus(50)
        spec = SplitSpec(0.8, 0.1, 0.1, seed=7)
        a = split(corpus, spec)
        b = split(corpus, spec)
        for pa, pb in zip(a, b):
            assert [d.id for d in pa.documents] == [d.id for d in pb.documents]

    def test_degenerate_split(self):
        corpus = make_corpus(["a b c", "d e"], ["x y", "z w", "v u"])
        with pytest.raises(DataError, match="would contribute 0 documents to a split"):
            split(corpus, SplitSpec(0.8, 0.1, 0.1, seed=1))

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            split(Corpus(()), SplitSpec(0.8, 0.1, 0.1, seed=1))

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(DataError):
            SplitSpec(0.5, 0.2, 0.2, seed=1)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=15, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_partition_property(self, n, seed):
        corpus = self._corpus(n)
        train, val, test = split(corpus, SplitSpec(0.6, 0.2, 0.2, seed=seed))
        ids = [d.id for part in (train, val, test) for d in part.documents]
        assert sorted(ids) == sorted(d.id for d in corpus.documents)
        assert len(set(ids)) == len(ids)


def manifest_bytes(parts) -> bytes:
    """The train, val and test ids of split's *parts*, as splits.json
    lists them."""
    ids = {name: [d.id for d in part.documents]
           for name, part in zip(("train", "val", "test"), parts)}
    return json.dumps(ids, sort_keys=True, indent=2).encode()


def sized_corpus(n_human: int, n_machine: int) -> Corpus:
    return make_corpus([f"human text {i}" for i in range(n_human)],
                       [f"machine text {i}" for i in range(n_machine)])


fractions = st.tuples(st.floats(0.02, 0.45), st.floats(0.02, 0.45)).map(
    lambda vt: SplitSpec(1.0 - vt[0] - vt[1], vt[0], vt[1], seed=0))


class TestKeyedSplit:
    """split orders each class by the SHA-256 keys of its seed and ids."""

    def test_hand_checked_order(self):
        """Five documents a class, seed 7: each class in increasing order
        of its keys, the first 8 bytes of SHA-256("7/<id>") read big-endian,
        then 3 to train, 1 to val and 1 to test."""
        def key(doc_id: str) -> int:
            return int.from_bytes(hashlib.sha256(f"7/{doc_id}".encode()).digest()[:8], "big")

        human = ["h1", "h4", "h2", "h3", "h0"]
        machine = ["m3", "m4", "m2", "m1", "m0"]
        for order in (human, machine):
            keys = [key(i) for i in order]
            assert keys == sorted(keys)
        assert key("h1") == 1641918907218119622
        assert key("m0") == 14661437776276373313
        train, val, test = split(sized_corpus(5, 5), SplitSpec(0.6, 0.2, 0.2, seed=7))
        assert [d.id for d in train.documents] == human[:3] + machine[:3]
        assert [d.id for d in val.documents] == ["h3", "m1"]
        assert [d.id for d in test.documents] == ["h0", "m0"]

    @settings(max_examples=60, deadline=None)
    @given(n_human=st.integers(1, 60), n_machine=st.integers(1, 60), spec=fractions,
           seed=st.integers(0, 2**64 - 1))
    def test_floor_counts_per_class(self, n_human, n_machine, spec, seed):
        """Per class of n documents, val gets floor(val_frac * n), test
        floor(test_frac * n) and train the rest; a class that would leave a
        split empty is a DataError."""
        spec = SplitSpec(spec.train_frac, spec.val_frac, spec.test_frac, seed)
        expected = {}
        for label, n in ((Label.HUMAN, n_human), (Label.MACHINE, n_machine)):
            n_val, n_test = math.floor(spec.val_frac * n), math.floor(spec.test_frac * n)
            expected[label] = (n - n_val - n_test, n_val, n_test)
        corpus = sized_corpus(n_human, n_machine)
        if min(min(counts) for counts in expected.values()) == 0:
            with pytest.raises(DataError, match="would contribute 0 documents"):
                split(corpus, spec)
            return
        parts = split(corpus, spec)
        for label, counts in expected.items():
            assert tuple(part.class_counts[label] for part in parts) == counts

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(5, 40), seed=st.integers(0, 2**64 - 1))
    def test_manifest_ignores_document_order(self, data, n, seed):
        """The documents in any order give the same manifest."""
        corpus = sized_corpus(n, n + 3)
        shuffled = Corpus(tuple(data.draw(st.permutations(corpus.documents))))
        spec = SplitSpec(0.6, 0.2, 0.2, seed)
        assert manifest_bytes(split(shuffled, spec)) == manifest_bytes(split(corpus, spec))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(5, 40), seed=st.integers(0, 2**64 - 1))
    def test_rerun_gives_the_same_bytes(self, n, seed):
        """Two splits of two corpora built alike write the same bytes."""
        spec = SplitSpec(0.6, 0.2, 0.2, seed)
        first = manifest_bytes(split(sized_corpus(n, n), spec))
        assert manifest_bytes(split(sized_corpus(n, n), spec)) == first

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(20, 60), seeds=st.lists(st.integers(0, 2**64 - 1), min_size=2,
                                                 max_size=2, unique=True))
    def test_another_seed_gives_another_split(self, n, seeds):
        corpus = sized_corpus(n, n)
        a, b = (manifest_bytes(split(corpus, SplitSpec(0.6, 0.2, 0.2, seed))) for seed in seeds)
        assert a != b


class TestLoadConllu:
    def test_fixture_sentences(self, fixtures_dir):
        sentences = load_conllu(fixtures_dir / "sample.conllu")
        assert len(sentences) == 2
        assert sentences[0].tokens == ("a", "b")
        assert sentences[0].heads == (2, 0)
        # multiword range and empty node are skipped
        assert sentences[1].tokens == ("a", "b", "c")
        assert sentences[1].heads == (3, 3, 0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.conllu"
        path.write_text("")
        assert load_conllu(path) == []

    def test_underscore_head_errors_with_line(self, tmp_path):
        path = tmp_path / "bad.conllu"
        path.write_text("1\ta\t_\t_\t_\t_\t_\t_\t_\t_\n")
        with pytest.raises(DataError, match="line 1"):
            load_conllu(path)

    def test_document_invariants(self):
        with pytest.raises(DataError):
            Document(id="x", body="ok", label="not-a-label")  # type: ignore[arg-type]
        with pytest.raises(EmptyDocument):
            Document(id="x", body="", label=Label.HUMAN)

    def test_corpus_rejects_duplicate_ids(self):
        d = Document(id="same", body="a", label=Label.HUMAN)
        with pytest.raises(DataError):
            Corpus((d, d))
