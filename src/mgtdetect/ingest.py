"""HC3-style JSONL ingestion, text normalization, deterministic stratified
splits, and CoNLL-U dependency annotation loading; the document types and
the scorer every detector is reduced to.
"""

from __future__ import annotations

import re
import sys
import unicodedata
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError, EmptyDocument, parse_json, read_lines

_ZERO_WIDTH = {"​", "‌", "‍", "﻿", "⁠"}

# Category Cc is exactly U+0000-U+001F and U+007F-U+009F; a body may keep
# its newlines.
_CONTROL_RE = re.compile(r"[\x00-\x09\x0b-\x1f\x7f-\x9f]")

# Everything outside printable ASCII, which normalize() never removes.
_NON_ASCII_PRINTABLE_RE = re.compile(r"[^\x20-\x7e]")


class Label(str, Enum):
    HUMAN = "human"
    MACHINE = "machine"


@dataclass(frozen=True)
class Document:
    """One labeled text sample. ``body`` is normalized text."""

    id: str
    body: str
    label: Label
    source_question: str | None = None

    def __post_init__(self) -> None:
        if not self.body:
            raise EmptyDocument(f"document {self.id!r} has an empty body")
        control = _CONTROL_RE.search(self.body)
        if control:
            raise DataError(
                f"document {self.id!r} contains control character {control[0]!r}"
            )
        if not isinstance(self.label, Label):
            raise DataError(f"document {self.id!r} has invalid label")


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    class_counts: dict[Label, int] = field(init=False)

    def __post_init__(self) -> None:
        ids = [d.id for d in self.documents]
        if len(set(ids)) != len(ids):
            raise DataError("corpus contains duplicate document ids")
        counts = {Label.HUMAN: 0, Label.MACHINE: 0}
        for d in self.documents:
            counts[d.label] += 1
        object.__setattr__(self, "class_counts", counts)

    def __len__(self) -> int:
        return len(self.documents)

    def bodies(self) -> list[str]:
        return [d.body for d in self.documents]

    def by_label(self, label: Label) -> list[Document]:
        return [d for d in self.documents if d.label == label]


@dataclass(frozen=True)
class DetectorScorer:
    """Unified scoring interface: any detector reduced to a score
    function plus its decision threshold.
    """

    name: str
    score_fn: Callable[[Document], float]
    threshold: float

    def label(self, score: float) -> int:
        """1 (Machine) iff score >= threshold, so ties go to Machine."""
        return int(score >= self.threshold)


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float
    val_frac: float
    test_frac: float
    seed: int

    def __post_init__(self) -> None:
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(not (0.0 < f < 1.0) for f in fracs):
            raise DataError("split fractions must lie in (0, 1)")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise DataError("split fractions must sum to 1")
        if self.seed < 0:
            raise DataError("seed must be a non-negative integer")


@dataclass(frozen=True)
class ParsedSentence:
    """Tokens plus 1-based head indices (0 marks the root arc)."""

    tokens: tuple[str, ...]
    heads: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.heads):
            raise DataError("heads length must equal tokens length")
        n = len(self.tokens)
        for pos, h in enumerate(self.heads, start=1):
            if not (0 <= h <= n):
                raise DataError(f"head index {h} out of range [0, {n}]")
            if h == pos:
                raise DataError(f"token {pos} is its own head")


def normalize(raw: str) -> str:
    """Unicode NFC, non-breaking spaces to spaces, zero-width and control
    characters removed, whitespace runs collapsed to one space, stripped.

    Raises EmptyDocument when nothing remains.
    """
    text = unicodedata.normalize("NFC", raw)
    text = text.replace(" ", " ")
    collapsed = " ".join(_NON_ASCII_PRINTABLE_RE.sub(_drop_invisible, text).split())
    if not collapsed:
        raise EmptyDocument("text is empty after normalization")
    return collapsed


def _drop_invisible(m: re.Match) -> str:
    """'' for a zero-width character or a control or format character
    that is not whitespace, else the character itself."""
    ch = m[0]
    if ch in _ZERO_WIDTH:
        return ""
    if unicodedata.category(ch) in ("Cc", "Cf") and not ch.isspace():
        return ""
    return ch


def load_hc3(path: str | Path) -> Corpus:
    """Read HC3-style JSONL: one object per line with ``question``,
    ``human_answers`` and ``chatgpt_answers`` string arrays.

    Each answer becomes one Document (ids ``<line#>-h<k>`` / ``<line#>-m<k>``,
    1-based). Answers that normalize to nothing are skipped, each with one
    ``skipping <id>: empty after normalization`` line on stderr; a question
    or answer that is not a string is a DataError naming its line.
    """
    path = Path(path)
    docs: list[Document] = []
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        record = parse_json(line, f"{path}: line {lineno}")
        if not isinstance(record, dict):
            raise DataError(f"{path}: line {lineno} is not a JSON object")
        for fname in ("question", "human_answers", "chatgpt_answers"):
            if fname not in record:
                raise DataError(f"{path}: line {lineno} missing field {fname!r}")
        question = record["question"]
        if not isinstance(question, str):
            raise DataError(f"{path}: line {lineno} field 'question' is not a string")
        for tag, label, fname in (
            ("h", Label.HUMAN, "human_answers"),
            ("m", Label.MACHINE, "chatgpt_answers"),
        ):
            answers = record[fname]
            if not isinstance(answers, list):
                raise DataError(f"{path}: line {lineno} field {fname!r} is not an array")
            for k, answer in enumerate(answers, start=1):
                doc_id = f"{lineno}-{tag}{k}"
                if not isinstance(answer, str):
                    raise DataError(f"{path}: line {lineno} field {fname!r} item {k} "
                                    "is not a string")
                try:
                    body = normalize(answer)
                except EmptyDocument:
                    print(f"skipping {doc_id}: empty after normalization", file=sys.stderr)
                    continue
                docs.append(
                    Document(id=doc_id, body=body, label=label, source_question=question)
                )
    return Corpus(documents=tuple(docs))


def split(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus, Corpus]:
    """Stratified, seeded train/val/test partition.

    Per class: a seeded permutation, then floor(frac * n) documents to val
    and test with the remainder assigned to train. Deterministic for
    identical (corpus, spec).
    """
    if not corpus.documents:
        raise DataError("cannot split an empty corpus")
    rng = np.random.default_rng(spec.seed)
    train: list[Document] = []
    val: list[Document] = []
    test: list[Document] = []
    present = [lb for lb in (Label.HUMAN, Label.MACHINE) if corpus.class_counts[lb] > 0]
    for label in present:
        group = corpus.by_label(label)
        order = rng.permutation(len(group))
        shuffled = [group[i] for i in order]
        n = len(shuffled)
        n_val = int(np.floor(spec.val_frac * n))
        n_test = int(np.floor(spec.test_frac * n))
        n_train = n - n_val - n_test
        train.extend(shuffled[:n_train])
        val.extend(shuffled[n_train : n_train + n_val])
        test.extend(shuffled[n_train + n_val :])
        if min(n_train, n_val, n_test) == 0:
            raise DataError(
                f"class {label.value!r} would contribute 0 documents to a split "
                f"(train={n_train}, val={n_val}, test={n_test})"
            )
    return Corpus(tuple(train)), Corpus(tuple(val)), Corpus(tuple(test))


def load_conllu(path: str | Path) -> list[ParsedSentence]:
    """Read CoNLL-U sentences keeping columns ID, FORM and HEAD.

    Multiword-token ranges (``1-2``) and empty nodes (``1.1``) are skipped;
    comment lines are ignored; blank lines separate sentences.
    """
    path = Path(path)
    sentences: list[ParsedSentence] = []
    tokens: list[str] = []
    heads: list[int] = []

    def flush() -> None:
        nonlocal tokens, heads
        if tokens:
            sentences.append(ParsedSentence(tokens=tuple(tokens), heads=tuple(heads)))
        tokens, heads = [], []

    for lineno, line in read_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < 7:
            raise DataError(f"{path}: line {lineno} has fewer than 7 columns")
        tok_id = cols[0]
        if "-" in tok_id or "." in tok_id:
            continue
        try:
            head = int(cols[6])
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno} has non-integer HEAD {cols[6]!r}") from exc
        tokens.append(cols[1])
        heads.append(head)
    flush()
    return sentences
