"""Per-layer metrics from the spans of a traced run.

Conventions (README.md has the table):
- `<layer>.<fn>_s|_ms|_us`: median duration of one call, over every call.
- `.self_s`: the same for the span's self time (duration minus children).
- `text_core.*_s` and `*_calls`: summed over one workload iteration, then
  the median over iterations. Those helpers run thousands of times.
- A layer that a workload never calls reads 0.
"""

from __future__ import annotations

import statistics

import tracing

S, MS, US = 1e-9, 1e-6, 1e-3  # nanoseconds to s, ms, us

COMMANDS = ("ingest", "stats", "train", "evaluate", "detect")
CLASSIFIER_TRAIN = ("classifiers.train_logreg", "classifiers.train_gnb", "classifiers.tune_gnb",
                    "classifiers.train_linear_svm", "classifiers.train_random_forest")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Spans:
    """Spans of every traced child, grouped by workload iteration."""

    def __init__(self, iterations: list[list]):
        self.import_s: list[float] = []
        self.iterations: list[list[tuple]] = []
        for paths in iterations:
            rows = []
            for path in paths:
                payload = tracing.load(path)
                self.import_s.append(payload["import_s"])
                spans = payload["spans"]
                for (name, start, end, parent, attrs), own in zip(spans, tracing.self_times(spans)):
                    parent_name = spans[parent][0] if parent >= 0 else None
                    rows.append((name, end - start, own, attrs or {}, parent_name))
            self.iterations.append(rows)

    def rows(self, *names: str) -> list[tuple]:
        return [r for rows in self.iterations for r in rows if r[0] in names]

    def per_call(self, name: str, unit: float, own: bool = False) -> float:
        return _median((r[2] if own else r[1]) * unit for r in self.rows(name))

    def per_iteration(self, name: str, own: bool = False) -> float:
        """Median over iterations of the summed (self) seconds of `name`."""
        return _median(sum((r[2] if own else r[1]) for r in rows if r[0] == name) * S
                       for rows in self.iterations)

    def calls_per_iteration(self, name: str) -> float:
        return _median(sum(r[0] == name for r in rows) for rows in self.iterations)

    def call_counts(self) -> dict[str, int]:
        """Calls of each span name over all traced iterations."""
        counts: dict[str, int] = {}
        for rows in self.iterations:
            for r in rows:
                counts[r[0]] = counts.get(r[0], 0) + 1
        return dict(sorted(counts.items()))

    def attrs(self, name: str, key: str) -> list:
        return [r[3][key] for r in self.rows(name) if key in r[3]]


class PassCountError(Exception):
    pass


def metrics(sp: Spans, k: int, epochs: int) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every per-layer metric the spans give."""
    m: dict[str, tuple[float, str]] = {
        "cli.import_s": (_median(sp.import_s), "s"),
        "cli.config_parse_ms": (sp.per_call("cli.RunConfig.from_file", MS), "ms"),
    }
    for cmd in COMMANDS:
        m[f"cli.{cmd}_s"] = (sp.per_call(f"cli.cmd_{cmd}", S), "s")
        m[f"cli.{cmd}.self_s"] = (sp.per_call(f"cli.cmd_{cmd}", S, own=True), "s")
    docs = sp.attrs("ingest.load_hc3", "docs")
    m.update({
        "ingest.load_hc3_s": (sp.per_call("ingest.load_hc3", S), "s"),
        "ingest.split_s": (sp.per_call("ingest.split", S), "s"),
        "ingest.docs": (docs[-1] if docs else 0, "count"),
        "text_core.tokenize_calls": (sp.calls_per_iteration("text_core.tokenize"), "count"),
        "text_core.tokenize_s": (sp.per_iteration("text_core.tokenize", own=True), "s"),
        "text_core.split_sentences_s": (sp.per_iteration("text_core.split_sentences"), "s"),
        "text_core.build_vocab_s": (sp.per_iteration("text_core.build_vocab"), "s"),
        "corpus_stats.corpus_report_s": (sp.per_call("corpus_stats.corpus_report", S), "s"),
    })
    skipgram = sp.rows("embeddings.train_skipgram")
    oov = sp.attrs("embeddings.doc_vector", "oov")
    m.update({
        "embeddings.train_skipgram_s": (sp.per_call("embeddings.train_skipgram", S), "s"),
        # The epoch loop has no function of its own: train_skipgram's self
        # time (all but vocabulary and tokenizing) shared by its epochs.
        "embeddings.skipgram_epoch_s": (_median(r[2] * S / epochs for r in skipgram), "s"),
        "embeddings.doc_vector_us": (sp.per_call("embeddings.doc_vector", US), "us"),
        "embeddings.doc_vector_calls": (sp.calls_per_iteration("embeddings.doc_vector"), "count"),
        "embeddings.oov_frac": (sum(oov) / len(oov) if oov else 0.0, "fraction"),
        "embeddings.export_vectors_s": (sp.per_call("embeddings.export_vectors", S), "s"),
        "embeddings.load_vectors_s": (sp.per_call("embeddings.load_vectors", S), "s"),
    })
    train = [r for r in sp.rows(*CLASSIFIER_TRAIN) if not (r[4] or "").startswith("classifiers.")]
    m.update({
        "classifiers.train_s": (_median(r[1] * S for r in train), "s"),
        "classifiers.predict_us": (sp.per_call("classifiers.predict", US), "us"),
        "classifiers.save_model_s": (sp.per_call("classifiers.save_model", S), "s"),
        "classifiers.load_model_s": (sp.per_call("classifiers.load_model", S), "s"),
    })
    sizes = sp.attrs("zeroshot.save_lm", "bytes") + sp.attrs("zeroshot.load_lm", "bytes")
    vocab = sp.attrs("zeroshot.train_kn_lm", "vocab") + sp.attrs("zeroshot.load_lm", "vocab")
    noop = sp.attrs("zeroshot.perturb", "noop")
    m.update({
        "zeroshot.train_kn_lm_s": (sp.per_call("zeroshot.train_kn_lm", S), "s"),
        "zeroshot.perplexity_s": (sp.per_call("zeroshot.perplexity", S), "s"),
        "zeroshot.save_lm_s": (sp.per_call("zeroshot.save_lm", S), "s"),
        "zeroshot.load_lm_s": (sp.per_call("zeroshot.load_lm", S), "s"),
        "zeroshot.lm_json_bytes": (max(sizes, default=0), "bytes"),
        "zeroshot.vocab_size": (max(vocab, default=0), "count"),
        "zeroshot.scoring_pass_us": (sp.per_call("zeroshot.per_token_log_prob", US), "us"),
        "zeroshot.perturb_us": (sp.per_call("zeroshot.perturb", US), "us"),
        "zeroshot.detect_gpt_ms_per_doc": (sp.per_call("zeroshot.detect_gpt_score", MS), "ms"),
        "zeroshot.single_revise_ms_per_doc": (sp.per_call("zeroshot.single_revise_score", MS), "ms"),
    })
    for method, expected in (("detect_gpt", k + 1), ("single_revise", 2)):
        passes = set(sp.attrs(f"zeroshot.{method}_score", "passes"))
        if passes - {expected}:
            raise PassCountError(f"{method}: scoring passes per document {sorted(passes)}, "
                                 f"expected exactly {expected}")
        m[f"zeroshot.passes_per_doc.{method}"] = (expected if passes else 0, "count")
    m.update({
        "zeroshot.noop_perturb_frac": (sum(noop) / len(noop) if noop else 0.0, "fraction"),
        "evaluation.robustness_report.self_s":
            (sp.per_call("evaluation.robustness_report", S, own=True), "s"),
        "evaluation.adversarial_transform_us":
            (sp.per_call("evaluation.adversarial_transform", US), "us"),
        "evaluation.youden_threshold_ms": (sp.per_call("evaluation.youden_threshold", MS), "ms"),
        "evaluation.auroc_ms": (sp.per_call("evaluation.auroc", MS), "ms"),
    })
    return m
